//===- bench/micro_values.cpp - value/lattice micro-benchmarks -------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// Ablation A3 (google-benchmark): the paper attributes much of its
// constant-factor overhead to boxed values and AST-interpreted lattice
// operations (§4.5, §7 "Performance"). These micro-benchmarks measure the
// engine's answers: hash-consed value interning, O(1) equality, native
// vs interpreted lattice operations, and table joins.
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Table.h"
#include "lang/Compiler.h"
#include "runtime/Lattices.h"

#include <benchmark/benchmark.h>

using namespace flix;

static void BM_TupleInternHit(benchmark::State &State) {
  ValueFactory F;
  std::vector<Value> Tuples;
  for (int I = 0; I < 1024; ++I)
    F.tuple({F.integer(I), F.integer(I * 7)});
  int I = 0;
  for (auto _ : State) {
    Value V = F.tuple({F.integer(I & 1023), F.integer((I & 1023) * 7)});
    benchmark::DoNotOptimize(V);
    ++I;
  }
}
BENCHMARK(BM_TupleInternHit);

static void BM_TupleInternMiss(benchmark::State &State) {
  ValueFactory F;
  int64_t I = 0;
  for (auto _ : State) {
    Value V = F.tuple({F.integer(I), F.integer(I * 31 + 1)});
    benchmark::DoNotOptimize(V);
    ++I;
  }
}
BENCHMARK(BM_TupleInternMiss);

static void BM_ValueEquality(benchmark::State &State) {
  ValueFactory F;
  Value A = F.tuple({F.string("a long-ish string"), F.integer(1)});
  Value B = F.tuple({F.string("a long-ish string"), F.integer(1)});
  for (auto _ : State) {
    bool Eq = A == B; // O(1): hash-consed handles
    benchmark::DoNotOptimize(Eq);
  }
}
BENCHMARK(BM_ValueEquality);

static void BM_ParityLubNative(benchmark::State &State) {
  ValueFactory F;
  ParityLattice L(F);
  Value X = L.odd(), Y = L.even();
  for (auto _ : State) {
    Value V = L.lub(X, Y);
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_ParityLubNative);

static const char *ParitySrc = R"flix(
enum Parity { case Top, case Even, case Odd, case Bot }
def leq(e1: Parity, e2: Parity): Bool = match (e1, e2) with {
  case (Parity.Bot, _) => true
  case (Parity.Even, Parity.Even) => true
  case (Parity.Odd, Parity.Odd) => true
  case (_, Parity.Top) => true
  case _ => false
}
def lub(e1: Parity, e2: Parity): Parity = match (e1, e2) with {
  case (Parity.Bot, x) => x
  case (x, Parity.Bot) => x
  case (Parity.Even, Parity.Even) => Parity.Even
  case (Parity.Odd, Parity.Odd) => Parity.Odd
  case _ => Parity.Top
}
def glb(e1: Parity, e2: Parity): Parity = match (e1, e2) with {
  case (Parity.Top, x) => x
  case (x, Parity.Top) => x
  case (Parity.Even, Parity.Even) => Parity.Even
  case (Parity.Odd, Parity.Odd) => Parity.Odd
  case _ => Parity.Bot
}
let Parity<> = (Parity.Bot, Parity.Top, leq, lub, glb);
)flix";

static void BM_ParityLubInterpreted(benchmark::State &State) {
  ValueFactory F;
  FlixCompiler C(F);
  if (!C.compile(ParitySrc))
    State.SkipWithError("compile failed");
  Value Args[2] = {F.tag("Parity.Odd"), F.tag("Parity.Even")};
  for (auto _ : State) {
    Value V = C.interp().call("lub", Args);
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_ParityLubInterpreted);

static void BM_TableJoinInsert(benchmark::State &State) {
  ValueFactory F;
  BoolLattice L(F);
  int64_t I = 0;
  Table T(2, L, F);
  for (auto _ : State) {
    Value Key = F.tuple({F.integer(I % 65536), F.integer(I / 65536)});
    benchmark::DoNotOptimize(T.join(Key, F.boolean(true)));
    ++I;
  }
}
BENCHMARK(BM_TableJoinInsert);

static void BM_TableLatticeJoin(benchmark::State &State) {
  ValueFactory F;
  ParityLattice L(F);
  Table T(1, L, F);
  Value Vals[2] = {L.odd(), L.even()};
  int64_t I = 0;
  for (auto _ : State) {
    Value Key = F.tuple({F.integer(I % 4096)});
    benchmark::DoNotOptimize(T.join(Key, Vals[I & 1]));
    ++I;
  }
}
BENCHMARK(BM_TableLatticeJoin);

static void BM_TableProbe(benchmark::State &State) {
  ValueFactory F;
  BoolLattice L(F);
  Table T(2, L, F);
  for (int64_t I = 0; I < 10000; ++I)
    T.join(F.tuple({F.integer(I % 100), F.integer(I)}), F.boolean(true));
  int64_t I = 0;
  for (auto _ : State) {
    Value Proj[1] = {F.integer(I % 100)};
    benchmark::DoNotOptimize(T.probe(0b01, Proj));
    ++I;
  }
}
BENCHMARK(BM_TableProbe);

BENCHMARK_MAIN();
