//===- bench/vm_dispatch.cpp - interp vs bytecode VM ns/call --------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// Measures the per-call cost of the FLIX functional sub-language on its
// three execution paths (EXPERIMENTS.md A7):
//
//   * interp    — the tree-walking AST interpreter, called cold every
//                 time (the pre-VM default, what EXPERIMENTS.md A3
//                 measured at ~360x a native call);
//   * vm        — the register bytecode VM (DESIGN.md S15), inline
//                 caches warm;
//   * memo-hit  — the extern memo cache returning the cached value
//                 (what a repeated pure call costs on the join hot path
//                 once plans+memo are on).
//
// Five representative functions: the paper's parity lub (tag dispatch),
// the parity transfer function sum (nested match + equality), a deep
// arithmetic/let/if expression, recursive fib(12) (call-frame traffic),
// and poly2 (a non-recursive cross-call). Values are cross-checked
// between engines on every lane.
//
// Every function gets one row and one JSON record, tagged with the
// dispatch strategy this binary was built with ("threaded" computed-goto
// vs. the portable "switch" loop, -DFLIX_VM_THREADED) — BENCH_vm.json is
// regenerated from both builds.
//
// Options:
//   --json <file>             one record per function
//
// Environment overrides:
//   FLIX_VM_DISPATCH_ITERS    timed iterations per lane (default 200000;
//                             fib uses 1/50 of this)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "fixpoint/Plan.h"
#include "lang/Compiler.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

using namespace flix;
using namespace flix::bench;

namespace {

const char *ModuleSrc = R"flix(
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

def sum(e1: Parity, e2: Parity): Parity = match (e1, e2) with {
  case (Parity.Bot, _) => Parity.Bot
  case (_, Parity.Bot) => Parity.Bot
  case (Parity.Top, _) => Parity.Top
  case (_, Parity.Top) => Parity.Top
  case (x, y) => if (x == y) Parity.Even else Parity.Odd
}

def poly(x: Int, y: Int): Int =
  let a = x * x + 3 * y;
  let b = if (a % 7 == 0) a / 7 else a - y;
  let c = match b % 3 with { case 0 => b case 1 => b + x case _ => b - x };
  c * 2 + y % 5

def fib(n: Int): Int = if (n < 2) n else fib(n - 1) + fib(n - 2)

def poly2(x: Int, y: Int): Int = poly(x, y) + poly(y, x)
)flix";

uint64_t Sink = 0;

/// ns per call over \p Iters timed iterations (after warmup).
double nsPerCall(long Iters, const std::function<Value()> &Call) {
  for (long I = 0; I < Iters / 10 + 1; ++I)
    Sink ^= Call().rawBits();
  auto T0 = std::chrono::steady_clock::now();
  for (long I = 0; I < Iters; ++I)
    Sink ^= Call().rawBits();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(T1 - T0).count() /
         static_cast<double>(Iters);
}

} // namespace

int main(int Argc, char **Argv) {
  long Iters = envInt("FLIX_VM_DISPATCH_ITERS", 200000);
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--json" && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else {
      std::fprintf(stderr, "usage: vm_dispatch [--json <file>]\n");
      return 1;
    }
  }

  const char *Dispatch =
      vm::Vm::threadedDispatch() ? "threaded" : "switch";

  ValueFactory F;
  struct Case {
    const char *Name;
    std::vector<Value> Args;
    long Iters;
  };
  Value Odd = F.tag("Parity.Odd"), Even = F.tag("Parity.Even");
  const Case Cases[] = {
      {"lub", {Odd, Even}, Iters},
      {"sum", {Odd, Even}, Iters},
      {"poly", {F.integer(7), F.integer(9)}, Iters},
      {"fib", {F.integer(12)}, std::max<long>(Iters / 50, 1)},
      {"poly2", {F.integer(7), F.integer(9)}, Iters},
  };

  std::printf("VM dispatch microbenchmark (ns per call, %ld iterations, "
              "%s dispatch; EXPERIMENTS.md A7/A17)\n\n",
              Iters, Dispatch);
  std::printf("%-8s %12s %12s %12s %10s %10s\n", "Function", "interp", "vm",
              "memo-hit", "vm-spdup", "memo-spdup");
  std::printf("%.*s\n", 70,
              "------------------------------------------------------------"
              "--------------------");

  FlixCompiler C(F);
  if (!C.compile(ModuleSrc, "vm-dispatch.flix")) {
    std::fprintf(stderr, "compile failed:\n%s", C.diagnostics().c_str());
    return 1;
  }

  JsonReport Json;
  bool AllOk = true;
  for (const Case &K : Cases) {
    Interp &I = C.interp();
    std::optional<uint32_t> Ix = C.vmFunctionIndex(K.Name);
    if (!Ix) {
      std::fprintf(stderr, "error: %s has no VM body\n", K.Name);
      return 1;
    }
    std::span<const Value> Args(K.Args);

    Value FromInterp = I.call(K.Name, Args);
    Value FromVm = C.vm()->call(*Ix, Args);
    bool Ok = FromInterp == FromVm && !I.hasError();
    AllOk &= Ok;

    double NsInterp = nsPerCall(K.Iters, [&] { return I.call(K.Name, Args); });
    double NsVm = nsPerCall(K.Iters, [&] { return C.vm()->call(*Ix, Args); });
    // A warm extern-memo hit on the same pure call, keyed the way the
    // solver keys it.
    plan::ExternMemo Memo;
    double NsMemo = nsPerCall(K.Iters, [&] {
      return Memo.call(0, Args, [&] { return C.vm()->call(*Ix, Args); });
    });

    double VmSpeedup = NsInterp / std::max(NsVm, 1e-9);
    double MemoSpeedup = NsInterp / std::max(NsMemo, 1e-9);
    std::printf("%-8s %12.1f %12.1f %12.1f %9.1fx %9.1fx%s\n", K.Name,
                NsInterp, NsVm, NsMemo, VmSpeedup, MemoSpeedup,
                Ok ? "" : "  ENGINES DISAGREE");
    std::fflush(stdout);

    if (!JsonPath.empty()) {
      Json.begin();
      Json.str("bench", "vm_dispatch")
          .str("fn", K.Name)
          .str("dispatch", Dispatch)
          .integer("iters", K.Iters)
          .num("ns_interp", NsInterp)
          .num("ns_vm", NsVm)
          .num("ns_memo_hit", NsMemo)
          .num("speedup_vm", VmSpeedup)
          .num("speedup_memo", MemoSpeedup)
          .boolean("ok", Ok);
      Json.end();
    }
  }
  std::printf("\n");

  if (!JsonPath.empty() && !Json.write(JsonPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
    return 1;
  }
  if (Sink == 0x6b63696c73ull) // keep the sink observable
    std::printf("%llu\n", static_cast<unsigned long long>(Sink));
  return AllOk ? 0 : 1;
}
