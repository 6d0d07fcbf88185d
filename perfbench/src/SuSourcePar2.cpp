//===- perfbench/src/SuSourcePar2.cpp - FLIX-source strong update ---------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// Workload su_source_par2: Table 1's Figure 4 strong-update analysis
// compiled from FLIX source (strongUpdateFlixSource()) on the 181.mcf
// preset, solved by the work-stealing parallel engine with two workers --
// the one setting this benchmark changes from the product defaults. Every
// join calls the FLIX-defined SULattice operations and filter through the
// bytecode VM, and every round goes through the pool and its merge, so
// vm, parallel and (at set-up) the front end carry weight here that they
// do not carry in ifds_trivial. Two workers leave headroom on a 4-core
// machine; more would measure the scheduler.
//
// Set-up compiles the source, adds the generated facts, and runs the
// initial solve of a two-worker IncrementalSolver. Each cycle times
//   * one full solve by a fresh ParallelSolver          (solve_p50_ms),
//   * point queries Pt(p, a) on the solved model         (query_p50_ms),
//   * incremental updates, each one batch that retracts  (update_p*_ms)
//     the previous update's extra AddrOf(p, a) fact and adds a new one,
//     a local edit (see rewireAddrOf).
// Every output is checked against runStrongUpdateImperative, the
// hand-written worklist analyzer.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Samples.h"

#include "analyses/StrongUpdate.h"
#include "parallel/Dispatch.h"
#include "workload/PointerWorkload.h"

#include <array>
#include <memory>
#include <set>
#include <random>

using namespace flix;

namespace perfbench {
namespace {

constexpr unsigned Workers = 2;

SolverOptions solveOptions() {
  SolverOptions O;
  O.NumThreads = Workers;
  return O;
}

/// The Pt and PtH relations of one model, as digests.
struct SuDigest {
  PairDigest Pt, PtH;
  bool operator==(const SuDigest &O) const {
    return Pt == O.Pt && PtH == O.PtH;
  }
};

/// Pt and PtH cells in which two models differ.
size_t changedCells(const StrongUpdateResult &A, const StrongUpdateResult &B) {
  auto diff = [](const std::vector<std::set<int>> &X,
                 const std::vector<std::set<int>> &Y) {
    size_t N = 0;
    for (size_t I = 0; I < std::max(X.size(), Y.size()); ++I) {
      static const std::set<int> None;
      const std::set<int> &L = I < X.size() ? X[I] : None;
      const std::set<int> &R = I < Y.size() ? Y[I] : None;
      if (L == R)
        continue;
      for (int V : L)
        N += !R.count(V);
      for (int V : R)
        N += !L.count(V);
    }
    return N;
  };
  return diff(A.Pt, B.Pt) + diff(A.PtH, B.PtH);
}

SuDigest digestOf(const StrongUpdateResult &R) {
  SuDigest D;
  for (size_t P = 0; P < R.Pt.size(); ++P)
    for (int A : R.Pt[P])
      D.Pt.add(int64_t(P), A);
  for (size_t A = 0; A < R.PtH.size(); ++A)
    for (int B : R.PtH[A])
      D.PtH.add(int64_t(A), B);
  return D;
}

size_t mcfInputFacts() {
  for (const SpecPreset &P : spec2006Presets())
    if (P.Name == "181.mcf")
      return P.InputFacts;
  fatal("no 181.mcf preset");
}

/// One compiled Figure 4 program with its facts loaded.
struct Compiled {
  ValueFactory F;
  FlixCompiler C{F};
  PredId AddrOf = 0, Pt = 0, PtH = 0, SUAfter = 0;

  template <typename SolverT> SuDigest digest(const SolverT &S) const {
    return {digestTable(F, S.table(Pt)), digestTable(F, S.table(PtH))};
  }

  /// The facts of \p In, added as runStrongUpdateFlixSource adds them.
  void loadFacts(const PointerProgram &In) {
    auto fact = [&](const char *Pred, std::initializer_list<int> Cols) {
      Value T[3];
      size_t N = 0;
      for (int V : Cols)
        T[N++] = F.integer(V);
      C.addFact(Pred, std::span<const Value>(T, N));
    };
    for (auto [A, B] : In.AddrOf)
      fact("AddrOf", {A, B});
    for (auto [A, B] : In.Copy)
      fact("Copy", {A, B});
    for (const auto &T : In.Load)
      fact("Load", {T[0], T[1], T[2]});
    for (const auto &T : In.Store)
      fact("Store", {T[0], T[1], T[2]});
    for (auto [A, B] : In.Cfg)
      fact("CFG", {A, B});
    for (auto [A, B] : In.Kill)
      fact("Kill", {A, B});
    Value Top = F.tag("SULattice.Top");
    for (auto [L, A] : In.InitTop) {
      Value Key[2] = {F.integer(L), F.integer(A)};
      C.addLatFact("SUAfter", Key, Top);
    }
  }
};

class SuWorkload {
public:
  static constexpr unsigned Threads = Workers;

  explicit SuWorkload(const RunConfig &C)
      : PP(renamePointerProgram(
            generatePointerProgram(BaseInstanceSeed,
                                   C.Tiny ? 300 : mcfInputFacts()),
            C.Seed)),
        Shifted(PP), Source(strongUpdateFlixSource()),
        Rng(C.Seed * 0x9e3779b97f4a7c15ULL + 2),
        Base(runStrongUpdateImperative(PP)) {
    const StrongUpdateResult &Imp = Base;
    Ref = digestOf(Imp);
    std::vector<std::pair<int, int>> Cells;
    for (size_t P = 0; P < Imp.Pt.size(); ++P)
      for (int A : Imp.Pt[P]) {
        Cells.push_back({int(P), A});
        RefSet.insert(packKey(int64_t(P), A));
      }
    for (auto [P, A] : PP.AddrOf)
      AddrOfSet.insert(packKey(P, A));
    // Point queries: half are Pt cells of the model, half random pairs.
    for (size_t I = 0; I < 8192; ++I) {
      if (I % 2 == 0 && !Cells.empty())
        QueryKeys.push_back(Cells[Rng() % Cells.size()]);
      else
        QueryKeys.push_back({int(Rng() % PP.NumVars),
                             int(Rng() % PP.NumObjs)});
    }
  }

  /// One set-up: front end, fact load, and the two-worker incremental
  /// engine's initial solve. Replaces the previous set-up's state.
  double setup(Tracer &Tr, Result &R) {
    IS.reset();
    Inst.reset();
    Extra.clear();
    double T0 = now();
    int Sp = Tr.begin("harness.setup");
    Inst = std::make_unique<Compiled>();
    double C0 = now();
    {
      auto S1 = Tr.span("lang.compile");
      if (!Inst->C.compile(Source, "strong-update.flix"))
        fatal("strong-update source failed to compile:\n" +
              Inst->C.diagnostics());
    }
    CompileMs.push_back((now() - C0) * 1e3);
    double L0 = now();
    {
      auto S2 = Tr.span("lang.fact_load");
      Inst->loadFacts(PP);
    }
    FactLoadMs.push_back((now() - L0) * 1e3);
    Inst->AddrOf = *Inst->C.predicate("AddrOf");
    Inst->Pt = *Inst->C.predicate("Pt");
    Inst->PtH = *Inst->C.predicate("PtH");
    Inst->SUAfter = *Inst->C.predicate("SUAfter");
    IS = std::make_unique<IncrementalSolver>(Inst->C.program(),
                                             solveOptions());
    UpdateStats U;
    {
      auto S3 = Tr.span("incremental.initial_solve");
      U = IS->update();
    }
    Tr.end(Sp);
    double Seconds = now() - T0;
    InitialSolveMs.push_back(U.Seconds * 1e3);
    if (!U.ok() || Inst->C.interp().hasError() || !(Inst->digest(*IS) == Ref))
      R.fail("set-up: initial incremental solve differs from the reference");
    return Seconds;
  }

  void cycle(Tracer &Tr, Samples &S, Result &R) {
    solveAndQuery(Tr, S, R);
    for (int U = 0; U < UpdatesPerCycle; ++U)
      rewireAddrOf(Tr, S, R);
  }

  static const Series &primary(const Samples &S) { return S.Solve; }

  void reportLayers(Result &R, const Samples &S, Tracer &) {
    R.add("lang.compile_ms", median(CompileMs), "ms", CompileMs.size());
    R.add("lang.source_kb", double(Source.size()) / 1024, "KB");
    R.add("lang.fact_load_ms", median(FactLoadMs), "ms", FactLoadMs.size());
    double SolveS = S.Solve.p50() / 1e3;
    addSolveLayerMetrics(R, FirstSolve, SolveS, S.SolveCpu.p50() / 1e3);
    std::vector<double> ImpS;
    for (int I = 0; I < 9; ++I)
      ImpS.push_back(runStrongUpdateImperative(PP).Seconds);
    R.add("fixpoint.vs_imperative", ratio(SolveS, median(ImpS)), "x");
    double Ns = vmNsPerCall(Inst->C, vmProbes());
    R.add("vm.ns_per_call", Ns, "ns");
    R.add("vm.share", ratio(double(FirstSolve.VmCalls) * Ns * 1e-9, SolveS),
          "ratio");
    R.add("incremental.initial_solve_ms", median(InitialSolveMs), "ms",
          InitialSolveMs.size());
    Updates.report(R);
    R.note("solver", "ParallelSolver");
    R.note("input_facts", std::to_string(PP.factCount()));
  }

private:
  static constexpr int UpdatesPerCycle = 24;
  static constexpr size_t LocalEditCells = 16;

  void solveAndQuery(Tracer &Tr, Samples &S, Result &R) {
    double W0 = now(), C0 = cpuNow();
    int Sp = Tr.begin("parallel.solve");
    solveWith(Inst->C.program(), solveOptions(),
              [&](const auto &Sv, const SolveStats &St) {
                Tr.end(Sp);
                S.SolveCpu.add((cpuNow() - C0) * 1e3);
                S.Solve.add((now() - W0) * 1e3);
                if (!HaveFirstSolve) {
                  FirstSolve = St;
                  HaveFirstSolve = true;
                }
                ++R.Attempted;
                {
                  auto Ck = Tr.span("harness.check");
                  if (!St.ok() || Inst->C.interp().hasError() ||
                      St.InterpFallbacks || St.IndexFallbacks ||
                      !(Inst->digest(Sv) == Ref))
                    R.fail("solve: model differs from "
                           "runStrongUpdateImperative");
                }
                timePointQueries(Sv, Inst->F, Inst->Pt, QueryKeys, NextQuery,
                                 RefSet, Tr, S, R);
                return 0;
              });
  }

  /// One update: retracts the extra AddrOf fact of the previous update
  /// and adds a new one the input lacks, in one batch. The new fact is a
  /// local edit: added to the input, it changes at most LocalEditCells Pt
  /// and PtH cells of the reference model. Unfiltered, one edit in ten
  /// rewrites hundreds of cells and takes 100x the median update, so a
  /// run's p90 would be set by a handful of draws.
  void rewireAddrOf(Tracer &Tr, Samples &S, Result &R) {
    std::pair<int, int> Fact;
    SuDigest Expect;
    {
      auto Sp = Tr.span("reference.imperative");
      for (;;) {
        Fact = {int(Rng() % PP.NumVars), int(Rng() % PP.NumObjs)};
        if (AddrOfSet.count(packKey(Fact.first, Fact.second)) ||
            (!Extra.empty() && Extra.front() == Fact))
          continue;
        Shifted.AddrOf.push_back(Fact);
        StrongUpdateResult Imp = runStrongUpdateImperative(Shifted);
        Shifted.AddrOf.pop_back();
        if (changedCells(Base, Imp) <= LocalEditCells) {
          Expect = digestOf(Imp);
          break;
        }
      }
    }
    auto row = [this](std::pair<int, int> F) {
      return std::array<Value, 2>{Inst->F.integer(F.first),
                                  Inst->F.integer(F.second)};
    };
    for (auto Old : Extra)
      IS->retractFact(Inst->AddrOf, row(Old));
    IS->addFact(Inst->AddrOf, row(Fact));
    Extra = {Fact};
    timedUpdate(Expect, Tr, S, R);
  }

  void timedUpdate(const SuDigest &Expect, Tracer &Tr, Samples &S,
                   Result &R) {
    UpdateStats U;
    double T0 = now();
    {
      auto Sp = Tr.span("incremental.update");
      U = IS->update();
    }
    S.Update.add((now() - T0) * 1e3);
    Updates.record(U);
    ++R.Attempted;
    auto Ck = Tr.span("harness.check");
    if (!U.ok() || U.NegationFallbacks || U.InterpFallbacks ||
        U.IndexFallbacks || Inst->C.interp().hasError() ||
        !(Inst->digest(*IS) == Expect))
      R.fail("update: model differs from runStrongUpdateImperative");
  }

  /// The lattice defs and the filter, called with SULattice values
  /// sampled from the solved model.
  std::vector<VmProbe> vmProbes() {
    ValueFactory &F = Inst->F;
    std::vector<Value> Lats = {F.tag("SULattice.Bottom"),
                               F.tag("SULattice.Top")};
    const Table &T = IS->table(Inst->SUAfter);
    for (const Table::Row &Row : T.rows()) {
      if (Lats.size() >= 32)
        break;
      if (!(Row.Lat == T.botValue()))
        Lats.push_back(Row.Lat);
    }
    std::vector<std::vector<Value>> Pairs, Filters;
    for (size_t I = 0; I < Lats.size(); ++I) {
      Pairs.push_back({Lats[I], Lats[(I * 7 + 3) % Lats.size()]});
      Filters.push_back({Lats[I], F.integer(int64_t(I) % PP.NumObjs)});
    }
    return {{"leq", Pairs}, {"lub", Pairs}, {"filter", Filters}};
  }

  PointerProgram PP;
  PointerProgram Shifted; ///< PP plus one candidate edit (reference)
  std::string Source;
  std::mt19937_64 Rng;
  StrongUpdateResult Base; ///< the reference model of PP
  SuDigest Ref;
  std::unordered_set<uint64_t> RefSet, AddrOfSet;
  std::vector<std::pair<int, int>> QueryKeys;
  size_t NextQuery = 0;

  std::unique_ptr<Compiled> Inst; ///< declared before IS, which reads it
  std::unique_ptr<IncrementalSolver> IS;
  std::vector<std::pair<int, int>> Extra; ///< extra AddrOf fact IS holds

  std::vector<double> CompileMs, FactLoadMs, InitialSolveMs;
  SolveStats FirstSolve;
  bool HaveFirstSolve = false;
  UpdateCounts Updates;
};

} // namespace

Result runSuSourcePar2(const RunConfig &C) {
  return runWorkload<SuWorkload>(C, /*SetupEvery=*/4);
}

} // namespace perfbench
