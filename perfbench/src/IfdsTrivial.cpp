//===- perfbench/src/IfdsTrivial.cpp - Engine-bound IFDS workload ---------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// Workload ifds_trivial: Table 2's Figure 5 IFDS formulation with native
// flow-function binders and trivial flow (TransferWork = 0) on the antlr
// DaCapo preset, solved by the sequential Solver. Almost all of its time
// is the engine's own join, table, hash-cons and delta work; no FLIX
// source, VM, worker pool or server is involved.
//
// Set-up builds the program through the public Program / RuleBuilder API
// (as runIfdsFlix does), loads its facts, and runs the initial solve of
// an IncrementalSolver over it. Each cycle then times
//   * one full solve by a fresh Solver                 (solve_p50_ms),
//   * point queries Result(n, d) on the solved model    (query_p50_ms),
//   * incremental updates, each one batch that retracts (update_p*_ms)
//     the previous update's extra IFDS seeds PathEdge(d, start(p), d)
//     and adds BatchSeeds new ones.
// Every output is checked against runIfdsImperative, the hand-written
// tabulation solver.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Samples.h"

#include "parallel/Dispatch.h"
#include "workload/IcfgWorkload.h"

#include <array>
#include <memory>
#include <random>

using namespace flix;

namespace perfbench {
namespace {

PairDigest imperativeDigest(const IfdsProblem &Prob) {
  PairDigest D;
  for (auto [N, Fact] : runIfdsImperative(Prob).Result)
    D.add(N, Fact);
  return D;
}

/// Figure 5 over one IFDS problem: the rules and facts of runIfdsFlix.
struct Fig5 {
  ValueFactory F;
  Program P{F};
  PredId Cfg, CallGraph, StartNode, EndNode, PathEdge, SummaryEdge,
      EshCallStart, Result;

  Fig5(const IfdsProblem &In, Tracer &Tr, double &FactLoadSeconds) {
    {
      auto Sp = Tr.span("fixpoint.program");
      Cfg = P.relation("CFG", 2);
      CallGraph = P.relation("CallGraph", 2);
      StartNode = P.relation("StartNode", 2);
      EndNode = P.relation("EndNode", 2);
      PathEdge = P.relation("PathEdge", 3);
      SummaryEdge = P.relation("SummaryEdge", 3);
      EshCallStart = P.relation("EshCallStart", 4);
      Result = P.relation("Result", 2);

      auto toSet = [this](const std::vector<int> &Ds) {
        std::vector<Value> Out;
        Out.reserve(Ds.size());
        for (int D : Ds)
          Out.push_back(F.integer(D));
        return F.set(std::move(Out));
      };
      auto arg = [](std::span<const Value> A, size_t I) {
        return static_cast<int>(A[I].asInt());
      };
      FnId Intra = P.function(
          "eshIntra", 2, FnRole::Binder,
          [&In, toSet, arg](std::span<const Value> A) {
            std::vector<int> Tmp;
            In.EshIntra(arg(A, 0), arg(A, 1), Tmp);
            return toSet(Tmp);
          });
      FnId CallStart = P.function(
          "eshCallStart", 3, FnRole::Binder,
          [&In, toSet, arg](std::span<const Value> A) {
            std::vector<int> Tmp;
            In.EshCallStart(arg(A, 0), arg(A, 1), arg(A, 2), Tmp);
            return toSet(Tmp);
          });
      FnId EndReturn = P.function(
          "eshEndReturn", 3, FnRole::Binder,
          [&In, toSet, arg](std::span<const Value> A) {
            std::vector<int> Tmp;
            In.EshEndReturn(arg(A, 0), arg(A, 1), arg(A, 2), Tmp);
            return toSet(Tmp);
          });

      RuleBuilder()
          .head(PathEdge, {"d1", "m", "d3"})
          .atom(Cfg, {"n", "m"})
          .atom(PathEdge, {"d1", "n", "d2"})
          .bind({"d3"}, Intra, {"n", "d2"})
          .addTo(P);
      RuleBuilder()
          .head(PathEdge, {"d1", "m", "d3"})
          .atom(Cfg, {"n", "m"})
          .atom(PathEdge, {"d1", "n", "d2"})
          .atom(SummaryEdge, {"n", "d2", "d3"})
          .addTo(P);
      RuleBuilder()
          .head(PathEdge, {"d3", "start", "d3"})
          .atom(PathEdge, {"d1", "call", "d2"})
          .atom(CallGraph, {"call", "target"})
          .atom(EshCallStart, {"call", "d2", "target", "d3"})
          .atom(StartNode, {"target", "start"})
          .addTo(P);
      RuleBuilder()
          .head(SummaryEdge, {"call", "d4", "d5"})
          .atom(CallGraph, {"call", "target"})
          .atom(StartNode, {"target", "start"})
          .atom(EndNode, {"target", "end"})
          .atom(EshCallStart, {"call", "d4", "target", "d1"})
          .atom(PathEdge, {"d1", "end", "d2"})
          .bind({"d5"}, EndReturn, {"target", "d2", "call"})
          .addTo(P);
      RuleBuilder()
          .head(EshCallStart, {"call", "d", "target", "d2"})
          .atom(PathEdge, {"_", "call", "d"})
          .atom(CallGraph, {"call", "target"})
          .bind({"d2"}, CallStart, {"call", "d", "target"})
          .addTo(P);
      RuleBuilder()
          .head(Result, {"n", "d2"})
          .atom(PathEdge, {"_", "n", "d2"})
          .addTo(P);
    }

    double T0 = now();
    auto Sp = Tr.span("lang.fact_load");
    auto N = [this](int I) { return F.integer(I); };
    for (auto [A, B] : In.CfgEdges)
      P.addFact(Cfg, {N(A), N(B)});
    for (auto [A, B] : In.CallEdges)
      P.addFact(CallGraph, {N(A), N(B)});
    for (int Proc = 0; Proc < In.NumProcs; ++Proc) {
      P.addFact(StartNode, {N(Proc), N(In.StartNodes[Proc])});
      P.addFact(EndNode, {N(Proc), N(In.EndNodes[Proc])});
    }
    for (auto [Node, D] : In.Seeds)
      P.addFact(PathEdge, {N(D), N(Node), N(D)});
    FactLoadSeconds = now() - T0;
  }
  Fig5(const Fig5 &) = delete;
  Fig5 &operator=(const Fig5 &) = delete;
};

class IfdsWorkload {
public:
  static constexpr unsigned Threads = 1;

  explicit IfdsWorkload(const RunConfig &C)
      : Icfg(renameIcfg(C.Tiny ? generateIcfg(BaseInstanceSeed, 6, 10, 24, 2)
                               : generateIcfg(BaseInstanceSeed, 52, 32, 300, 3),
                        C.Seed)),
        Prob(Icfg.toIfdsProblem()), Shifted(Prob),
        Rng(C.Seed * 0x9e3779b97f4a7c15ULL + 1) {
    IfdsResult Imp = runIfdsImperative(Prob);
    for (auto [N, D] : Imp.Result) {
      Ref.add(N, D);
      RefSet.insert(packKey(N, D));
    }
    // Point queries: half are cells of the model, half random pairs.
    std::vector<std::pair<int, int>> Cells(Imp.Result.begin(),
                                           Imp.Result.end());
    for (size_t I = 0; I < 8192; ++I) {
      if (I % 2 == 0)
        QueryKeys.push_back(Cells[Rng() % Cells.size()]);
      else
        QueryKeys.push_back({int(Rng() % Prob.NumNodes),
                             int(Rng() % Prob.NumFacts)});
    }
  }

  /// One set-up: program, facts, and the incremental engine's initial
  /// solve. Replaces the previous set-up's state.
  double setup(Tracer &Tr, Result &R) {
    IS.reset();
    Inst.reset();
    Extra.clear();
    double T0 = now();
    int Sp = Tr.begin("harness.setup");
    double FactLoad = 0;
    Inst = std::make_unique<Fig5>(Prob, Tr, FactLoad);
    IS = std::make_unique<IncrementalSolver>(Inst->P, SolverOptions());
    UpdateStats U;
    {
      auto S2 = Tr.span("incremental.initial_solve");
      U = IS->update();
    }
    Tr.end(Sp);
    double Seconds = now() - T0;
    FactLoadMs.push_back(FactLoad * 1e3);
    InitialSolveMs.push_back(U.Seconds * 1e3);
    if (!U.ok() || !(digestTable(Inst->F, IS->table(Inst->Result)) == Ref))
      R.fail("set-up: initial incremental solve differs from the reference");
    return Seconds;
  }

  void cycle(Tracer &Tr, Samples &S, Result &R) {
    solveAndQuery(Tr, S, R);
    for (int U = 0; U < UpdatesPerCycle; ++U)
      rewireSeeds(Tr, S, R);
  }

  static const Series &primary(const Samples &S) { return S.Solve; }

  void reportLayers(Result &R, const Samples &S, Tracer &) {
    R.add("lang.fact_load_ms", median(FactLoadMs), "ms", FactLoadMs.size());
    double SolveS = S.Solve.p50() / 1e3;
    addSolveLayerMetrics(R, FirstSolve, SolveS, S.SolveCpu.p50() / 1e3);
    std::vector<double> ImpS;
    for (int I = 0; I < 9; ++I)
      ImpS.push_back(runIfdsImperative(Prob).Seconds);
    R.add("fixpoint.vs_imperative", ratio(SolveS, median(ImpS)), "x");
    R.add("incremental.initial_solve_ms", median(InitialSolveMs), "ms",
          InitialSolveMs.size());
    Updates.report(R);
    R.note("solver", "Solver (sequential)");
    R.note("icfg_nodes", std::to_string(Prob.NumNodes));
    R.note("model_cells", std::to_string(Ref.Count));
  }

private:
  static constexpr int UpdatesPerCycle = 24;
  static constexpr size_t BatchSeeds = 8;

  void solveAndQuery(Tracer &Tr, Samples &S, Result &R) {
    double W0 = now(), C0 = cpuNow();
    int Sp = Tr.begin("fixpoint.solve");
    solveWith(Inst->P, SolverOptions(),
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
                  if (!St.ok() || St.InterpFallbacks || St.IndexFallbacks ||
                      !(digestTable(Inst->F, Sv.table(Inst->Result)) == Ref))
                    R.fail("solve: model differs from runIfdsImperative");
                }
                timePointQueries(Sv, Inst->F, Inst->Result, QueryKeys,
                                 NextQuery, RefSet, Tr, S, R);
                return 0;
              });
  }

  /// One update: retracts the extra seeds of the previous update and adds
  /// BatchSeeds new ones, each PathEdge(d, start(p), d) with d != 0 (the
  /// instance's own seed has d = 0), in one batch.
  void rewireSeeds(Tracer &Tr, Samples &S, Result &R) {
    std::vector<std::pair<int, int>> Next;
    while (Next.size() < BatchSeeds) {
      std::pair<int, int> Seed{Prob.StartNodes[Rng() % Prob.NumProcs],
                               1 + int(Rng() % (Prob.NumFacts - 1))};
      if (std::find(Extra.begin(), Extra.end(), Seed) == Extra.end() &&
          std::find(Next.begin(), Next.end(), Seed) == Next.end())
        Next.push_back(Seed);
    }
    PairDigest Expect;
    {
      auto Sp = Tr.span("reference.imperative");
      Shifted.Seeds = Prob.Seeds;
      Shifted.Seeds.insert(Shifted.Seeds.end(), Next.begin(), Next.end());
      Expect = imperativeDigest(Shifted);
    }
    ValueFactory &F = Inst->F;
    auto row = [&F](std::pair<int, int> Seed) {
      auto [Node, D] = Seed;
      return std::array<Value, 3>{F.integer(D), F.integer(Node), F.integer(D)};
    };
    for (auto Seed : Extra)
      IS->retractFact(Inst->PathEdge, row(Seed));
    for (auto Seed : Next)
      IS->addFact(Inst->PathEdge, row(Seed));
    Extra = std::move(Next);
    timedUpdate(Expect, Tr, S, R);
  }

  void timedUpdate(const PairDigest &Expect, Tracer &Tr, Samples &S,
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
        U.IndexFallbacks ||
        !(digestTable(Inst->F, IS->table(Inst->Result)) == Expect))
      R.fail("update: model differs from runIfdsImperative");
  }

  IcfgProgram Icfg;
  IfdsProblem Prob;
  IfdsProblem Shifted; ///< Prob with the current extra seeds (reference)
  std::mt19937_64 Rng;
  PairDigest Ref;
  std::unordered_set<uint64_t> RefSet;
  std::vector<std::pair<int, int>> QueryKeys;
  size_t NextQuery = 0;

  std::unique_ptr<Fig5> Inst; ///< declared before IS, which reads it
  std::unique_ptr<IncrementalSolver> IS;
  std::vector<std::pair<int, int>> Extra; ///< seeds (node, d) IS holds now

  std::vector<double> FactLoadMs, InitialSolveMs;
  SolveStats FirstSolve;
  bool HaveFirstSolve = false;
  UpdateCounts Updates;
};

} // namespace

Result runIfdsTrivial(const RunConfig &C) {
  return runWorkload<IfdsWorkload>(C, /*SetupEvery=*/6);
}

} // namespace perfbench
