//===- tests/ParallelSolverTest.cpp - Round executor differential tests ---===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// Differential tests for the work-stealing round executor: on every
/// program we can generate, a Solver with NumThreads > 0 must compute a
/// model value-identical to the in-place Solver (NumThreads = 0) at any
/// worker count. Both share the program's hash-consing ValueFactory, so
/// "identical" is exact handle equality, not just structural equality;
/// only row insertion order may differ, so models are compared as sorted
/// Interpretations.
///
/// Covered: random core-fragment programs (seeded), the §3.7 compactness
/// example, all four paper case studies (Strong Update incl. the
/// interpreted-FLIX-source pipeline, IFDS, IDE, shortest paths), several
/// threaded solvers running concurrently against one shared factory, the
/// timeout path, and provenance through the round executor's merge.
///
//===----------------------------------------------------------------------===//

#include "analyses/Ide.h"
#include "analyses/Ifds.h"
#include "analyses/ShortestPaths.h"
#include "analyses/StrongUpdate.h"
#include "fixpoint/ModelTheory.h"
#include "fixpoint/Solver.h"
#include "workload/GraphWorkload.h"
#include "workload/IcfgWorkload.h"
#include "workload/PointerWorkload.h"
#include "workload/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

using namespace flix;

namespace {

/// Extracts a solver's model as a sorted Interpretation.
Interpretation modelOf(const Program &P, const Solver &S) {
  Interpretation I;
  for (PredId Pred = 0; Pred < P.predicates().size(); ++Pred)
    for (const std::vector<Value> &Tup : S.tuples(Pred)) {
      GroundAtom GA;
      GA.Pred = Pred;
      GA.Args = Tup;
      I.push_back(std::move(GA));
    }
  std::sort(I.begin(), I.end());
  return I;
}

class ParallelSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelSeedTest, MatchesSequentialAtAllThreadCounts) {
  RandomProgramOptions Opts;
  Opts.NumRelations = 2;
  Opts.NumLatPredicates = 2;
  Opts.NumRules = 6;
  Opts.NumFacts = 6;
  Opts.NumConstants = 3;
  RandomProgramBundle B = generateRandomProgram(GetParam(), Opts);

  Solver Seq(*B.Prog);
  ASSERT_TRUE(Seq.solve().ok());
  Interpretation Expected = modelOf(*B.Prog, Seq);

  for (unsigned Threads : {1u, 2u, 8u}) {
    SolverOptions PO;
    PO.NumThreads = Threads;
    // Every (pred, mask) the workers probe must have been pre-built by
    // Solver::prepareIndexes (debug builds assert on a miss).
    Solver Par(*B.Prog, PO);
    SolveStats St = Par.solve();
    ASSERT_TRUE(St.ok()) << St.Error;
    EXPECT_EQ(St.IndexFallbacks, 0u) << "threads=" << Threads;
    EXPECT_EQ(modelOf(*B.Prog, Par), Expected)
        << "threads=" << Threads << "\nprogram:\n"
        << B.Prog->dump();
  }
}

TEST_P(ParallelSeedTest, ReorderAndNoIndexDoNotChangeResults) {
  RandomProgramOptions Opts;
  Opts.NumRules = 5;
  Opts.NumFacts = 5;
  Opts.NumConstants = 3;
  RandomProgramBundle B = generateRandomProgram(GetParam() * 131 + 9, Opts);

  Solver Seq(*B.Prog);
  ASSERT_TRUE(Seq.solve().ok());
  Interpretation Expected = modelOf(*B.Prog, Seq);

  // CostBasedPlans off keeps the written (driver-first) join orders; on
  // lets the planner reorder them.
  for (bool CostBased : {false, true})
    for (bool UseIndexes : {false, true}) {
      SolverOptions PO;
      PO.NumThreads = 2;
      PO.CostBasedPlans = CostBased;
      PO.UseIndexes = UseIndexes;
      Solver Par(*B.Prog, PO);
      ASSERT_TRUE(Par.solve().ok());
      EXPECT_EQ(modelOf(*B.Prog, Par), Expected)
          << "cost-based=" << CostBased << " indexes=" << UseIndexes
          << "\nprogram:\n"
          << B.Prog->dump();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSeedTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(ParallelSolverTest, SemiNaiveCompactnessExample) {
  // §3.7: A(Odd). B(Even). A(x) :- B(x). R(x) :- isMaybeZero(x), A(x).
  // The A cell joins to Top and R must see the joined value, also when
  // rounds are evaluated against immutable snapshots.
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId A = P.lattice("A", 1, &L);
  PredId B = P.lattice("B", 1, &L);
  PredId R = P.lattice("R", 1, &L);
  FnId IsMaybeZero = P.function(
      "isMaybeZero", 1, FnRole::Filter, [&](std::span<const Value> Args) {
        return F.boolean(L.isMaybeZero(Args[0]));
      });
  P.addLatFact(A, std::initializer_list<Value>{}, L.odd());
  P.addLatFact(B, std::initializer_list<Value>{}, L.even());
  RuleBuilder().head(A, {"x"}).atom(B, {"x"}).addTo(P);
  RuleBuilder()
      .head(R, {"x"})
      .atom(A, {"x"})
      .filter(IsMaybeZero, {"x"})
      .addTo(P);

  SolverOptions Opts;
  Opts.NumThreads = 2;
  Solver S(P, Opts);
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.latValue(A, std::initializer_list<Value>{}), L.top());
  EXPECT_EQ(S.latValue(R, std::initializer_list<Value>{}), L.top());
}

TEST(ParallelSolverTest, NaiveStrategyFallsBackToSemiNaive) {
  RandomProgramOptions Opts;
  Opts.NumRules = 5;
  Opts.NumFacts = 5;
  RandomProgramBundle B = generateRandomProgram(4242, Opts);

  SolverOptions SeqNaive;
  SeqNaive.Strat = Strategy::Naive;
  Solver Seq(*B.Prog, SeqNaive);
  ASSERT_TRUE(Seq.solve().ok());

  SolverOptions ParNaive;
  ParNaive.Strat = Strategy::Naive;
  ParNaive.NumThreads = 2;
  Solver Par(*B.Prog, ParNaive);
  ASSERT_TRUE(Par.solve().ok());
  EXPECT_EQ(modelOf(*B.Prog, Par), modelOf(*B.Prog, Seq));
}

TEST(ParallelSolverTest, ProvenanceExplainsEveryDerivedRow) {
  // With TrackProvenance the executor's merge writes one Derivation per
  // changed cell. At any worker count every derived row must name a rule
  // with its head predicate, and every premise must be in the model at a
  // value ⊑ the premise cell's current value. The low spill threshold
  // routes premise prefixes through spilled sub-tasks too.
  WeightedGraph G = generateGraph(11, 60, 3.0, 9);
  ValueFactory F;
  MinCostLattice L(F);
  Program P(F);
  PredId Edge = P.relation("Edge", 3);
  PredId Path = P.relation("Path", 2);
  PredId Dist = P.lattice("Dist", 2, &L);
  FnId Add = P.function("addCost", 2, FnRole::Transfer,
                        [&L](std::span<const Value> A) {
                          return L.addCost(A[0], A[1].asInt());
                        });
  RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y", "c"}).addTo(P);
  RuleBuilder()
      .head(Path, {"x", "z"})
      .atom(Path, {"x", "y"})
      .atom(Edge, {"y", "z", "c"})
      .addTo(P);
  RuleBuilder()
      .headFn(Dist, {rv("y")}, Add, {rv("d"), rv("c")})
      .atom(Dist, {"x", "d"})
      .atom(Edge, {"x", "y", "c"})
      .addTo(P);
  P.addLatFact(Dist, {F.integer(0)}, L.cost(0));
  for (const std::array<int, 3> &E : G.Edges)
    P.addFact(Edge, {F.integer(E[0]), F.integer(E[1]), F.integer(E[2])});

  for (unsigned Threads : {2u, 8u}) {
    SolverOptions O;
    O.NumThreads = Threads;
    O.TrackProvenance = true;
    O.SpillThreshold = 4;
    Solver S(P, O);
    SolveStats St = S.solve();
    ASSERT_TRUE(St.ok()) << St.Error;
    size_t Explained = 0;
    for (PredId Pred : {Path, Dist}) {
      unsigned KA = P.predicate(Pred).keyArity();
      for (const std::vector<Value> &Row : S.tuples(Pred)) {
        std::span<const Value> Key(Row.data(), KA);
        const Derivation *D = S.explain(Pred, Key);
        ASSERT_NE(D, nullptr) << "threads=" << Threads;
        if (Pred == Dist && Key[0] == F.integer(0))
          continue; // the source fact; no rule can lower a zero cost
        ASSERT_NE(D->RuleIndex, Derivation::FromFact)
            << "threads=" << Threads;
        EXPECT_EQ(P.rules()[D->RuleIndex].Head.Pred, Pred);
        EXPECT_FALSE(D->Premises.empty());
        for (const Derivation::Premise &Pr : D->Premises) {
          const Table &T = S.table(Pr.Pred);
          uint32_t PremRow = T.lookupRow(Pr.Key);
          ASSERT_NE(PremRow, Table::NoRow) << "threads=" << Threads;
          EXPECT_TRUE(T.lattice().leq(Pr.LatValue, T.row(PremRow).Lat))
              << "threads=" << Threads;
        }
        ++Explained;
      }
    }
    EXPECT_GT(Explained, 0u);
  }
}

TEST(ParallelSolverTest, TimeoutAborts) {
  // All-pairs shortest paths on a dense-ish graph with an (effectively)
  // zero deadline: the solve must stop with Timeout, not run to the
  // fixpoint.
  WeightedGraph G = generateGraph(7, 300, 8.0, 10);
  ValueFactory F;
  MinCostLattice L(F);
  Program P(F);
  PredId Edge = P.relation("Edge", 3);
  PredId Node = P.relation("Node", 1);
  PredId Dist = P.lattice("Dist", 3, &L);
  FnId Add = P.function("addCost", 2, FnRole::Transfer,
                        [&L](std::span<const Value> A) {
                          if (L.isInfinity(A[0]))
                            return L.infinity();
                          return L.addCost(A[0], A[1].asInt());
                        });
  RuleBuilder()
      .head(Dist, {"s", "s", RuleBuilder::Spec(L.cost(0))})
      .atom(Node, {"s"})
      .addTo(P);
  RuleBuilder()
      .headFn(Dist, {"s", "z"}, Add, {"d", "c"})
      .atom(Dist, {"s", "y", "d"})
      .atom(Edge, {"y", "z", "c"})
      .addTo(P);
  for (int V = 0; V < G.NumNodes; ++V)
    P.addFact(Node, {F.integer(V)});
  for (const auto &E : G.Edges)
    P.addFact(Edge, {F.integer(E[0]), F.integer(E[1]), F.integer(E[2])});

  SolverOptions Opts;
  Opts.NumThreads = 2;
  Opts.TimeLimitSeconds = 1e-6;
  Solver S(P, Opts);
  SolveStats St = S.solve();
  EXPECT_EQ(St.St, SolveStats::Status::Timeout);
}

/// Transitive closure over a star graph: hub node 0 has \p Fanout
/// outgoing edges plus a few feeder nodes pointing at it, so delta rounds
/// funnel through one hot Edge bucket — the skew the intra-rule spill
/// path exists to break up.
struct SkewedWorkload {
  ValueFactory F;
  Program P{F};
  PredId Edge, Path;

  explicit SkewedWorkload(int Fanout) {
    Edge = P.relation("Edge", 2);
    Path = P.relation("Path", 2);
    RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
    RuleBuilder()
        .head(Path, {"x", "z"})
        .atom(Path, {"x", "y"})
        .atom(Edge, {"y", "z"})
        .addTo(P);
    for (int I = 1; I <= Fanout; ++I)
      P.addFact(Edge, {F.integer(0), F.integer(I)});
    for (int Feeder = 0; Feeder < 4; ++Feeder)
      P.addFact(Edge, {F.integer(1000 + Feeder), F.integer(0)});
  }
};

TEST(ParallelSolverTest, SkewedWorkloadSpawnsSubtasksAndMatchesSequential) {
  constexpr int Fanout = 400;
  SkewedWorkload W(Fanout);

  Solver Seq(W.P);
  ASSERT_TRUE(Seq.solve().ok());
  Interpretation Expected = modelOf(W.P, Seq);

  for (unsigned Threads : {1u, 2u, 8u}) {
    SolverOptions PO;
    PO.NumThreads = Threads;
    PO.SpillThreshold = 16; // force splitting on the hub bucket
    Solver Par(W.P, PO);
    SolveStats St = Par.solve();
    ASSERT_TRUE(St.ok()) << St.Error;
    // The hub bucket (Fanout rows, threshold 16) must have been split.
    EXPECT_GT(St.SpawnedSubtasks, 0u) << "threads=" << Threads;
    EXPECT_GE(St.MaxFanout, 2u) << "threads=" << Threads;
    EXPECT_EQ(St.IndexFallbacks, 0u) << "threads=" << Threads;
    EXPECT_EQ(modelOf(W.P, Par), Expected) << "threads=" << Threads;
  }
}

TEST(ParallelSolverTest, SpillThresholdSweepSameModel) {
  SkewedWorkload W(200);
  Solver Seq(W.P);
  ASSERT_TRUE(Seq.solve().ok());
  Interpretation Expected = modelOf(W.P, Seq);

  for (uint32_t Thresh : {0u, 4u, 64u, 1024u}) {
    SolverOptions PO;
    PO.NumThreads = 2;
    PO.SpillThreshold = Thresh;
    Solver Par(W.P, PO);
    SolveStats St = Par.solve();
    ASSERT_TRUE(St.ok()) << St.Error;
    if (Thresh == 0) {
      EXPECT_EQ(St.SpawnedSubtasks, 0u) << "spilling disabled";
    }
    EXPECT_EQ(modelOf(W.P, Par), Expected) << "threshold=" << Thresh;
  }
}

TEST(ParallelSolverTest, SingleRowFanoutBombTimesOut) {
  // One driver row whose body explodes into a Cartesian product of
  // 300^3 = 27M matches. Abort checks run per match (not per driver
  // row), so the solve must stop near the deadline at every thread
  // count instead of grinding through the product (regression for the
  // timeout-overshoot bug).
  constexpr int N = 300;
  ValueFactory F;
  Program P(F);
  PredId S = P.relation("S", 1);
  PredId A = P.relation("A", 1);
  PredId B = P.relation("B", 1);
  PredId C = P.relation("C", 1);
  PredId Bomb = P.relation("Bomb", 3);
  RuleBuilder()
      .head(Bomb, {"x", "y", "z"})
      .atom(S, {"w"})
      .atom(A, {"x"})
      .atom(B, {"y"})
      .atom(C, {"z"})
      .addTo(P);
  P.addFact(S, {F.integer(0)});
  for (int I = 0; I < N; ++I) {
    P.addFact(A, {F.integer(I)});
    P.addFact(B, {F.integer(I)});
    P.addFact(C, {F.integer(I)});
  }

  for (unsigned Threads : {1u, 8u}) {
    SolverOptions Opts;
    Opts.NumThreads = Threads;
    Opts.TimeLimitSeconds = 0.05;
    Opts.SpillThreshold = 64; // also cover abort inside spawned sub-tasks
    Solver Sol(P, Opts);
    SolveStats St = Sol.solve();
    EXPECT_EQ(St.St, SolveStats::Status::Timeout) << "threads=" << Threads;
    // Tolerance is generous (sanitizer builds are slow), but far below
    // the full product's run time.
    EXPECT_LT(St.Seconds, 5.0) << "threads=" << Threads;
    EXPECT_LT(St.RuleFirings, uint64_t(N) * N * N) << "threads=" << Threads;
  }
}

TEST(ParallelSolverTest, KeyArity64RejectedWithDiagnostic) {
  // 64 key columns would shift a uint64_t by 64 in the bound-mask
  // computation (UB); both solvers must reject the program at solve()
  // with a diagnostic instead (regression for the mask-overflow bug).
  ValueFactory F;
  Program P(F);
  P.relation("Wide", 64);

  SolverOptions PO;
  PO.NumThreads = 2;
  Solver Par(P, PO);
  SolveStats St = Par.solve();
  EXPECT_EQ(St.St, SolveStats::Status::Error);
  EXPECT_NE(St.Error.find("Wide"), std::string::npos);
  EXPECT_NE(St.Error.find("key arity 64"), std::string::npos);

  Solver Seq(P);
  SolveStats SeqSt = Seq.solve();
  EXPECT_EQ(SeqSt.St, SolveStats::Status::Error);
  EXPECT_NE(SeqSt.Error.find("key arity 64"), std::string::npos);
}

TEST(ParallelSolverTest, IndexesArePrebuiltBeforeRoundZero) {
  // Workers never build an index, so every mask the plans probe must
  // exist before the first eval phase. A time limit that has passed by
  // the time the facts are loaded stops the solve at round 0's first row
  // check, so any index found afterwards was built before round 0.
  SkewedWorkload W(300);
  SolverOptions PO;
  PO.NumThreads = 4;
  PO.TimeLimitSeconds = 1e-9;
  Solver Cut(W.P, PO);
  EXPECT_EQ(Cut.solve().St, SolveStats::Status::Timeout);
  // Both rules' non-driver atoms probe partially bound patterns.
  EXPECT_GE(Cut.table(W.Edge).numIndexes(), 1u);
  EXPECT_GE(Cut.table(W.Path).numIndexes(), 1u);

  // Run to the fixpoint, those indexes serve every probe.
  PO.TimeLimitSeconds = 0;
  Solver S(W.P, PO);
  SolveStats St = S.solve();
  ASSERT_TRUE(St.ok()) << St.Error;
  EXPECT_EQ(St.IndexFallbacks, 0u);
}

TEST(ParallelSolverTest, StatsAreReported) {
  RandomProgramOptions Opts;
  Opts.NumRules = 6;
  Opts.NumFacts = 6;
  RandomProgramBundle B = generateRandomProgram(99, Opts);

  SolverOptions PO;
  PO.NumThreads = 2;
  Solver S(*B.Prog, PO);
  SolveStats St = S.solve();
  ASSERT_TRUE(St.ok());
  EXPECT_GT(St.ParallelTasks, 0u);
  EXPECT_GT(St.Iterations, 0u);
  EXPECT_GT(St.Seconds, 0.0);
  // Compiled plans are on by default and every rule lowers to >= 1 step.
  EXPECT_GT(St.PlanSteps, 0u);
}

TEST(ParallelSolverTest, ConcurrentSolversSharedFactory) {
  // Several Solver instances over programs that share ONE
  // factory, solved from concurrent host threads: exercises the
  // lock-sharded interning path from many pools at once.
  ValueFactory F;
  F.enableConcurrentInterning();

  constexpr int NumPrograms = 4;
  constexpr int Chain = 24;
  std::vector<std::unique_ptr<Program>> Programs;
  std::vector<PredId> PathIds;
  for (int PI = 0; PI < NumPrograms; ++PI) {
    auto P = std::make_unique<Program>(F);
    PredId Edge = P->relation("Edge", 2);
    PredId Path = P->relation("Path", 2);
    RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(*P);
    RuleBuilder()
        .head(Path, {"x", "z"})
        .atom(Path, {"x", "y"})
        .atom(Edge, {"y", "z"})
        .addTo(*P);
    // A chain with a program-specific offset so the threads keep
    // interning fresh integers while running.
    for (int I = 0; I < Chain; ++I)
      P->addFact(Edge, {F.integer(PI * 1000 + I),
                        F.integer(PI * 1000 + I + 1)});
    PathIds.push_back(Path);
    Programs.push_back(std::move(P));
  }

  std::vector<size_t> PathCounts(NumPrograms, 0);
  // Not vector<bool>: adjacent bit-packed elements would race.
  std::vector<char> SolveOk(NumPrograms, 0);
  std::vector<std::thread> Hosts;
  for (int PI = 0; PI < NumPrograms; ++PI)
    Hosts.emplace_back([&, PI] {
      SolverOptions Opts;
      Opts.NumThreads = 2;
      Solver S(*Programs[PI], Opts);
      SolveOk[PI] = S.solve().ok();
      PathCounts[PI] = S.table(PathIds[PI]).size();
    });
  for (std::thread &T : Hosts)
    T.join();

  // A chain of N edges has N*(N+1)/2 transitive-closure pairs.
  for (int PI = 0; PI < NumPrograms; ++PI) {
    EXPECT_TRUE(SolveOk[PI]) << "program " << PI;
    EXPECT_EQ(PathCounts[PI], static_cast<size_t>(Chain) * (Chain + 1) / 2)
        << "program " << PI;
  }
}

// ---- Paper case studies: threaded vs in place ---------------------------

TEST(ParallelCaseStudyTest, StrongUpdateNative) {
  PointerProgram In = generatePointerProgram(2016, 1500);
  StrongUpdateResult Seq = runStrongUpdateFlix(In, SolverOptions());
  ASSERT_TRUE(Seq.ok()) << Seq.Error;
  for (unsigned Threads : {1u, 2u, 8u}) {
    SolverOptions Opts;
    Opts.NumThreads = Threads;
    StrongUpdateResult Par = runStrongUpdateFlix(In, Opts);
    ASSERT_TRUE(Par.ok()) << Par.Error;
    EXPECT_TRUE(Par.samePointsTo(Seq)) << "threads=" << Threads;
  }
}

TEST(ParallelCaseStudyTest, StrongUpdateInterpretedSource) {
  // The FLIX-source pipeline funnels every lattice operation through the
  // interpreter; with NumThreads > 0 it runs in thread-safe mode.
  PointerProgram In = generatePointerProgram(7, 600);
  StrongUpdateResult Seq = runStrongUpdateFlixSource(In, SolverOptions());
  ASSERT_TRUE(Seq.ok()) << Seq.Error;
  SolverOptions Opts;
  Opts.NumThreads = 2;
  StrongUpdateResult Par = runStrongUpdateFlixSource(In, Opts);
  ASSERT_TRUE(Par.ok()) << Par.Error;
  EXPECT_TRUE(Par.samePointsTo(Seq));
}

TEST(ParallelCaseStudyTest, StrongUpdateInterpretedSourceUnserialized) {
  // Regression: compiled-FLIX programs used to need a global lock around
  // every external call to run on the round executor, because the
  // interpreter kept per-call state in members. The
  // interpreter is now intrinsically thread-safe, so workers may call a
  // shared Interp concurrently with no lock. Memoization is disabled so
  // every lattice operation actually re-enters the interpreter instead
  // of being absorbed by the cache.
  PointerProgram In = generatePointerProgram(41, 800);
  StrongUpdateResult Seq = runStrongUpdateFlixSource(In, SolverOptions());
  ASSERT_TRUE(Seq.ok()) << Seq.Error;
  for (unsigned Threads : {2u, 8u}) {
    SolverOptions Opts;
    Opts.NumThreads = Threads;
    Opts.EnableMemo = false;
    StrongUpdateResult Par = runStrongUpdateFlixSource(In, Opts);
    ASSERT_TRUE(Par.ok()) << Par.Error;
    EXPECT_TRUE(Par.samePointsTo(Seq)) << "threads=" << Threads;
  }
}

TEST(ParallelCaseStudyTest, StrongUpdateInterpretedSourceMemoized) {
  // Same pipeline with the memo cache on: concurrent workers populate
  // and hit the sharded cache, the model is unchanged, and the solve
  // reports cache traffic in the stats.
  PointerProgram In = generatePointerProgram(41, 800);
  StrongUpdateResult Seq = runStrongUpdateFlixSource(In, SolverOptions());
  ASSERT_TRUE(Seq.ok()) << Seq.Error;
  SolverOptions Opts;
  Opts.NumThreads = 8;
  StrongUpdateResult Par = runStrongUpdateFlixSource(In, Opts);
  ASSERT_TRUE(Par.ok()) << Par.Error;
  EXPECT_TRUE(Par.samePointsTo(Seq));
}

TEST(ParallelCaseStudyTest, Ifds) {
  IcfgProgram G = generateIcfg(2016, 12, 40, 120, 3);
  IfdsProblem Prob = G.toIfdsProblem();
  IfdsResult Imp = runIfdsImperative(Prob);
  IfdsResult Seq = runIfdsFlix(Prob);
  ASSERT_TRUE(Seq.Ok) << Seq.Error;
  EXPECT_TRUE(Seq.sameResult(Imp));
  for (unsigned Threads : {1u, 2u, 8u}) {
    SolverOptions Opts;
    Opts.NumThreads = Threads;
    IfdsResult Par = runIfdsFlix(Prob, Opts);
    ASSERT_TRUE(Par.Ok) << Par.Error;
    EXPECT_TRUE(Par.sameResult(Seq)) << "threads=" << Threads;
  }
}

TEST(ParallelCaseStudyTest, Ide) {
  IcfgProgram G = generateIcfg(99, 8, 30, 80, 3);
  IdeProblem Prob = G.toIdeProblem();
  IdeResult Seq = runIdeFlix(Prob);
  ASSERT_TRUE(Seq.Ok) << Seq.Error;
  SolverOptions Opts;
  Opts.NumThreads = 2;
  IdeResult Par = runIdeFlix(Prob, Opts);
  ASSERT_TRUE(Par.Ok) << Par.Error;
  EXPECT_EQ(Par.Values, Seq.Values);
  EXPECT_EQ(Par.Reachable, Seq.Reachable);
}

TEST(ParallelCaseStudyTest, ShortestPaths) {
  WeightedGraph G = generateGraph(5, 400, 4.0, 20);
  SsspResult Ref = runDijkstra(G, 0);
  for (unsigned Threads : {2u, 8u}) {
    SolverOptions Opts;
    Opts.NumThreads = Threads;
    SsspResult Par = runShortestPathsFlix(G, 0, Opts);
    ASSERT_TRUE(Par.Ok);
    EXPECT_EQ(Par.Dist, Ref.Dist) << "threads=" << Threads;
  }
}

} // namespace
