//===- tests/IncrementalSolverTest.cpp - Incremental engine tests ---------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the incremental evaluation subsystem (src/incremental)
// plus randomized differential tests: after every batch of insertions and
// retractions, update() must be per-cell lattice-equal to a from-scratch
// Solver::solve() on the final fact set — on the graph, ICFG and pointer
// workloads, sequentially and with parallel delta rounds.
//
//===----------------------------------------------------------------------===//

#include "incremental/IncrementalSolver.h"

#include "runtime/Lattices.h"
#include "workload/GraphWorkload.h"
#include "workload/IcfgWorkload.h"
#include "workload/PointerWorkload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <unordered_map>

using namespace flix;

namespace {

/// Per-predicate key → lattice value map of the live (non-tombstoned)
/// rows. Incremental and scratch solvers share one ValueFactory, so the
/// interned Value handles compare directly.
using Model = std::vector<std::unordered_map<Value, Value>>;

template <typename SolverT>
Model modelOf(const Program &P, const SolverT &S) {
  Model M(P.predicates().size());
  for (PredId Pr = 0; Pr < P.predicates().size(); ++Pr) {
    const Table &T = S.table(Pr);
    for (const Table::Row &R : T.rows()) {
      if (R.Lat == T.botValue())
        continue;
      M[Pr].emplace(R.Key, R.Lat);
    }
  }
  return M;
}

void expectSameModel(const Program &P, const Model &Inc,
                     const Model &Scratch) {
  ASSERT_EQ(Inc.size(), Scratch.size());
  for (PredId Pr = 0; Pr < Inc.size(); ++Pr) {
    const ValueFactory &F = P.factory();
    EXPECT_EQ(Inc[Pr].size(), Scratch[Pr].size())
        << "row count mismatch in " << P.predicate(Pr).Name;
    for (const auto &[Key, Lat] : Scratch[Pr]) {
      auto It = Inc[Pr].find(Key);
      if (It == Inc[Pr].end()) {
        ADD_FAILURE() << P.predicate(Pr).Name << " missing row "
                      << F.toString(Key);
        continue;
      }
      EXPECT_TRUE(It->second == Lat)
          << P.predicate(Pr).Name << F.toString(Key) << ": incremental "
          << F.toString(It->second) << " vs scratch " << F.toString(Lat);
    }
  }
}

/// Differential check: a from-scratch sequential solve of \p Facts must
/// produce the same model as the incremental solver's current state.
void expectMatchesScratch(const IncrementalSolver &IS,
                          const std::function<Program()> &Build) {
  Program SP = Build();
  Solver SS(SP);
  ASSERT_TRUE(SS.solve().ok());
  expectSameModel(SP, modelOf(SP, IS), modelOf(SP, SS));
}

//===----------------------------------------------------------------------===//
// Units: transitive closure (relational)
//===----------------------------------------------------------------------===//

struct TcCase {
  ValueFactory F;
  PredId Edge = 0, Path = 0;
  std::set<std::pair<int, int>> Edges;

  Program build() {
    Program P(F);
    Edge = P.relation("Edge", 2);
    Path = P.relation("Path", 2);
    RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
    RuleBuilder()
        .head(Path, {"x", "z"})
        .atom(Path, {"x", "y"})
        .atom(Edge, {"y", "z"})
        .addTo(P);
    for (auto [A, B] : Edges)
      P.addFact(Edge, {F.integer(A), F.integer(B)});
    return P;
  }
};

TEST(IncrementalSolverTest, InsertionsResumeSemiNaive) {
  TcCase C;
  C.Edges = {{1, 2}, {2, 3}};
  Program P = C.build();
  IncrementalSolver IS(P);

  UpdateStats U0 = IS.update();
  ASSERT_TRUE(U0.ok());
  EXPECT_FALSE(U0.FullResolve); // initial solve, not a fallback
  EXPECT_TRUE(IS.contains(C.Path, {C.F.integer(1), C.F.integer(3)}));
  EXPECT_FALSE(IS.contains(C.Path, {C.F.integer(1), C.F.integer(4)}));

  IS.addFact(C.Edge, {C.F.integer(3), C.F.integer(4)});
  EXPECT_EQ(IS.pendingMutations(), 1u);
  UpdateStats U1 = IS.update();
  ASSERT_TRUE(U1.ok());
  EXPECT_FALSE(U1.FullResolve);
  EXPECT_EQ(U1.FactsAdded, 1u);
  EXPECT_EQ(U1.CellsDeleted, 0u);
  EXPECT_TRUE(IS.contains(C.Path, {C.F.integer(1), C.F.integer(4)}));
  EXPECT_TRUE(IS.contains(C.Path, {C.F.integer(2), C.F.integer(4)}));
  // 3 rule-derived cells: Path(3,4), Path(2,4), Path(1,4) — the inserted
  // Edge fact itself counts under FactsAdded, not FactsDerived.
  EXPECT_EQ(U1.FactsDerived, 3u);
}

TEST(IncrementalSolverTest, RetractionDeletesDerivedTuples) {
  TcCase C;
  C.Edges = {{1, 2}, {2, 3}, {3, 4}};
  Program P = C.build();
  IncrementalSolver IS(P);
  ASSERT_TRUE(IS.update().ok());

  IS.retractFact(C.Edge, {C.F.integer(2), C.F.integer(3)});
  UpdateStats U = IS.update();
  ASSERT_TRUE(U.ok());
  EXPECT_FALSE(U.FullResolve);
  EXPECT_EQ(U.FactsRetracted, 1u);
  EXPECT_GT(U.CellsDeleted, 0u);
  EXPECT_FALSE(IS.contains(C.Path, {C.F.integer(1), C.F.integer(3)}));
  EXPECT_FALSE(IS.contains(C.Path, {C.F.integer(1), C.F.integer(4)}));
  EXPECT_FALSE(IS.contains(C.Path, {C.F.integer(2), C.F.integer(4)}));
  EXPECT_TRUE(IS.contains(C.Path, {C.F.integer(1), C.F.integer(2)}));
  EXPECT_TRUE(IS.contains(C.Path, {C.F.integer(3), C.F.integer(4)}));
  C.Edges.erase({2, 3});
  expectMatchesScratch(IS, [&] { return C.build(); });
}

TEST(IncrementalSolverTest, AlternativeDerivationSurvivesRetraction) {
  // Path(1,3) is derivable through 2 and through 5; retracting one route
  // must keep it (over-delete kills it, re-derivation restores it).
  TcCase C;
  C.Edges = {{1, 2}, {2, 3}, {1, 5}, {5, 3}};
  Program P = C.build();
  IncrementalSolver IS(P);
  ASSERT_TRUE(IS.update().ok());

  IS.retractFact(C.Edge, {C.F.integer(1), C.F.integer(2)});
  UpdateStats U = IS.update();
  ASSERT_TRUE(U.ok());
  EXPECT_TRUE(IS.contains(C.Path, {C.F.integer(1), C.F.integer(3)}));
  EXPECT_FALSE(IS.contains(C.Path, {C.F.integer(1), C.F.integer(2)}));
  // Whether Path(1,3) was over-deleted and re-derived or never deleted at
  // all depends on which route's join recorded the support edge (only
  // *changed* joins do) — both are sound; the model must match scratch.
  EXPECT_GT(U.CellsDeleted, 0u);
  C.Edges.erase({1, 2});
  expectMatchesScratch(IS, [&] { return C.build(); });
}

TEST(IncrementalSolverTest, RetractThenAddSameBatchNetsToPresent) {
  TcCase C;
  C.Edges = {{1, 2}};
  Program P = C.build();
  IncrementalSolver IS(P);
  ASSERT_TRUE(IS.update().ok());

  // Within one batch retractions apply before additions.
  IS.retractFact(C.Edge, {C.F.integer(1), C.F.integer(2)});
  IS.addFact(C.Edge, {C.F.integer(1), C.F.integer(2)});
  UpdateStats U = IS.update();
  ASSERT_TRUE(U.ok());
  EXPECT_TRUE(IS.contains(C.Edge, {C.F.integer(1), C.F.integer(2)}));
  EXPECT_TRUE(IS.contains(C.Path, {C.F.integer(1), C.F.integer(2)}));
}

TEST(IncrementalSolverTest, UnknownRetractionAndDuplicateAddAreNoops) {
  TcCase C;
  C.Edges = {{1, 2}};
  Program P = C.build();
  IncrementalSolver IS(P);
  ASSERT_TRUE(IS.update().ok());

  IS.retractFact(C.Edge, {C.F.integer(7), C.F.integer(8)});
  IS.addFact(C.Edge, {C.F.integer(1), C.F.integer(2)});
  UpdateStats U = IS.update();
  ASSERT_TRUE(U.ok());
  EXPECT_EQ(U.FactsRetracted, 0u);
  EXPECT_EQ(U.FactsAdded, 0u);
  EXPECT_EQ(U.CellsDeleted, 0u);
  EXPECT_EQ(U.FactsDerived, 0u);
  EXPECT_TRUE(IS.contains(C.Path, {C.F.integer(1), C.F.integer(2)}));
}

TEST(IncrementalSolverTest, SupportEdgesStayBoundedAcrossUpdateCycles) {
  // The support-index writer (Solver::recordDerivation, for in-place
  // joins and the round executor's merge alike) keeps each cell's
  // Dependents list sorted-unique, so repeating the same add/retract churn
  // must not grow the index: re-deriving a cell through the same join
  // re-records the same edge, which is dropped as a duplicate. Without
  // dedup this count grows on every cycle.
  TcCase C;
  C.Edges = {{1, 2}, {2, 3}, {3, 4}, {4, 5}};
  Program P = C.build();
  IncrementalSolver IS(P);
  ASSERT_TRUE(IS.update().ok());

  auto churn = [&] {
    IS.addFact(C.Edge, {C.F.integer(5), C.F.integer(6)});
    ASSERT_TRUE(IS.update().ok());
    IS.retractFact(C.Edge, {C.F.integer(5), C.F.integer(6)});
    ASSERT_TRUE(IS.update().ok());
  };
  churn();
  size_t Baseline = IS.solver().supportEdgeCount();
  ASSERT_GT(Baseline, 0u);

  for (int Cycle = 0; Cycle < 5; ++Cycle)
    churn();
  EXPECT_EQ(IS.solver().supportEdgeCount(), Baseline);
  expectMatchesScratch(IS, [&] { return C.build(); });
}

TEST(IncrementalSolverTest, EmptyUpdateIsTrivial) {
  TcCase C;
  C.Edges = {{1, 2}};
  Program P = C.build();
  IncrementalSolver IS(P);
  ASSERT_TRUE(IS.update().ok());
  UpdateStats U = IS.update();
  ASSERT_TRUE(U.ok());
  EXPECT_EQ(U.Iterations, 0u);
  EXPECT_EQ(U.RuleFirings, 0u);
}

//===----------------------------------------------------------------------===//
// Units: lattice retraction (shortest paths)
//===----------------------------------------------------------------------===//

struct SsspCase {
  ValueFactory F;
  MinCostLattice L{F};
  PredId Edge = 0, Dist = 0;
  FnId Add = 0;
  std::set<std::array<int, 3>> Edges;
  int Source = 0;

  Program build() {
    Program P(F);
    Edge = P.relation("Edge", 3);
    Dist = P.lattice("Dist", 2, &L);
    Add = P.function("addCost", 2, FnRole::Transfer,
                     [this](std::span<const Value> A) {
                       return L.addCost(A[0], A[1].asInt());
                     });
    RuleBuilder()
        .headFn(Dist, {rv("y")}, Add, {rv("d"), rv("c")})
        .atom(Dist, {"x", "d"})
        .atom(Edge, {"x", "y", "c"})
        .addTo(P);
    P.addLatFact(Dist, {F.integer(Source)}, L.cost(0));
    for (auto [A, B, W] : Edges)
      P.addFact(Edge, {F.integer(A), F.integer(B), F.integer(W)});
    return P;
  }

  int64_t dist(const IncrementalSolver &IS, int Node) {
    Value V = IS.latValue(Dist, {F.integer(Node)});
    return L.isInfinity(V) ? -1 : L.costValue(V);
  }
};

TEST(IncrementalSolverTest, LatticeRetractionRederivesLongerPath) {
  // The flixc example graph: retracting the cheap s->a edge reroutes a
  // through the cycle b -> c -> a.
  SsspCase C;
  C.Edges = {{0, 1, 1}, {1, 2, 2}, {0, 2, 5}, {2, 3, 1}, {3, 1, 1}};
  Program P = C.build();
  IncrementalSolver IS(P);
  ASSERT_TRUE(IS.update().ok());
  EXPECT_EQ(C.dist(IS, 1), 1);
  EXPECT_EQ(C.dist(IS, 2), 3);
  EXPECT_EQ(C.dist(IS, 3), 4);

  IS.retractFact(C.Edge, {C.F.integer(0), C.F.integer(1), C.F.integer(1)});
  UpdateStats U = IS.update();
  ASSERT_TRUE(U.ok());
  EXPECT_FALSE(U.FullResolve);
  // Node 1's value must get *worse* — the lattice-hard direction a pure
  // re-join cannot produce.
  EXPECT_EQ(C.dist(IS, 1), 7); // 0->2 (5), 2->3 (1), 3->1 (1)
  EXPECT_EQ(C.dist(IS, 2), 5);
  EXPECT_EQ(C.dist(IS, 3), 6);
  EXPECT_EQ(C.dist(IS, 0), 0); // the seed fact survives

  C.Edges.erase({0, 1, 1});
  expectMatchesScratch(IS, [&] { return C.build(); });
}

TEST(IncrementalSolverTest, RetractingSeedFactEmptiesReachability) {
  SsspCase C;
  C.Edges = {{0, 1, 1}, {1, 2, 1}};
  Program P = C.build();
  IncrementalSolver IS(P);
  ASSERT_TRUE(IS.update().ok());

  IS.retractLatFact(C.Dist, {C.F.integer(0)}, C.L.cost(0));
  UpdateStats U = IS.update();
  ASSERT_TRUE(U.ok());
  EXPECT_EQ(U.CellsDeleted, 3u);   // Dist(0), Dist(1), Dist(2)
  EXPECT_EQ(U.CellsRederived, 0u); // nothing derivable anymore
  EXPECT_EQ(C.dist(IS, 0), -1);
  EXPECT_EQ(C.dist(IS, 1), -1);
  EXPECT_EQ(C.dist(IS, 2), -1);
  EXPECT_TRUE(IS.tuples(C.Dist).empty());
}

TEST(IncrementalSolverTest, ProvenanceFollowsRederivedCell) {
  // With threads one update runs the re-derive seed plan in place on the
  // coordinator and the delta rounds on the round executor: both record
  // derivations through the same recorder.
  for (unsigned Threads : {0u, 1u, 8u}) {
    SCOPED_TRACE(Threads);
    SsspCase C;
    C.Edges = {{0, 1, 1}, {1, 2, 2}, {0, 2, 5}, {2, 3, 1}, {3, 1, 1}};
    Program P = C.build();
    SolverOptions O;
    O.TrackProvenance = true;
    O.NumThreads = Threads;
    IncrementalSolver IS(P, O);
    ASSERT_TRUE(IS.update().ok());

    // Before: Dist(1) = 1 via the direct edge.
    const Derivation *D = IS.explain(C.Dist, {C.F.integer(1)});
    ASSERT_NE(D, nullptr);
    EXPECT_EQ(D->RuleIndex, 0u);

    IS.retractFact(C.Edge, {C.F.integer(0), C.F.integer(1), C.F.integer(1)});
    ASSERT_TRUE(IS.update().ok());

    // After: the re-derived Dist(1) = 7 must carry a fresh rule derivation
    // whose premises exist in the current model (Dist(3) and the 3->1
    // edge), not the retracted route.
    D = IS.explain(C.Dist, {C.F.integer(1)});
    ASSERT_NE(D, nullptr);
    EXPECT_EQ(D->RuleIndex, 0u);
    bool SawEdge31 = false;
    for (const Derivation::Premise &Pr : D->Premises) {
      if (Pr.Pred == C.Edge) {
        Value Want = C.F.tuple(
            {C.F.integer(3), C.F.integer(1), C.F.integer(1)});
        EXPECT_TRUE(Pr.Key == Want)
            << "stale premise " << C.F.toString(Pr.Key);
        SawEdge31 = Pr.Key == Want;
      }
    }
    EXPECT_TRUE(SawEdge31);
    std::string Tree = IS.explainString(C.Dist, {C.F.integer(1)});
    EXPECT_NE(Tree.find("= 7"), std::string::npos) << Tree;
    EXPECT_NE(Tree.find("rule #0"), std::string::npos) << Tree;

    // The seed fact still explains as a fact.
    Tree = IS.explainString(C.Dist, {C.F.integer(0)});
    EXPECT_NE(Tree.find("<- fact"), std::string::npos) << Tree;
  }
}

//===----------------------------------------------------------------------===//
// Units: stratum-local DRed across negation
//===----------------------------------------------------------------------===//

struct NegCase {
  ValueFactory F;
  PredId Node = 0, Blocked = 0, Active = 0;

  Program build(const std::set<int> &Nodes, const std::set<int> &Block) {
    Program P(F);
    Node = P.relation("Node", 1);
    Blocked = P.relation("Blocked", 1);
    Active = P.relation("Active", 1);
    RuleBuilder()
        .head(Active, {"x"})
        .atom(Node, {"x"})
        .negated(Blocked, {"x"})
        .addTo(P);
    for (int N : Nodes)
      P.addFact(Node, {F.integer(N)});
    for (int B : Block)
      P.addFact(Blocked, {F.integer(B)});
    return P;
  }
};

TEST(IncrementalSolverTest, NegatedPredicateUpdatesStayIncremental) {
  // The old engine re-solved from scratch whenever a batch could reach a
  // negated predicate. Stratum-local DRed retires that escape hatch:
  // both directions of Blocked churn are patched in place, FullResolve
  // stays false and the negation fallback counter stays zero.
  NegCase C;
  std::set<int> Nodes = {1, 2, 3}, Block = {2};
  Program P = C.build(Nodes, Block);
  IncrementalSolver IS(P);
  ASSERT_TRUE(IS.update().ok());
  EXPECT_TRUE(IS.contains(C.Active, {C.F.integer(1)}));
  EXPECT_FALSE(IS.contains(C.Active, {C.F.integer(2)}));

  // Adding to the negated predicate removes Active(3) — the non-monotone
  // direction: the key's negation support entry over-deletes the head.
  IS.addFact(C.Blocked, {C.F.integer(3)});
  UpdateStats U = IS.update();
  ASSERT_TRUE(U.ok());
  EXPECT_FALSE(U.FullResolve);
  EXPECT_EQ(U.NegationFallbacks, 0u);
  EXPECT_FALSE(IS.contains(C.Active, {C.F.integer(3)}));
  Block.insert(3);
  expectMatchesScratch(IS, [&] { return C.build(Nodes, Block); });

  // Retracting from it restores the tuple: the retired key drives the
  // rule through the now-true `!Blocked(2)`.
  IS.retractFact(C.Blocked, {C.F.integer(2)});
  U = IS.update();
  ASSERT_TRUE(U.ok());
  EXPECT_FALSE(U.FullResolve);
  EXPECT_EQ(U.NegationFallbacks, 0u);
  EXPECT_TRUE(IS.contains(C.Active, {C.F.integer(2)}));
  Block.erase(2);
  expectMatchesScratch(IS, [&] { return C.build(Nodes, Block); });

  // Positive-side updates were always incremental; still are.
  IS.addFact(C.Node, {C.F.integer(4)});
  U = IS.update();
  ASSERT_TRUE(U.ok());
  EXPECT_FALSE(U.FullResolve);
  EXPECT_TRUE(IS.contains(C.Active, {C.F.integer(4)}));
  EXPECT_EQ(IS.negationFallbacks(), 0u);
  EXPECT_EQ(IS.degradedRecoveries(), 0u);
}

TEST(IncrementalSolverTest, NegSupportEdgesStayBoundedAcrossUpdateCycles) {
  // The negation support index must not grow under repeated churn: a net
  // insert consumes the key's entry; the retract-side re-derivation
  // re-records it sorted-unique, so each cycle returns to the baseline.
  NegCase C;
  std::set<int> Nodes = {1, 2, 3, 4, 5}, Block = {2};
  Program P = C.build(Nodes, Block);
  IncrementalSolver IS(P);
  ASSERT_TRUE(IS.update().ok());

  auto churn = [&] {
    IS.addFact(C.Blocked, {C.F.integer(3)});
    ASSERT_TRUE(IS.update().ok());
    IS.retractFact(C.Blocked, {C.F.integer(3)});
    ASSERT_TRUE(IS.update().ok());
  };
  churn();
  size_t Baseline = IS.solver().negSupportEdgeCount();
  ASSERT_GT(Baseline, 0u);

  for (int Cycle = 0; Cycle < 5; ++Cycle)
    churn();
  EXPECT_EQ(IS.solver().negSupportEdgeCount(), Baseline);
  EXPECT_EQ(IS.negationFallbacks(), 0u);
  expectMatchesScratch(IS, [&] { return C.build(Nodes, Block); });
}

//===----------------------------------------------------------------------===//
// Randomized differentials
//===----------------------------------------------------------------------===//

class IncrementalDifferentialTest
    : public ::testing::TestWithParam<unsigned> {
protected:
  SolverOptions opts() const {
    SolverOptions O;
    O.NumThreads = GetParam();
    return O;
  }
};

TEST_P(IncrementalDifferentialTest, GraphShortestPaths) {
  WeightedGraph G = generateGraph(0xfeed ^ 42, 40, 2.0, 9);
  SsspCase C;
  for (const std::array<int, 3> &E : G.Edges)
    C.Edges.insert(E);

  Program P = C.build();
  IncrementalSolver IS(P, opts());
  ASSERT_TRUE(IS.update().ok());
  expectMatchesScratch(IS, [&] { return C.build(); });

  std::mt19937_64 Rng(7);
  for (int Round = 0; Round < 6; ++Round) {
    // Retract up to 3 random present edges...
    for (int K = 0; K < 3 && !C.Edges.empty(); ++K) {
      auto It = C.Edges.begin();
      std::advance(It, Rng() % C.Edges.size());
      auto [A, B, W] = *It;
      IS.retractFact(C.Edge,
                     {C.F.integer(A), C.F.integer(B), C.F.integer(W)});
      C.Edges.erase(It);
    }
    // ...and add up to 3 random new ones.
    for (int K = 0; K < 3; ++K) {
      std::array<int, 3> E = {int(Rng() % G.NumNodes),
                              int(Rng() % G.NumNodes),
                              int(1 + Rng() % 9)};
      if (!C.Edges.insert(E).second)
        continue;
      IS.addFact(C.Edge, {C.F.integer(E[0]), C.F.integer(E[1]),
                          C.F.integer(E[2])});
    }
    UpdateStats U = IS.update();
    ASSERT_TRUE(U.ok());
    EXPECT_FALSE(U.FullResolve);
    expectMatchesScratch(IS, [&] { return C.build(); });
  }
}

/// IFDS-style gen/kill reachability over a generated ICFG, with the Kill
/// relation under stratified negation:
///   Reach(n, d) :- Gen(n, d).
///   Reach(m, d) :- Reach(n, d), Cfg(n, m), !Kill(m, d).
struct IcfgCase {
  ValueFactory F;
  PredId Cfg = 0, Gen = 0, Kill = 0, Reach = 0;
  std::set<std::pair<int, int>> CfgE, GenE, KillE;

  Program build() {
    Program P(F);
    Cfg = P.relation("Cfg", 2);
    Gen = P.relation("Gen", 2);
    Kill = P.relation("Kill", 2);
    Reach = P.relation("Reach", 2);
    RuleBuilder().head(Reach, {"n", "d"}).atom(Gen, {"n", "d"}).addTo(P);
    RuleBuilder()
        .head(Reach, {"m", "d"})
        .atom(Reach, {"n", "d"})
        .atom(Cfg, {"n", "m"})
        .negated(Kill, {"m", "d"})
        .addTo(P);
    for (auto [A, B] : CfgE)
      P.addFact(Cfg, {F.integer(A), F.integer(B)});
    for (auto [N, D] : GenE)
      P.addFact(Gen, {F.integer(N), F.integer(D)});
    for (auto [N, D] : KillE)
      P.addFact(Kill, {F.integer(N), F.integer(D)});
    return P;
  }
};

/// Deadline handling at 0 threads (in-place delta rounds) and 2 threads
/// (the parallel round executor).
class IncrementalDeadlineTest : public IncrementalDifferentialTest {};

/// Full solves at 0 threads (in place) and at 1 and 2 threads (the inner
/// Solver's round executor).
class IncrementalSolverTest : public IncrementalDifferentialTest {};

TEST_P(IncrementalSolverTest, FullSolvesRunOnTheExecutor) {
  // The initial solve and a degraded recovery both build a new inner
  // Solver. With threads configured, every round of both runs on that
  // Solver's round executor, one thread included; either way the model is
  // the in-place scratch solve's.
  TcCase C;
  for (int I = 0; I < 20; ++I)
    C.Edges.insert({I, I + 1});
  Program P = C.build();
  IncrementalSolver IS(P, opts());
  auto expectTasks = [&](const UpdateStats &U) {
    if (GetParam() > 0)
      EXPECT_GT(U.ParallelTasks, 0u);
    else
      EXPECT_EQ(U.ParallelTasks, 0u);
  };

  UpdateStats U0 = IS.update();
  ASSERT_TRUE(U0.ok()) << U0.Error;
  EXPECT_FALSE(U0.FullResolve);
  expectTasks(U0);
  expectMatchesScratch(IS, [&] { return C.build(); });

  // An already-expired deadline aborts this batch at its first row check.
  IS.addFact(C.Edge, {C.F.integer(20), C.F.integer(0)});
  C.Edges.insert({20, 0});
  UpdateStats U1 = IS.update(Deadline::after(1e-9));
  ASSERT_EQ(U1.St, SolveStats::Status::Timeout);

  UpdateStats U2 = IS.update();
  ASSERT_TRUE(U2.ok()) << U2.Error;
  EXPECT_TRUE(U2.FullResolve);
  EXPECT_EQ(U2.DegradedRecoveries, 1u);
  expectTasks(U2);
  expectMatchesScratch(IS, [&] { return C.build(); });
}

TEST_P(IncrementalDeadlineTest, DeadlineAbortRecoversConsistently) {
  // A deadline that expires mid-batch aborts Phase D per matched row,
  // leaving a sound under-approximation plus possibly-stale negation
  // bookkeeping. The next update() must take a *degraded recovery* (not
  // a negation fallback), after which incremental updates — including
  // negated-predicate churn — must match scratch again.
  IcfgCase C;
  C.CfgE = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
  C.GenE = {{0, 0}, {0, 1}};
  C.KillE = {{3, 1}};
  Program P = C.build();
  IncrementalSolver IS(P, opts());
  ASSERT_TRUE(IS.update().ok());

  // A batch that fires rules, run under an already-expired deadline: the
  // first per-row check aborts with Status::Timeout. The batch only adds
  // facts, so no re-derivation runs: the delta rounds must see it.
  IS.addFact(C.Gen, {C.F.integer(5), C.F.integer(2)});
  IS.addFact(C.Cfg, {C.F.integer(5), C.F.integer(0)});
  UpdateStats U = IS.update(Deadline::after(1e-9));
  ASSERT_FALSE(U.ok());
  EXPECT_EQ(U.St, SolveStats::Status::Timeout);
  EXPECT_EQ(U.DegradedRecoveries, 0u); // recovery happens on the *next* call
  C.GenE.insert({5, 2});
  C.CfgE.insert({5, 0});

  // Recovery: a from-scratch rebuild counted as a degraded recovery.
  UpdateStats U2 = IS.update();
  ASSERT_TRUE(U2.ok());
  EXPECT_TRUE(U2.FullResolve);
  EXPECT_EQ(U2.DegradedRecoveries, 1u);
  EXPECT_EQ(U2.NegationFallbacks, 0u);
  expectMatchesScratch(IS, [&] { return C.build(); });

  // Subsequent updates are incremental again — including the negated
  // predicate, whose support index and tombstone record the recovery
  // rebuilt from nothing.
  IS.retractFact(C.Kill, {C.F.integer(3), C.F.integer(1)});
  C.KillE.erase({3, 1});
  IS.addFact(C.Kill, {C.F.integer(2), C.F.integer(0)});
  C.KillE.insert({2, 0});
  UpdateStats U3 = IS.update();
  ASSERT_TRUE(U3.ok());
  EXPECT_FALSE(U3.FullResolve);
  EXPECT_EQ(U3.DegradedRecoveries, 1u);
  EXPECT_EQ(U3.NegationFallbacks, 0u);
  expectMatchesScratch(IS, [&] { return C.build(); });
}

TEST_P(IncrementalDeadlineTest, TimeLimitBoundsEveryUpdate) {
  // SolverOptions::TimeLimitSeconds bounds incremental updates too, not
  // only full solves. Hit(x) <- A(x), B(y), C(z) costs |A|·|B|·|C| rule
  // firings; the batch stages only 3K facts but opens a K^3 join, far more
  // work than the limit allows, so the update stops with
  // Status::Timeout. Retracting the batch lets the next update's degraded
  // recovery finish inside the same limit.
  constexpr int K = 200;
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1), B = P.relation("B", 1);
  PredId C = P.relation("C", 1), Hit = P.relation("Hit", 1);
  RuleBuilder()
      .head(Hit, {"x"})
      .atom(A, {"x"})
      .atom(B, {"y"})
      .atom(C, {"z"})
      .addTo(P);
  for (PredId Pr : {A, B, C})
    P.addFact(Pr, {F.integer(1)});
  SolverOptions O = opts();
  O.TimeLimitSeconds = 0.1;
  IncrementalSolver IS(P, O);
  ASSERT_TRUE(IS.update().ok());

  for (PredId Pr : {A, B, C})
    for (int I = 10; I < 10 + K; ++I)
      IS.addFact(Pr, {F.integer(I)});
  UpdateStats U = IS.update();
  EXPECT_EQ(U.St, SolveStats::Status::Timeout);
  EXPECT_FALSE(U.FullResolve);

  for (PredId Pr : {A, B, C})
    for (int I = 10; I < 10 + K; ++I)
      IS.retractFact(Pr, {F.integer(I)});
  UpdateStats U2 = IS.update();
  ASSERT_TRUE(U2.ok()) << U2.Error;
  EXPECT_TRUE(U2.FullResolve);
  EXPECT_EQ(U2.DegradedRecoveries, 1u);
  EXPECT_TRUE(IS.contains(Hit, {F.integer(1)}));
  EXPECT_FALSE(IS.contains(Hit, {F.integer(10)}));

  // Small batches stay incremental under the limit.
  IS.addFact(A, {F.integer(2)});
  UpdateStats U3 = IS.update();
  ASSERT_TRUE(U3.ok()) << U3.Error;
  EXPECT_FALSE(U3.FullResolve);
  EXPECT_TRUE(IS.contains(Hit, {F.integer(2)}));
}

TEST_P(IncrementalDeadlineTest, IterationLimitBoundsEveryUpdate) {
  // SolverOptions::MaxIterations bounds every update, counted afresh per
  // update: the initial solve needs 2 rounds, but a staged 40-edge chain
  // needs ~40 rounds of Path derivation and stops at the limit with
  // Status::IterationLimit. The tables then hold a sound
  // under-approximation; retracting the chain lets the next update's
  // degraded recovery (a full solve, bounded the same way) rebuild the
  // model.
  TcCase C;
  C.Edges = {{1, 2}};
  Program P = C.build();
  SolverOptions O = opts();
  O.MaxIterations = 10;
  IncrementalSolver IS(P, O);
  ASSERT_TRUE(IS.update().ok());

  // Staged back to front: in-place rounds then cannot extend a path
  // through an edge they have not reached yet, so every engine needs
  // about one round per path length.
  constexpr int Chain = 40;
  for (int I = 100 + Chain - 1; I >= 100; --I) {
    IS.addFact(C.Edge, {C.F.integer(I), C.F.integer(I + 1)});
    C.Edges.insert({I, I + 1});
  }
  UpdateStats U = IS.update();
  EXPECT_EQ(U.St, SolveStats::Status::IterationLimit);
  EXPECT_FALSE(U.FullResolve);
  EXPECT_EQ(U.Iterations, O.MaxIterations);
  // Every Path cell the stopped update holds is in the full model.
  Program SP = C.build();
  Solver SS(SP);
  ASSERT_TRUE(SS.solve().ok());
  size_t Held = 0;
  for (const std::vector<Value> &Row : IS.tuples(C.Path)) {
    EXPECT_TRUE(SS.contains(C.Path, Row)) << C.F.toString(Row[0]) << " -> "
                                          << C.F.toString(Row[1]);
    ++Held;
  }
  EXPECT_LT(Held, SS.table(C.Path).liveSize());

  for (int I = 100; I < 100 + Chain; ++I) {
    IS.retractFact(C.Edge, {C.F.integer(I), C.F.integer(I + 1)});
    C.Edges.erase({I, I + 1});
  }
  UpdateStats U2 = IS.update();
  ASSERT_TRUE(U2.ok()) << U2.Error;
  EXPECT_TRUE(U2.FullResolve);
  EXPECT_EQ(U2.DegradedRecoveries, 1u);
  expectMatchesScratch(IS, [&] { return C.build(); });
}

/// Random Cfg/Gen add and retract churn with Kill churn under negation
/// over a generated ICFG; after every update the model must equal a
/// from-scratch solve.
void icfgGenKillChurn(const SolverOptions &Opts) {
  IcfgProgram I = generateIcfg(99, 3, 10, 8, 2);
  IcfgCase C;
  for (auto [A, B] : I.CfgEdges)
    C.CfgE.insert({A, B});
  for (int N = 0; N < I.NumNodes; ++N) {
    for (int D : I.Flows[N].Gen)
      C.GenE.insert({N, D});
    for (int D : I.Flows[N].Kill)
      C.KillE.insert({N, D});
  }

  Program P = C.build();
  IncrementalSolver IS(P, Opts);
  ASSERT_TRUE(IS.update().ok());
  expectMatchesScratch(IS, [&] { return C.build(); });

  std::mt19937_64 Rng(13);
  for (int Round = 0; Round < 5; ++Round) {
    for (int K = 0; K < 2 && !C.CfgE.empty(); ++K) {
      auto It = C.CfgE.begin();
      std::advance(It, Rng() % C.CfgE.size());
      IS.retractFact(C.Cfg,
                     {C.F.integer(It->first), C.F.integer(It->second)});
      C.CfgE.erase(It);
    }
    for (int K = 0; K < 2; ++K) {
      std::pair<int, int> E = {int(Rng() % I.NumNodes),
                               int(Rng() % I.NumNodes)};
      if (!C.CfgE.insert(E).second)
        continue;
      IS.addFact(C.Cfg, {C.F.integer(E.first), C.F.integer(E.second)});
    }
    std::pair<int, int> G = {int(Rng() % I.NumNodes),
                             int(Rng() % I.NumFacts)};
    if (C.GenE.insert(G).second)
      IS.addFact(C.Gen, {C.F.integer(G.first), C.F.integer(G.second)});

    // Churn the negated Kill relation in the same batch: stratum-local
    // DRed patches it in place alongside the Cfg/Gen changes.
    if (Round % 2 == 0) {
      std::pair<int, int> KM = {int(Rng() % I.NumNodes),
                                int(Rng() % I.NumFacts)};
      if (C.KillE.insert(KM).second)
        IS.addFact(C.Kill, {C.F.integer(KM.first), C.F.integer(KM.second)});
    } else if (!C.KillE.empty()) {
      auto It = C.KillE.begin();
      std::advance(It, Rng() % C.KillE.size());
      IS.retractFact(C.Kill,
                     {C.F.integer(It->first), C.F.integer(It->second)});
      C.KillE.erase(It);
    }

    UpdateStats U = IS.update();
    ASSERT_TRUE(U.ok());
    EXPECT_FALSE(U.FullResolve);
    EXPECT_EQ(U.NegationFallbacks, 0u);
    expectMatchesScratch(IS, [&] { return C.build(); });
  }

  // A Kill retraction on its own must also stay incremental: the retired
  // key drives re-derivation through the now-true negation.
  if (!C.KillE.empty()) {
    auto It = C.KillE.begin();
    IS.retractFact(C.Kill,
                   {C.F.integer(It->first), C.F.integer(It->second)});
    C.KillE.erase(It);
    UpdateStats U = IS.update();
    ASSERT_TRUE(U.ok());
    EXPECT_FALSE(U.FullResolve);
    expectMatchesScratch(IS, [&] { return C.build(); });
  }
  EXPECT_EQ(IS.negationFallbacks(), 0u);
}

TEST_P(IncrementalDifferentialTest, IcfgGenKillReachability) {
  icfgGenKillChurn(opts());
}

TEST(IncrementalSolverTest, NaiveUpdatesMatchScratch) {
  // Strategy::Naive makes every round of an update a full pass over the
  // stratum, as in a solve; the churn must still land on the same model.
  SolverOptions O;
  O.Strat = Strategy::Naive;
  icfgGenKillChurn(O);
}

TEST_P(IncrementalDifferentialTest, MaintainedMemoryBytesMatchRecount) {
  // MemoryBytes is a count kept current as provenance, the support index
  // and the negation support index grow and shrink, so sampling it costs
  // O(predicates + indexes). After every update of retract/add churn —
  // Kill churn consumes and re-records negation support entries — it must
  // equal the full walk.
  for (bool Prov : {false, true}) {
    SCOPED_TRACE(Prov ? "TrackProvenance" : "TrackSupport only");
    IcfgProgram I = generateIcfg(7, 3, 10, 8, 2);
    IcfgCase C;
    for (auto [A, B] : I.CfgEdges)
      C.CfgE.insert({A, B});
    for (int N = 0; N < I.NumNodes; ++N) {
      for (int D : I.Flows[N].Gen)
        C.GenE.insert({N, D});
      for (int D : I.Flows[N].Kill)
        C.KillE.insert({N, D});
    }
    // Plus a five-premise rule, whose provenance records spill their
    // inline premise storage.
    auto build = [&] {
      Program P = C.build();
      PredId Wide = P.relation("Wide", 2);
      RuleBuilder()
          .head(Wide, {"n", "m"})
          .atom(C.Cfg, {"n", "m"})
          .atom(C.Reach, {"n", "d"})
          .atom(C.Reach, {"m", "d"})
          .atom(C.Cfg, {"m", "k"})
          .atom(C.Reach, {"k", "d"})
          .addTo(P);
      return P;
    };
    Program P = build();
    SolverOptions O = opts();
    O.TrackProvenance = Prov;
    IncrementalSolver IS(P, O);
    UpdateStats U = IS.update();
    ASSERT_TRUE(U.ok());
    EXPECT_EQ(U.MemoryBytes, IS.solver().recountMemoryBytes());

    std::mt19937_64 Rng(29);
    auto churn = [&](PredId Pred, std::set<std::pair<int, int>> &Set,
                     int Range) {
      if (Rng() % 2 && !Set.empty()) {
        auto It = Set.begin();
        std::advance(It, Rng() % Set.size());
        IS.retractFact(Pred,
                       {C.F.integer(It->first), C.F.integer(It->second)});
        Set.erase(It);
        return;
      }
      std::pair<int, int> E = {int(Rng() % I.NumNodes), int(Rng() % Range)};
      if (Set.insert(E).second)
        IS.addFact(Pred, {C.F.integer(E.first), C.F.integer(E.second)});
    };
    for (int Round = 0; Round < 12; ++Round) {
      for (int K = 0; K < 3; ++K)
        churn(C.Cfg, C.CfgE, I.NumNodes);
      churn(C.Gen, C.GenE, I.NumFacts);
      churn(C.Kill, C.KillE, I.NumFacts);
      U = IS.update();
      ASSERT_TRUE(U.ok());
      EXPECT_FALSE(U.FullResolve);
      EXPECT_EQ(U.MemoryBytes, IS.solver().recountMemoryBytes())
          << "round " << Round;
    }
    expectMatchesScratch(IS, build);
  }
}

TEST_P(IncrementalDifferentialTest, HubChurnRecordsPremiseRows) {
  // Each batch adds a Cfg edge out of the node most facts reach — its
  // Reach bucket is the hottest probe under the Cfg driver — and the next
  // batch retracts it. That retraction over-deletes the derived cells
  // only if the hub derivations recorded the Cfg row among their
  // premises; a dropped premise leaves stale cells behind.
  IcfgProgram I = generateIcfg(99, 3, 10, 8, 2);
  IcfgCase C;
  for (auto [A, B] : I.CfgEdges)
    C.CfgE.insert({A, B});
  for (int N = 0; N < I.NumNodes; ++N) {
    for (int D : I.Flows[N].Gen)
      C.GenE.insert({N, D});
    for (int D : I.Flows[N].Kill)
      C.KillE.insert({N, D});
  }

  Program P = C.build();
  IncrementalSolver IS(P, opts());
  ASSERT_TRUE(IS.update().ok());
  expectMatchesScratch(IS, [&] { return C.build(); });

  std::mt19937_64 Rng(29);
  for (int Round = 0; Round < 4; ++Round) {
    std::vector<int> Reaching(I.NumNodes, 0);
    for (const std::vector<Value> &Row : IS.tuples(C.Reach))
      ++Reaching[Row[0].asInt()];
    int Hub = static_cast<int>(
        std::max_element(Reaching.begin(), Reaching.end()) -
        Reaching.begin());
    std::pair<int, int> E = {Hub, int(Rng() % I.NumNodes)};
    while (C.CfgE.count(E))
      E.second = int(Rng() % I.NumNodes);
    C.CfgE.insert(E);
    IS.addFact(C.Cfg, {C.F.integer(E.first), C.F.integer(E.second)});
    // Kill churn in the same batch.
    std::pair<int, int> KM = {int(Rng() % I.NumNodes),
                              int(Rng() % I.NumFacts)};
    if (C.KillE.insert(KM).second)
      IS.addFact(C.Kill, {C.F.integer(KM.first), C.F.integer(KM.second)});
    UpdateStats U = IS.update();
    ASSERT_TRUE(U.ok());
    EXPECT_FALSE(U.FullResolve);
    expectMatchesScratch(IS, [&] { return C.build(); });

    IS.retractFact(C.Cfg, {C.F.integer(E.first), C.F.integer(E.second)});
    C.CfgE.erase(E);
    if (!C.KillE.empty()) {
      auto It = C.KillE.begin();
      std::advance(It, Rng() % C.KillE.size());
      IS.retractFact(C.Kill,
                     {C.F.integer(It->first), C.F.integer(It->second)});
      C.KillE.erase(It);
    }
    U = IS.update();
    ASSERT_TRUE(U.ok());
    EXPECT_FALSE(U.FullResolve);
    expectMatchesScratch(IS, [&] { return C.build(); });
  }
}

/// Three strata with negation at both boundaries, the top one feeding a
/// lattice head:
///   stratum 0: Down(x) :- Fault(x).   Down(y) :- Down(x), Wire(x, y).
///   stratum 1: Up(x)   :- Node(x), !Down(x).
///   stratum 2: Dist(y) <- addCost(d, c) :- Dist(x, d), Link(x, y, c), !Up(y).
/// Fault churn ripples through two negation boundaries into min-cost
/// distances — the lattice-hard cascade for stratum-local DRed.
struct TriStratumCase {
  ValueFactory F;
  MinCostLattice L{F};
  PredId Fault = 0, Wire = 0, Node = 0, Link = 0, Down = 0, Up = 0, Dist = 0;
  FnId Add = 0;
  std::set<int> Faults, Nodes;
  std::set<std::pair<int, int>> Wires;
  std::set<std::array<int, 3>> Links;
  int Source = 0;

  Program build() {
    Program P(F);
    Fault = P.relation("Fault", 1);
    Wire = P.relation("Wire", 2);
    Node = P.relation("Node", 1);
    Link = P.relation("Link", 3);
    Down = P.relation("Down", 1);
    Up = P.relation("Up", 1);
    Dist = P.lattice("Dist", 2, &L);
    Add = P.function("addCost", 2, FnRole::Transfer,
                     [this](std::span<const Value> A) {
                       return L.addCost(A[0], A[1].asInt());
                     });
    RuleBuilder().head(Down, {"x"}).atom(Fault, {"x"}).addTo(P);
    RuleBuilder()
        .head(Down, {"y"})
        .atom(Down, {"x"})
        .atom(Wire, {"x", "y"})
        .addTo(P);
    RuleBuilder()
        .head(Up, {"x"})
        .atom(Node, {"x"})
        .negated(Down, {"x"})
        .addTo(P);
    RuleBuilder()
        .headFn(Dist, {rv("y")}, Add, {rv("d"), rv("c")})
        .atom(Dist, {"x", "d"})
        .atom(Link, {"x", "y", "c"})
        .negated(Up, {"y"})
        .addTo(P);
    P.addLatFact(Dist, {F.integer(Source)}, L.cost(0));
    for (int N : Nodes)
      P.addFact(Node, {F.integer(N)});
    for (int Ft : Faults)
      P.addFact(Fault, {F.integer(Ft)});
    for (auto [A, B] : Wires)
      P.addFact(Wire, {F.integer(A), F.integer(B)});
    for (auto [A, B, W] : Links)
      P.addFact(Link, {F.integer(A), F.integer(B), F.integer(W)});
    return P;
  }
};

TEST_P(IncrementalDifferentialTest, ThreeStratumNegationIntoLattice) {
  TriStratumCase C;
  std::mt19937_64 Rng(0xd1f ^ GetParam());
  const int N = 24;
  for (int I = 0; I < N; ++I)
    C.Nodes.insert(I);
  for (int I = 0; I < 30; ++I)
    C.Wires.insert({int(Rng() % N), int(Rng() % N)});
  for (int I = 0; I < 60; ++I)
    C.Links.insert({int(Rng() % N), int(Rng() % N), int(1 + Rng() % 9)});
  for (int I = 0; I < 4; ++I)
    C.Faults.insert(int(Rng() % N));

  Program P = C.build();
  IncrementalSolver IS(P, opts());
  ASSERT_TRUE(IS.update().ok());
  expectMatchesScratch(IS, [&] { return C.build(); });

  for (int Round = 0; Round < 6; ++Round) {
    // Fault churn: flips Down closure, which flips Up, which gates Dist.
    // Retract before add — a batch nets retract-then-add of one key to
    // present, matching the set bookkeeping below.
    if (!C.Faults.empty() && (Rng() & 1)) {
      auto It = C.Faults.begin();
      std::advance(It, Rng() % C.Faults.size());
      IS.retractFact(C.Fault, {C.F.integer(*It)});
      C.Faults.erase(It);
    }
    int FA = int(Rng() % N);
    if (C.Faults.insert(FA).second)
      IS.addFact(C.Fault, {C.F.integer(FA)});
    // Wire churn inside stratum 0: moves the Down frontier recursively.
    std::pair<int, int> W = {int(Rng() % N), int(Rng() % N)};
    if (C.Wires.insert(W).second) {
      IS.addFact(C.Wire, {C.F.integer(W.first), C.F.integer(W.second)});
    } else if (!C.Wires.empty()) {
      auto It = C.Wires.begin();
      std::advance(It, Rng() % C.Wires.size());
      IS.retractFact(C.Wire,
                     {C.F.integer(It->first), C.F.integer(It->second)});
      C.Wires.erase(It);
    }
    // Link churn in the lattice stratum itself.
    std::array<int, 3> Lk = {int(Rng() % N), int(Rng() % N),
                             int(1 + Rng() % 9)};
    if (C.Links.insert(Lk).second) {
      IS.addFact(C.Link, {C.F.integer(Lk[0]), C.F.integer(Lk[1]),
                          C.F.integer(Lk[2])});
    } else if (!C.Links.empty()) {
      auto It = C.Links.begin();
      std::advance(It, Rng() % C.Links.size());
      IS.retractFact(C.Link, {C.F.integer((*It)[0]), C.F.integer((*It)[1]),
                              C.F.integer((*It)[2])});
      C.Links.erase(It);
    }

    UpdateStats U = IS.update();
    ASSERT_TRUE(U.ok());
    EXPECT_FALSE(U.FullResolve);
    EXPECT_EQ(U.NegationFallbacks, 0u);
    expectMatchesScratch(IS, [&] { return C.build(); });
  }
  EXPECT_EQ(IS.negationFallbacks(), 0u);
}

/// Negation-driven edge cases: negated atoms whose key binding is not a
/// plain list of fresh variables.
///   Out(m, n, d) :- Pair(m, n), Fact(d), !Kill(m, d), !Kill(n, d).
///   Free(x)      :- Node(x), !Blocked(x, x).
///   Open(x)      :- Node(x), !Blocked(0, x).
///   Reach(x)     :- Free(x).
///   Reach(y)     :- Reach(x), Edge(x, y), !Blocked(y, y).
/// A retired Kill key drives Out through either negated occurrence (both
/// when m == n); a retired Blocked key must bind x consistently against
/// both columns of `!Blocked(x, x)` and match the constant column of
/// `!Blocked(0, x)`, and otherwise drive nothing.
struct NegEdgeCase {
  ValueFactory F;
  PredId Pair = 0, Fact = 0, Kill = 0, Node = 0, Blocked = 0, Edge = 0,
         Out = 0, Free = 0, Open = 0, Reach = 0;
  std::set<std::pair<int, int>> Pairs, Kills, Blocks, Edges;
  std::set<int> Facts, Nodes;

  Program build() {
    Program P(F);
    Pair = P.relation("Pair", 2);
    Fact = P.relation("Fact", 1);
    Kill = P.relation("Kill", 2);
    Node = P.relation("Node", 1);
    Blocked = P.relation("Blocked", 2);
    Edge = P.relation("Edge", 2);
    Out = P.relation("Out", 3);
    Free = P.relation("Free", 1);
    Open = P.relation("Open", 1);
    Reach = P.relation("Reach", 1);
    RuleBuilder()
        .head(Out, {"m", "n", "d"})
        .atom(Pair, {"m", "n"})
        .atom(Fact, {"d"})
        .negated(Kill, {"m", "d"})
        .negated(Kill, {"n", "d"})
        .addTo(P);
    RuleBuilder()
        .head(Free, {"x"})
        .atom(Node, {"x"})
        .negated(Blocked, {"x", "x"})
        .addTo(P);
    RuleBuilder()
        .head(Open, {"x"})
        .atom(Node, {"x"})
        .negated(Blocked, {F.integer(0), "x"})
        .addTo(P);
    RuleBuilder().head(Reach, {"x"}).atom(Free, {"x"}).addTo(P);
    RuleBuilder()
        .head(Reach, {"y"})
        .atom(Reach, {"x"})
        .atom(Edge, {"x", "y"})
        .negated(Blocked, {"y", "y"})
        .addTo(P);
    auto add2 = [&](PredId Pr, const std::set<std::pair<int, int>> &Set) {
      for (auto [A, B] : Set)
        P.addFact(Pr, {F.integer(A), F.integer(B)});
    };
    add2(Pair, Pairs);
    add2(Kill, Kills);
    add2(Blocked, Blocks);
    add2(Edge, Edges);
    for (int D : Facts)
      P.addFact(Fact, {F.integer(D)});
    for (int X : Nodes)
      P.addFact(Node, {F.integer(X)});
    return P;
  }
};

TEST_P(IncrementalDifferentialTest, NegationDrivenEdgeCases) {
  NegEdgeCase C;
  std::mt19937_64 Rng(0x9e6 ^ GetParam());
  const int N = 12, D = 4;
  for (int X = 0; X < N; ++X)
    C.Nodes.insert(X);
  for (int Dv = 0; Dv < D; ++Dv)
    C.Facts.insert(Dv);
  for (int I = 0; I < 20; ++I)
    C.Pairs.insert({int(Rng() % N), int(Rng() % N)});
  for (int X = 0; X < N; X += 3)
    C.Pairs.insert({X, X}); // m == n: both negated Kill atoms share a key
  for (int I = 0; I < 24; ++I)
    C.Edges.insert({int(Rng() % N), int(Rng() % N)});
  for (int I = 0; I < 12; ++I)
    C.Kills.insert({int(Rng() % N), int(Rng() % D)});
  for (int X = 0; X < N; X += 2)
    C.Blocks.insert({X, X});
  for (int X = 1; X < N; X += 3)
    C.Blocks.insert({0, X});
  for (int I = 0; I < 6; ++I)
    C.Blocks.insert({int(Rng() % N), int(Rng() % N)});

  Program P = C.build();
  IncrementalSolver IS(P, opts());
  ASSERT_TRUE(IS.update().ok());
  expectMatchesScratch(IS, [&] { return C.build(); });

  // Toggles one tuple of a negated relation: retract a present one or add
  // an absent one, keeping the mirror set in step. A tuple is toggled at
  // most once per batch (a batch applies retractions before additions).
  std::set<std::pair<PredId, std::pair<int, int>>> Touched;
  auto toggle = [&](PredId Pr, std::set<std::pair<int, int>> &Set,
                    std::pair<int, int> T) {
    if (!Touched.insert({Pr, T}).second)
      return;
    if (Set.erase(T))
      IS.retractFact(Pr, {C.F.integer(T.first), C.F.integer(T.second)});
    else if (Set.insert(T).second)
      IS.addFact(Pr, {C.F.integer(T.first), C.F.integer(T.second)});
  };

  for (int Round = 0; Round < 8; ++Round) {
    Touched.clear();
    for (int K = 0; K < 3; ++K)
      toggle(C.Kill, C.Kills, {int(Rng() % N), int(Rng() % D)});
    int X = int(Rng() % N);
    toggle(C.Blocked, C.Blocks, {X, X});              // repeated variable
    toggle(C.Blocked, C.Blocks, {0, int(Rng() % N)}); // constant column
    // A key with distinct columns: matches neither `!Blocked(x, x)` nor,
    // unless its first column is 0, `!Blocked(0, x)`.
    toggle(C.Blocked, C.Blocks, {1 + int(Rng() % (N - 1)), int(Rng() % N)});

    UpdateStats U = IS.update();
    ASSERT_TRUE(U.ok());
    EXPECT_FALSE(U.FullResolve);
    EXPECT_EQ(U.NegationFallbacks, 0u);
    expectMatchesScratch(IS, [&] { return C.build(); });
  }
  EXPECT_EQ(IS.negationFallbacks(), 0u);
}

/// Recursive Andersen-style points-to over generated pointer programs:
///   Pt(p, a)  :- AddrOf(p, a).
///   Pt(p, a)  :- Copy(p, q), Pt(q, a).
///   Pt(p, b)  :- Load(l, p, q), Pt(q, a), PtH(a, b).
///   PtH(a, b) :- Store(l, p, q), Pt(p, a), Pt(q, b).
struct PtCase {
  ValueFactory F;
  PredId AddrOf = 0, Copy = 0, Load = 0, Store = 0, Pt = 0, PtH = 0;
  std::set<std::pair<int, int>> AddrE, CopyE;
  std::vector<std::array<int, 3>> LoadE, StoreE;

  Program build() {
    Program P(F);
    AddrOf = P.relation("AddrOf", 2);
    Copy = P.relation("Copy", 2);
    Load = P.relation("Load", 3);
    Store = P.relation("Store", 3);
    Pt = P.relation("Pt", 2);
    PtH = P.relation("PtH", 2);
    RuleBuilder().head(Pt, {"p", "a"}).atom(AddrOf, {"p", "a"}).addTo(P);
    RuleBuilder()
        .head(Pt, {"p", "a"})
        .atom(Copy, {"p", "q"})
        .atom(Pt, {"q", "a"})
        .addTo(P);
    RuleBuilder()
        .head(Pt, {"p", "b"})
        .atom(Load, {"l", "p", "q"})
        .atom(Pt, {"q", "a"})
        .atom(PtH, {"a", "b"})
        .addTo(P);
    RuleBuilder()
        .head(PtH, {"a", "b"})
        .atom(Store, {"l", "p", "q"})
        .atom(Pt, {"p", "a"})
        .atom(Pt, {"q", "b"})
        .addTo(P);
    for (auto [A, B] : AddrE)
      P.addFact(AddrOf, {F.integer(A), F.integer(B)});
    for (auto [A, B] : CopyE)
      P.addFact(Copy, {F.integer(A), F.integer(B)});
    for (auto [L, A, B] : LoadE)
      P.addFact(Load, {F.integer(L), F.integer(A), F.integer(B)});
    for (auto [L, A, B] : StoreE)
      P.addFact(Store, {F.integer(L), F.integer(A), F.integer(B)});
    return P;
  }
};

TEST_P(IncrementalDifferentialTest, PointerAnalysis) {
  PointerProgram PP = generatePointerProgram(1234, 400);
  PtCase C;
  for (auto [P1, A] : PP.AddrOf)
    C.AddrE.insert({P1, A});
  for (auto [P1, Q] : PP.Copy)
    C.CopyE.insert({P1, Q});
  C.LoadE = PP.Load;
  C.StoreE = PP.Store;

  Program P = C.build();
  IncrementalSolver IS(P, opts());
  ASSERT_TRUE(IS.update().ok());
  expectMatchesScratch(IS, [&] { return C.build(); });

  std::mt19937_64 Rng(5);
  for (int Round = 0; Round < 4; ++Round) {
    for (int K = 0; K < 3 && !C.AddrE.empty(); ++K) {
      auto It = C.AddrE.begin();
      std::advance(It, Rng() % C.AddrE.size());
      IS.retractFact(C.AddrOf,
                     {C.F.integer(It->first), C.F.integer(It->second)});
      C.AddrE.erase(It);
    }
    for (int K = 0; K < 2 && !C.CopyE.empty(); ++K) {
      auto It = C.CopyE.begin();
      std::advance(It, Rng() % C.CopyE.size());
      IS.retractFact(C.Copy,
                     {C.F.integer(It->first), C.F.integer(It->second)});
      C.CopyE.erase(It);
    }
    for (int K = 0; K < 3; ++K) {
      std::pair<int, int> E = {int(Rng() % PP.NumVars),
                               int(Rng() % PP.NumObjs)};
      if (!C.AddrE.insert(E).second)
        continue;
      IS.addFact(C.AddrOf, {C.F.integer(E.first), C.F.integer(E.second)});
    }
    std::pair<int, int> E = {int(Rng() % PP.NumVars),
                             int(Rng() % PP.NumVars)};
    if (C.CopyE.insert(E).second)
      IS.addFact(C.Copy, {C.F.integer(E.first), C.F.integer(E.second)});

    UpdateStats U = IS.update();
    ASSERT_TRUE(U.ok());
    EXPECT_FALSE(U.FullResolve);
    expectMatchesScratch(IS, [&] { return C.build(); });
  }
}

TEST_P(IncrementalDifferentialTest, AdaptiveReplanMidStream) {
  // Cost-based adaptive planning during an update stream: ReplanThreshold
  // 1.0 re-plans on any strict estimated improvement, so the growth phase
  // below (Reach outgrows Cfg by orders of magnitude) forces plan swaps
  // *between* DRed delta rounds. The differential then checks the two
  // structures a mid-stream re-plan could silently corrupt: the negation
  // support index / NegDependents (a Kill insert after the re-plan must
  // retract exactly the recorded heads) and the rederive family's
  // head-bound plans (retractions after the re-plan must re-derive
  // through the replaced plans).
  SolverOptions O = opts();
  O.ReplanThreshold = 1.0;

  IcfgCase C;
  C.CfgE = {{0, 1}, {1, 2}};
  C.GenE = {{0, 0}};
  C.KillE = {{2, 0}};
  Program P = C.build();
  IncrementalSolver IS(P, O);
  ASSERT_TRUE(IS.update().ok());
  expectMatchesScratch(IS, [&] { return C.build(); });

  uint64_t TotalReplans = 0;
  std::mt19937_64 Rng(17);
  for (int Round = 0; Round < 6; ++Round) {
    // Growth phase: bulk-insert Cfg edges and Gen facts so live-row
    // statistics drift far from what the last plan was chosen against.
    for (int K = 0; K < 40; ++K)
      C.CfgE.insert({int(Rng() % 64), int(Rng() % 64)});
    for (auto [A, B] : C.CfgE)
      IS.addFact(C.Cfg, {C.F.integer(A), C.F.integer(B)});
    for (int K = 0; K < 4; ++K)
      C.GenE.insert({int(Rng() % 64), int(Rng() % 8)});
    for (auto [N, D] : C.GenE)
      IS.addFact(C.Gen, {C.F.integer(N), C.F.integer(D)});
    // Churn the negated predicate across the (possible) re-plan.
    for (int K = 0; K < 2 && !C.KillE.empty(); ++K) {
      auto It = C.KillE.begin();
      std::advance(It, Rng() % C.KillE.size());
      IS.retractFact(C.Kill, {C.F.integer(It->first), C.F.integer(It->second)});
      C.KillE.erase(It);
    }
    for (int K = 0; K < 3; ++K) {
      std::pair<int, int> E = {int(Rng() % 64), int(Rng() % 8)};
      if (C.KillE.insert(E).second)
        IS.addFact(C.Kill, {C.F.integer(E.first), C.F.integer(E.second)});
    }
    UpdateStats U = IS.update();
    ASSERT_TRUE(U.ok());
    EXPECT_FALSE(U.FullResolve);
    EXPECT_EQ(U.NegationFallbacks, 0u);
    TotalReplans += U.ReplanEvents;
    expectMatchesScratch(IS, [&] { return C.build(); });
  }
  // The growth phase is sized to actually flip plans; a zero here means
  // the adaptive path went dead and this test stopped testing it.
  EXPECT_GT(TotalReplans, 0u);
}

TEST(IncrementalSolverTest, SeedPlansRunOncePerRule) {
  // Re-derive and the insertion delta of `not P` are set at a time: one
  // seed-plan run per rule re-deriving its head and one per negated
  // occurrence, however many cells the retraction over-deletes. A chain
  // ICFG with five facts flowing from node 0; cutting an early edge
  // over-deletes every Reach cell behind it, and retracting a Kill fact
  // in the same batch drives the negated occurrence's seed plan.
  IcfgCase C;
  for (int N = 0; N < 60; ++N)
    C.CfgE.insert({N, N + 1});
  for (int D = 0; D < 5; ++D)
    C.GenE.insert({0, D});
  C.KillE = {{30, 2}};
  Program P = C.build();
  IncrementalSolver IS(P);
  ASSERT_TRUE(IS.update().ok());

  IS.retractFact(C.Cfg, {C.F.integer(10), C.F.integer(11)});
  C.CfgE.erase({10, 11});
  IS.retractFact(C.Kill, {C.F.integer(30), C.F.integer(2)});
  C.KillE.clear();
  UpdateStats U = IS.update();
  ASSERT_TRUE(U.ok());
  EXPECT_FALSE(U.FullResolve);
  expectMatchesScratch(IS, [&] { return C.build(); });

  uint64_t Slots = P.rules().size();
  for (const Rule &R : P.rules())
    for (const BodyElem &E : R.Body)
      if (const auto *A = std::get_if<BodyAtom>(&E); A && A->Negated)
        ++Slots;
  EXPECT_GE(U.CellsDeleted, 100u);
  EXPECT_GT(U.SeedPlanRuns, 0u);
  EXPECT_LE(U.SeedPlanRuns, Slots);
}

/// Head shapes a re-derive seed must match against the deleted cells'
/// key columns, under random retract/add churn:
///   Reach(s, s) :- Src(s).                        repeated head variable
///   Reach(s, m) :- Reach(s, n), Edge(n, m).
///   Tag(0, n)   :- Reach(s, n), Src(n).           constant head column
///   Tag(1, n)   :- Reach(s, n), Edge(n, s).
///   Next(s, half(n)) :- Reach(s, n).              relational, headFn
///   Dist(s, 0)  :- Src(s).                        lattice
///   Dist(m, addCost(d, 1)) :- Dist(n, d), Edge(n, m).   lattice, headFn
struct HeadShapesCase {
  ValueFactory F;
  MinCostLattice L{F};
  PredId Edge = 0, Src = 0, Reach = 0, Tag = 0, Next = 0, Dist = 0;
  std::set<std::pair<int, int>> Edges;
  std::set<int> Srcs;

  Program build() {
    Program P(F);
    Edge = P.relation("Edge", 2);
    Src = P.relation("Src", 1);
    Reach = P.relation("Reach", 2);
    Tag = P.relation("Tag", 2);
    Next = P.relation("Next", 2);
    Dist = P.lattice("Dist", 2, &L);
    // Not injective: Next(s, 2) has a derivation from Reach(s, 4) and one
    // from Reach(s, 5), so only re-derive restores it when one goes.
    FnId Half = P.function("half", 1, FnRole::Transfer,
                           [this](std::span<const Value> A) {
                             return F.integer(A[0].asInt() / 2);
                           });
    FnId Add = P.function("addCost", 2, FnRole::Transfer,
                          [this](std::span<const Value> A) {
                            return L.addCost(A[0], A[1].asInt());
                          });
    RuleBuilder().head(Reach, {"s", "s"}).atom(Src, {"s"}).addTo(P);
    RuleBuilder()
        .head(Reach, {"s", "m"})
        .atom(Reach, {"s", "n"})
        .atom(Edge, {"n", "m"})
        .addTo(P);
    RuleBuilder()
        .head(Tag, {F.integer(0), rv("n")})
        .atom(Reach, {"s", "n"})
        .atom(Src, {"n"})
        .addTo(P);
    RuleBuilder()
        .head(Tag, {F.integer(1), rv("n")})
        .atom(Reach, {"s", "n"})
        .atom(Edge, {"n", "s"})
        .addTo(P);
    RuleBuilder()
        .headFn(Next, {rv("s")}, Half, {rv("n")})
        .atom(Reach, {"s", "n"})
        .addTo(P);
    RuleBuilder().head(Dist, {rv("s"), L.cost(0)}).atom(Src, {"s"}).addTo(P);
    RuleBuilder()
        .headFn(Dist, {rv("m")}, Add, {rv("d"), F.integer(1)})
        .atom(Dist, {"n", "d"})
        .atom(Edge, {"n", "m"})
        .addTo(P);
    for (auto [A, B] : Edges)
      P.addFact(Edge, {F.integer(A), F.integer(B)});
    for (int S : Srcs)
      P.addFact(Src, {F.integer(S)});
    return P;
  }
};

TEST_P(IncrementalDifferentialTest, RederiveHeadShapes) {
  constexpr int Nodes = 16;
  HeadShapesCase C;
  std::mt19937_64 Rng(29);
  while (C.Edges.size() < 18)
    C.Edges.insert({int(Rng() % Nodes), int(Rng() % Nodes)});
  C.Srcs = {0, 5};
  Program P = C.build();
  IncrementalSolver IS(P, opts());
  ASSERT_TRUE(IS.update().ok());
  expectMatchesScratch(IS, [&] { return C.build(); });

  uint64_t Deleted = 0, Rederived = 0;
  for (int Round = 0; Round < 20; ++Round) {
    for (int K = 0; K < 3 && !C.Edges.empty(); ++K) {
      auto It = C.Edges.begin();
      std::advance(It, Rng() % C.Edges.size());
      IS.retractFact(C.Edge, {C.F.integer(It->first),
                              C.F.integer(It->second)});
      C.Edges.erase(It);
    }
    for (int K = 0; K < 3; ++K) {
      std::pair<int, int> E = {int(Rng() % Nodes), int(Rng() % Nodes)};
      if (C.Edges.insert(E).second)
        IS.addFact(C.Edge, {C.F.integer(E.first), C.F.integer(E.second)});
    }
    // Toggle one source: retracting it deletes its diagonal Reach cell
    // and Dist seed, so every head shape above sees deleted cells.
    int S = int(Rng() % Nodes);
    if (C.Srcs.erase(S))
      IS.retractFact(C.Src, {C.F.integer(S)});
    else if (C.Srcs.insert(S).second)
      IS.addFact(C.Src, {C.F.integer(S)});
    UpdateStats U = IS.update();
    ASSERT_TRUE(U.ok());
    EXPECT_FALSE(U.FullResolve);
    Deleted += U.CellsDeleted;
    Rederived += U.CellsRederived;
    expectMatchesScratch(IS, [&] { return C.build(); });
  }
  // The churn must actually exercise re-derivation.
  EXPECT_GT(Deleted, 0u);
  EXPECT_GT(Rederived, 0u);
}

/// Head(x) <- A(x), B(y), C(z): K^3 firings per K-fact batch, but only K
/// new cells. Lattice = false makes Head relational; Lattice = true gives
/// it a MinCost column whose value depends on x alone, so every firing of
/// one cell repeats the same value.
struct CrossProductCase {
  ValueFactory F;
  MinCostLattice L{F};
  bool Lattice = false;
  PredId A = 0, B = 0, C = 0, Head = 0;
  std::set<int> Facts = {1};

  Program build() {
    Program P(F);
    A = P.relation("A", 1);
    B = P.relation("B", 1);
    C = P.relation("C", 1);
    if (Lattice) {
      Head = P.lattice("Head", 2, &L);
      FnId Cost = P.function("cost", 1, FnRole::Transfer,
                             [this](std::span<const Value> X) {
                               return L.cost(X[0].asInt());
                             });
      RuleBuilder()
          .headFn(Head, {rv("x")}, Cost, {rv("x")})
          .atom(A, {"x"})
          .atom(B, {"y"})
          .atom(C, {"z"})
          .addTo(P);
    } else {
      Head = P.relation("Head", 1);
      RuleBuilder()
          .head(Head, {"x"})
          .atom(A, {"x"})
          .atom(B, {"y"})
          .atom(C, {"z"})
          .addTo(P);
    }
    for (PredId Pr : {A, B, C})
      for (int X : Facts)
        P.addFact(Pr, {F.integer(X)});
    return P;
  }
};

TEST_P(IncrementalDifferentialTest, RepeatedFiringsMergeOncePerCell) {
  // A worker buffers a derivation only if it can change its cell, so the
  // merge joins about one derivation per new cell and worker, however
  // many firings repeat it — and the support index still matches the
  // in-place engine's.
  constexpr int K = 12;
  for (bool Lattice : {false, true}) {
    SCOPED_TRACE(Lattice ? "lattice head" : "relational head");
    CrossProductCase C, Seq;
    C.Lattice = Seq.Lattice = Lattice;
    Program P = C.build(), SeqP = Seq.build();
    SolverOptions SeqOpts;
    SeqOpts.NumThreads = 0;
    IncrementalSolver IS(P, opts()), SeqIS(SeqP, SeqOpts);
    ASSERT_TRUE(IS.update().ok());
    ASSERT_TRUE(SeqIS.update().ok());

    for (int X = 10; X < 10 + K; ++X) {
      C.Facts.insert(X);
      for (PredId Pr : {C.A, C.B, C.C}) {
        IS.addFact(Pr, {C.F.integer(X)});
        SeqIS.addFact(Pr, {Seq.F.integer(X)});
      }
    }
    UpdateStats U = IS.update();
    ASSERT_TRUE(U.ok());
    ASSERT_TRUE(SeqIS.update().ok());
    EXPECT_GE(U.RuleFirings, uint64_t(K) * K * K);
    EXPECT_EQ(U.FactsDerived, uint64_t(K));
    uint64_t Workers = std::max(1u, GetParam());
    EXPECT_LE(U.MergeCollisions + U.FactsDerived, Workers * K);
    EXPECT_EQ(IS.solver().supportEdgeCount(),
              SeqIS.solver().supportEdgeCount());
    expectMatchesScratch(IS, [&] { return C.build(); });

    // Retracting one premise fact per relation over-deletes every Head
    // cell whose recorded derivation used it; re-derive restores all but
    // Head(10), and merge traffic stays bounded by the deleted cells. The
    // support-edge count is not compared here: each engine records the
    // witness its evaluation order meets first, and over-delete keeps the
    // in-edges of deleted cells, so equal models may hold different
    // counts.
    C.Facts.erase(10);
    for (PredId Pr : {C.A, C.B, C.C})
      IS.retractFact(Pr, {C.F.integer(10)});
    U = IS.update();
    ASSERT_TRUE(U.ok());
    EXPECT_FALSE(U.FullResolve);
    EXPECT_EQ(U.CellsDeleted - U.CellsRederived, 4u); // A, B, C, Head(10)
    EXPECT_LE(U.MergeCollisions + U.FactsDerived, Workers * U.CellsDeleted);
    expectMatchesScratch(IS, [&] { return C.build(); });
  }
}

std::string threadsName(const ::testing::TestParamInfo<unsigned> &Info) {
  return "threads" + std::to_string(Info.param);
}

INSTANTIATE_TEST_SUITE_P(Threads, IncrementalDifferentialTest,
                         ::testing::Values(0u, 1u, 8u), threadsName);
INSTANTIATE_TEST_SUITE_P(Threads, IncrementalDeadlineTest,
                         ::testing::Values(0u, 2u), threadsName);
INSTANTIATE_TEST_SUITE_P(Threads, IncrementalSolverTest,
                         ::testing::Values(0u, 1u, 2u), threadsName);

} // namespace
