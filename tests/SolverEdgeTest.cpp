//===- tests/SolverEdgeTest.cpp - solver edge-case tests -------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Solver.h"

#include "runtime/Lattices.h"

#include <gtest/gtest.h>

#include <array>
#include <string>

using namespace flix;

namespace {

/// Transitive closure over a 50-edge chain: one round per path length.
void buildChainClosure(ValueFactory &F, Program &P) {
  PredId Edge = P.relation("Edge", 2);
  PredId Path = P.relation("Path", 2);
  RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
  RuleBuilder()
      .head(Path, {"x", "z"})
      .atom(Path, {"x", "y"})
      .atom(Edge, {"y", "z"})
      .addTo(P);
  for (int I = 0; I < 50; ++I)
    P.addFact(Edge, {F.integer(I), F.integer(I + 1)});
}

/// Every strategy and thread count runs the Solver's one round loop, so
/// MaxIterations bounds them all alike.
constexpr std::array<std::pair<Strategy, unsigned>, 4> LimitConfigs = {{
    {Strategy::Naive, 0},
    {Strategy::SemiNaive, 0},
    {Strategy::Naive, 2},
    {Strategy::SemiNaive, 2},
}};

std::string configName(Strategy Strat, unsigned Threads) {
  return std::string(Strat == Strategy::Naive ? "Naive" : "SemiNaive") +
         " threads" + std::to_string(Threads);
}

TEST(SolverEdgeTest, IterationLimitReported) {
  for (auto [Strat, Threads] : LimitConfigs) {
    SCOPED_TRACE(configName(Strat, Threads));
    ValueFactory F;
    Program P(F);
    buildChainClosure(F, P);
    SolverOptions Opts;
    Opts.Strat = Strat;
    Opts.NumThreads = Threads;
    Opts.MaxIterations = 2;
    Solver S(P, Opts);
    SolveStats St = S.solve();
    EXPECT_EQ(St.St, SolveStats::Status::IterationLimit);
    // Partial results are still a sound under-approximation.
    EXPECT_TRUE(S.contains(1, {F.integer(0), F.integer(1)}));
    EXPECT_FALSE(S.contains(1, {F.integer(0), F.integer(50)}));
  }
}

TEST(SolverEdgeTest, IterationLimitBoundary) {
  // k rounds reach the fixpoint, the last of them changing nothing: a
  // limit of k lets the solve finish, a limit of k - 1 stops it one
  // productive round short.
  for (auto [Strat, Threads] : LimitConfigs) {
    SCOPED_TRACE(configName(Strat, Threads));
    auto run = [&, Strat = Strat, Threads = Threads](uint64_t Limit) {
      ValueFactory F;
      Program P(F);
      buildChainClosure(F, P);
      SolverOptions Opts;
      Opts.Strat = Strat;
      Opts.NumThreads = Threads;
      Opts.MaxIterations = Limit;
      return Solver(P, Opts).solve();
    };
    SolveStats Free = run(0);
    ASSERT_TRUE(Free.ok());
    uint64_t K = Free.Iterations;
    ASSERT_GT(K, 2u);
    SolveStats AtK = run(K);
    EXPECT_EQ(AtK.St, SolveStats::Status::Fixpoint);
    EXPECT_EQ(AtK.Iterations, K);
    SolveStats Short = run(K - 1);
    EXPECT_EQ(Short.St, SolveStats::Status::IterationLimit);
    EXPECT_EQ(Short.Iterations, K - 1);
  }
}

TEST(SolverEdgeTest, RowSetStaysExactAcrossEpochWrap) {
  // Clearing bumps a 16-bit epoch; when it wraps, the stamps are zeroed
  // so no row left over from an old epoch reads as a member.
  RowSet S;
  ASSERT_TRUE(S.insert(3, 8));
  for (uint32_t Clear = 0; Clear < 70000; ++Clear) {
    S.clear();
    ASSERT_FALSE(S.contains(3)) << "after clear " << Clear;
    ASSERT_TRUE(S.insert(Clear % 2 ? 5 : 7, 8));
    ASSERT_FALSE(S.insert(Clear % 2 ? 5 : 7, 8));
  }
  std::vector<uint32_t> Out = {42};
  S.moveTo(Out);
  EXPECT_EQ(Out, std::vector<uint32_t>{5});
  EXPECT_TRUE(S.rows().empty());
  EXPECT_FALSE(S.contains(5));
}

TEST(SolverEdgeTest, BinderReturningEmptySet) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  PredId R = P.relation("R", 1);
  FnId Empty = P.function("empty", 1, FnRole::Binder,
                          [&F](std::span<const Value>) {
                            return F.emptySet();
                          });
  RuleBuilder().head(R, {"d"}).atom(A, {"n"}).bind({"d"}, Empty, {"n"})
      .addTo(P);
  P.addFact(A, {F.integer(1)});
  Solver S(P);
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.table(R).size(), 0u);
}

TEST(SolverEdgeTest, BinderRebindsExistingVariableAsEqualityCheck) {
  // d already bound by the atom: only matching elements survive.
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 2);
  PredId R = P.relation("R", 1);
  FnId Succs = P.function("succs", 1, FnRole::Binder,
                          [&F](std::span<const Value> Args) {
                            return F.set({F.integer(Args[0].asInt() + 1)});
                          });
  // R(d) :- A(n, d), d <- succs(n).  Keeps rows where d == n + 1.
  RuleBuilder()
      .head(R, {"d"})
      .atom(A, {"n", "d"})
      .bind({"d"}, Succs, {"n"})
      .addTo(P);
  P.addFact(A, {F.integer(1), F.integer(2)}); // 2 == 1+1: kept
  P.addFact(A, {F.integer(1), F.integer(5)}); // 5 != 1+1: dropped
  Solver S(P);
  ASSERT_TRUE(S.solve().ok());
  EXPECT_TRUE(S.contains(R, {F.integer(2)}));
  EXPECT_FALSE(S.contains(R, {F.integer(5)}));
}

TEST(SolverEdgeTest, ConstantOnlyFilterRule) {
  // A rule whose filter has no variable arguments at all.
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  PredId R = P.relation("R", 1);
  FnId Yes = P.function("yes", 1, FnRole::Filter,
                        [&F](std::span<const Value> Args) {
                          return F.boolean(Args[0].asInt() == 7);
                        });
  RuleBuilder()
      .head(R, {"x"})
      .atom(A, {"x"})
      .filter(Yes, {RuleBuilder::Spec(F.integer(7))})
      .addTo(P);
  P.addFact(A, {F.integer(1)});
  Solver S(P);
  ASSERT_TRUE(S.solve().ok());
  EXPECT_TRUE(S.contains(R, {F.integer(1)}));
}

TEST(SolverEdgeTest, WideKeyPredicates) {
  // Six key columns: exercises multi-bit index masks.
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 6);
  PredId B = P.relation("B", 2);
  PredId R = P.relation("R", 2);
  RuleBuilder()
      .head(R, {"a", "f"})
      .atom(B, {"a", "c"})
      .atom(A, {"a", "b", "c", "d", "e", "f"})
      .addTo(P);
  auto N = [&](int I) { return F.integer(I); };
  for (int I = 0; I < 10; ++I)
    P.addFact(A, {N(I), N(1), N(I + 1), N(3), N(4), N(I * 10)});
  P.addFact(B, {N(2), N(3)});
  Solver S(P);
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.table(R).size(), 1u);
  EXPECT_TRUE(S.contains(R, {N(2), N(20)}));
}

TEST(SolverEdgeTest, ValidateRejectsNegatedLatticeAtomInIR) {
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId A = P.lattice("A", 2, &L);
  PredId N = P.relation("N", 1);
  PredId R = P.relation("R", 1);
  RuleBuilder()
      .head(R, {"x"})
      .atom(N, {"x"})
      .negated(A, {"x", "_"})
      .addTo(P);
  Solver S(P);
  SolveStats St = S.solve();
  EXPECT_EQ(St.St, SolveStats::Status::Error);
  EXPECT_NE(St.Error.find("negated atom on lattice"), std::string::npos);
}

TEST(SolverEdgeTest, SelfJoinOnSamePredicate) {
  // R(x, z) :- A(x, y), A(y, z): the same table drives both atoms.
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 2);
  PredId R = P.relation("R", 2);
  RuleBuilder()
      .head(R, {"x", "z"})
      .atom(A, {"x", "y"})
      .atom(A, {"y", "z"})
      .addTo(P);
  auto N = [&](int I) { return F.integer(I); };
  P.addFact(A, {N(1), N(2)});
  P.addFact(A, {N(2), N(3)});
  P.addFact(A, {N(3), N(4)});
  Solver S(P);
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.table(R).size(), 2u);
  EXPECT_TRUE(S.contains(R, {N(1), N(3)}));
  EXPECT_TRUE(S.contains(R, {N(2), N(4)}));
}

TEST(SolverEdgeTest, LatticeValueAsJoinKeyInAnotherPredicate) {
  // The lattice value bound from one atom is used as a key in the next.
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId V = P.lattice("V", 2, &L);
  PredId Name = P.relation("Name", 2); // (parity value, label)
  PredId R = P.relation("R", 2);
  RuleBuilder()
      .head(R, {"k", "label"})
      .atom(V, {"k", "p"})
      .atom(Name, {"p", "label"})
      .addTo(P);
  P.addLatFact(V, {F.string("x")}, L.odd());
  P.addFact(Name, {L.odd(), F.string("odd")});
  P.addFact(Name, {L.top(), F.string("top")});
  Solver S(P);
  ASSERT_TRUE(S.solve().ok());
  EXPECT_TRUE(S.contains(R, {F.string("x"), F.string("odd")}));
  EXPECT_FALSE(S.contains(R, {F.string("x"), F.string("top")}));
}

TEST(SolverEdgeTest, IndexHintViaApi) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 2);
  P.addIndexHint(A, 0b10);
  P.addFact(A, {F.integer(1), F.integer(2)});
  Solver S(P);
  EXPECT_EQ(S.table(A).numIndexes(), 1u);
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.table(A).size(), 1u);
}

//===----------------------------------------------------------------------===//
// Absent keys cost no arena memory: lookups hash key spans in place, so the
// value factory only grows for rows actually inserted.
//===----------------------------------------------------------------------===//

TEST(SolverEdgeTest, AbsentKeyQueriesInternNothing) {
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId Edge = P.relation("Edge", 2);
  PredId Path = P.relation("Path", 2);
  PredId Par = P.lattice("Par", 2, &L);
  RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
  RuleBuilder()
      .head(Path, {"x", "z"})
      .atom(Path, {"x", "y"})
      .atom(Edge, {"y", "z"})
      .addTo(P);
  for (int I = 0; I < 50; ++I) {
    P.addFact(Edge, {F.integer(I), F.integer(I + 1)});
    P.addLatFact(Par, {F.integer(I)}, I % 2 ? L.odd() : L.even());
  }
  SolverOptions Opts;
  Opts.TrackProvenance = true;
  Solver S(P, Opts);
  ASSERT_TRUE(S.solve().ok());
  // Warm up: present keys, including a provenance walk.
  ASSERT_TRUE(S.contains(Path, {F.integer(0), F.integer(50)}));
  ASSERT_EQ(S.latValue(Par, {F.integer(3)}), L.odd());
  std::array<Value, 2> Present = {F.integer(0), F.integer(2)};
  ASSERT_NE(S.explain(Path, Present), nullptr);
  S.explainString(Path, Present);

  size_t Before = F.memoryBytes();
  for (int I = 0; I < 10000; ++I) {
    std::array<Value, 2> Key = {F.integer(1000 + I), F.integer(-I)};
    EXPECT_FALSE(S.contains(Path, Key));
    EXPECT_EQ(S.latValue(Par, {Key[0]}), L.bot());
    EXPECT_EQ(S.explain(Path, Key), nullptr);
    EXPECT_NE(S.explainString(Path, Key).find("[absent]"),
              std::string::npos);
  }
  EXPECT_EQ(F.memoryBytes(), Before);
}

TEST(SolverEdgeTest, AbsentKeyProbesAndNegationsInternNothing) {
  // Every probe and negation step of the solve below misses: Query(q, r)
  // probes Edge on (r, q) and negates Blocked(r, q), and no (r, q) pair
  // exists anywhere. The only keys the solve interns are the facts' and
  // the heads', which are interned up front, so the arena must not grow
  // in place or on the round executor.
  constexpr int N = 10000;
  for (unsigned Threads : {0u, 1u, 2u}) {
    ValueFactory F;
    Program P(F);
    PredId Query = P.relation("Query", 2);
    PredId Edge = P.relation("Edge", 3);
    PredId Blocked = P.relation("Blocked", 2);
    PredId Hit = P.relation("Hit", 1);
    PredId Open = P.relation("Open", 1);
    RuleBuilder()
        .head(Hit, {"q"})
        .atom(Query, {"q", "r"})
        .atom(Edge, {"r", "q", "x"})
        .addTo(P);
    RuleBuilder()
        .head(Open, {"q"})
        .atom(Query, {"q", "r"})
        .negated(Blocked, {"r", "q"})
        .addTo(P);
    for (int Q = 0; Q < N; ++Q) {
      P.addFact(Query, {F.integer(Q), F.integer(N + Q)});
      F.tuple({F.integer(Q), F.integer(N + Q)});
      F.tuple({F.integer(Q)}); // the Open(q) head key
    }
    for (int I = 0; I < 500; ++I) {
      P.addFact(Edge, {F.integer(I), F.integer(I), F.integer(I)});
      P.addFact(Blocked, {F.integer(I), F.integer(I + 1)});
      F.tuple({F.integer(I), F.integer(I), F.integer(I)});
      F.tuple({F.integer(I), F.integer(I + 1)});
    }
    SolverOptions Opts;
    Opts.NumThreads = Threads;
    // The written order keeps Query first, so Edge and Blocked are
    // reached by probe and negation steps.
    Opts.CostBasedPlans = false;
    size_t Before = F.memoryBytes();
    Solver S(P, Opts);
    SolveStats St = S.solve();
    ASSERT_TRUE(St.ok()) << "threads " << Threads;
    // Any thread count, 1 included, runs the rounds on the executor.
    if (Threads > 0)
      EXPECT_GT(St.ParallelTasks, 0u) << "threads " << Threads;
    else
      EXPECT_EQ(St.ParallelTasks, 0u);
    EXPECT_EQ(S.table(Hit).size(), 0u);
    EXPECT_EQ(S.table(Open).size(), size_t(N));
    EXPECT_EQ(F.memoryBytes(), Before) << "threads " << Threads;
  }
}

} // namespace
