//===- tests/SolverTest.cpp - Fixpoint solver tests -----------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Solver.h"

#include "runtime/Lattices.h"

#include <gtest/gtest.h>

using namespace flix;

namespace {

/// Both strategies must agree on every program; tests parameterized over
/// the strategy exercise that.
class StrategyTest : public ::testing::TestWithParam<Strategy> {
protected:
  SolverOptions opts() const {
    SolverOptions O;
    O.Strat = GetParam();
    return O;
  }
};

//===----------------------------------------------------------------------===//
// Pure Datalog
//===----------------------------------------------------------------------===//

TEST_P(StrategyTest, TransitiveClosure) {
  ValueFactory F;
  Program P(F);
  PredId Edge = P.relation("Edge", 2);
  PredId Path = P.relation("Path", 2);

  RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
  RuleBuilder()
      .head(Path, {"x", "z"})
      .atom(Path, {"x", "y"})
      .atom(Edge, {"y", "z"})
      .addTo(P);

  auto N = [&](int I) { return F.integer(I); };
  P.addFact(Edge, {N(1), N(2)});
  P.addFact(Edge, {N(2), N(3)});
  P.addFact(Edge, {N(3), N(4)});

  Solver S(P, opts());
  SolveStats St = S.solve();
  ASSERT_TRUE(St.ok()) << St.Error;

  EXPECT_TRUE(S.contains(Path, {N(1), N(2)}));
  EXPECT_TRUE(S.contains(Path, {N(1), N(4)}));
  EXPECT_TRUE(S.contains(Path, {N(2), N(4)}));
  EXPECT_FALSE(S.contains(Path, {N(4), N(1)}));
  EXPECT_EQ(S.table(Path).size(), 6u);
}

TEST_P(StrategyTest, TransitiveClosureOnCycle) {
  ValueFactory F;
  Program P(F);
  PredId Edge = P.relation("Edge", 2);
  PredId Path = P.relation("Path", 2);
  RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
  RuleBuilder()
      .head(Path, {"x", "z"})
      .atom(Path, {"x", "y"})
      .atom(Edge, {"y", "z"})
      .addTo(P);
  auto N = [&](int I) { return F.integer(I); };
  const int K = 10;
  for (int I = 0; I < K; ++I)
    P.addFact(Edge, {N(I), N((I + 1) % K)});
  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.table(Path).size(), static_cast<size_t>(K * K));
}

TEST_P(StrategyTest, SelfLoopRuleFromPaper) {
  // §3.7: SelfLoop(x) :- Edge(x, x).
  ValueFactory F;
  Program P(F);
  PredId Edge = P.relation("Edge", 2);
  PredId SelfLoop = P.relation("SelfLoop", 1);
  RuleBuilder().head(SelfLoop, {"x"}).atom(Edge, {"x", "x"}).addTo(P);
  auto N = [&](int I) { return F.integer(I); };
  P.addFact(Edge, {N(1), N(2)});
  P.addFact(Edge, {N(2), N(2)});
  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_FALSE(S.contains(SelfLoop, {N(1)}));
  EXPECT_TRUE(S.contains(SelfLoop, {N(2)}));
}

TEST_P(StrategyTest, PointsToFromSection21) {
  // Figure 1 rules on the §2.1 Java fragment.
  ValueFactory F;
  Program P(F);
  PredId New = P.relation("New", 2);
  PredId Assign = P.relation("Assign", 2);
  PredId Load = P.relation("Load", 3);
  PredId Store = P.relation("Store", 3);
  PredId VPT = P.relation("VarPointsTo", 2);
  PredId HPT = P.relation("HeapPointsTo", 3);

  RuleBuilder().head(VPT, {"v1", "h1"}).atom(New, {"v1", "h1"}).addTo(P);
  RuleBuilder()
      .head(VPT, {"v1", "h2"})
      .atom(Assign, {"v1", "v2"})
      .atom(VPT, {"v2", "h2"})
      .addTo(P);
  RuleBuilder()
      .head(VPT, {"v1", "h2"})
      .atom(Load, {"v1", "v2", "f"})
      .atom(VPT, {"v2", "h1"})
      .atom(HPT, {"h1", "f", "h2"})
      .addTo(P);
  RuleBuilder()
      .head(HPT, {"h1", "f", "h2"})
      .atom(Store, {"v1", "f", "v2"})
      .atom(VPT, {"v1", "h1"})
      .atom(VPT, {"v2", "h2"})
      .addTo(P);

  auto Str = [&](const char *S) { return F.string(S); };
  P.addFact(New, {Str("o1"), Str("A")});
  P.addFact(New, {Str("o2"), Str("B")});
  P.addFact(Assign, {Str("o3"), Str("o2")});
  P.addFact(Store, {Str("o2"), Str("f"), Str("o1")});
  P.addFact(Load, {Str("r"), Str("o3"), Str("f")});

  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());

  // The paper's expected answer: r may point to A.
  EXPECT_TRUE(S.contains(VPT, {Str("r"), Str("A")}));
  EXPECT_TRUE(S.contains(VPT, {Str("o3"), Str("B")}));
  EXPECT_TRUE(S.contains(HPT, {Str("B"), Str("f"), Str("A")}));
  EXPECT_FALSE(S.contains(VPT, {Str("r"), Str("B")}));
}

//===----------------------------------------------------------------------===//
// Lattice semantics
//===----------------------------------------------------------------------===//

TEST_P(StrategyTest, CellsJoinWithLub) {
  // §3.2 second example: A(1, Pos). A(2, Pos). A(2, Neg). The minimal
  // model is {A(1, Pos), A(2, Top)}.
  ValueFactory F;
  SignLattice Sign(F);
  Program P(F);
  PredId A = P.lattice("A", 2, &Sign);
  P.addLatFact(A, {F.integer(1)}, Sign.pos());
  P.addLatFact(A, {F.integer(2)}, Sign.pos());
  P.addLatFact(A, {F.integer(2)}, Sign.neg());

  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.latValue(A, {F.integer(1)}), Sign.pos());
  EXPECT_EQ(S.latValue(A, {F.integer(2)}), Sign.top());
  EXPECT_EQ(S.table(A).size(), 2u);
}

TEST_P(StrategyTest, LubAcrossRulesFromPaper) {
  // §3.2 "Least Upper and Greatest Lower Bounds": facts A(Odd), B(Even);
  // rules R(x) :- A(x). R(x) :- B(x). give R(Top).
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId A = P.lattice("A", 1, &L);
  PredId B = P.lattice("B", 1, &L);
  PredId R = P.lattice("R", 1, &L);
  P.addLatFact(A, std::initializer_list<Value>{}, L.odd());
  P.addLatFact(B, std::initializer_list<Value>{}, L.even());
  RuleBuilder().head(R, {"x"}).atom(A, {"x"}).addTo(P);
  RuleBuilder().head(R, {"x"}).atom(B, {"x"}).addTo(P);

  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.latValue(R, std::initializer_list<Value>{}), L.top());
}

TEST_P(StrategyTest, GlbWithinRuleFromPaper) {
  // Same facts; rule R(x) :- A(x), B(x). gives R(Bot) — which the engine
  // does not materialize, so the R cell stays implicitly bottom.
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId A = P.lattice("A", 1, &L);
  PredId B = P.lattice("B", 1, &L);
  PredId R = P.lattice("R", 1, &L);
  P.addLatFact(A, std::initializer_list<Value>{}, L.odd());
  P.addLatFact(B, std::initializer_list<Value>{}, L.even());
  RuleBuilder().head(R, {"x"}).atom(A, {"x"}).atom(B, {"x"}).addTo(P);

  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.latValue(R, std::initializer_list<Value>{}), L.bot());
  EXPECT_EQ(S.table(R).size(), 0u);
}

TEST_P(StrategyTest, GlbWithinRulePartialOverlap) {
  // When the two cells agree, the glb is the shared element.
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId A = P.lattice("A", 1, &L);
  PredId B = P.lattice("B", 1, &L);
  PredId R = P.lattice("R", 1, &L);
  P.addLatFact(A, std::initializer_list<Value>{}, L.odd());
  P.addLatFact(B, std::initializer_list<Value>{}, L.top());
  RuleBuilder().head(R, {"x"}).atom(A, {"x"}).atom(B, {"x"}).addTo(P);
  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.latValue(R, std::initializer_list<Value>{}), L.odd());
}

TEST_P(StrategyTest, SemiNaiveCompactnessExample) {
  // §3.7: A(Odd). B(Even). A(x) :- B(x). R(x) :- isMaybeZero(x), A(x).
  // The A cell joins to Top, and R must be evaluated with x ↦ Top, not
  // with the stale x ↦ Even — the minimal model has R(Top).
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

  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.latValue(A, std::initializer_list<Value>{}), L.top());
  EXPECT_EQ(S.latValue(R, std::initializer_list<Value>{}), L.top());
}

TEST_P(StrategyTest, TransferFunctionInHead) {
  // IntVar-style abstract addition: R(sum(a, b)) :- A(a), B(b).
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId A = P.lattice("A", 1, &L);
  PredId B = P.lattice("B", 1, &L);
  PredId R = P.lattice("R", 1, &L);
  FnId Sum = P.function("sum", 2, FnRole::Transfer,
                        [&](std::span<const Value> Args) {
                          return L.sum(Args[0], Args[1]);
                        });
  P.addLatFact(A, std::initializer_list<Value>{}, L.odd());
  P.addLatFact(B, std::initializer_list<Value>{}, L.odd());
  RuleBuilder()
      .headFn(R, {}, Sum, {"a", "b"})
      .atom(A, {"a"})
      .atom(B, {"b"})
      .addTo(P);

  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.latValue(R, std::initializer_list<Value>{}), L.even());
}

TEST_P(StrategyTest, ConstantLatticeTermInBodyMatchesByLeq) {
  // A ground lattice term c in a body atom is true iff c ⊑ cell value.
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId A = P.lattice("A", 2, &L);
  PredId Hit = P.relation("Hit", 1);
  P.addLatFact(A, {F.string("k1")}, L.top());
  P.addLatFact(A, {F.string("k2")}, L.even());
  // Hit(k) :- A(k, Odd). — true for k1 (Odd ⊑ Top), false for k2.
  RuleBuilder()
      .head(Hit, {"k"})
      .atom(A, {"k", RuleBuilder::Spec(L.odd())})
      .addTo(P);
  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_TRUE(S.contains(Hit, {F.string("k1")}));
  EXPECT_FALSE(S.contains(Hit, {F.string("k2")}));
}

TEST_P(StrategyTest, ShortestPathsFromSection44) {
  // Dist(y, d + c) :- Dist(x, d), Edge(x, y, c).
  ValueFactory F;
  MinCostLattice L(F);
  Program P(F);
  PredId Edge = P.relation("Edge", 3);
  PredId Dist = P.lattice("Dist", 2, &L);
  FnId Add = P.function("addCost", 2, FnRole::Transfer,
                        [&](std::span<const Value> Args) {
                          if (L.isInfinity(Args[0]) || L.isInfinity(Args[1]))
                            return L.infinity();
                          return L.cost(Args[0].asInt() + Args[1].asInt());
                        });
  auto N = [&](int I) { return F.integer(I); };
  P.addFact(Edge, {N(1), N(2), N(4)});
  P.addFact(Edge, {N(1), N(3), N(1)});
  P.addFact(Edge, {N(3), N(2), N(1)});
  P.addFact(Edge, {N(2), N(4), N(1)});
  P.addLatFact(Dist, {N(1)}, L.cost(0));
  RuleBuilder()
      .headFn(Dist, {"y"}, Add, {"d", "c"})
      .atom(Dist, {"x", "d"})
      .atom(Edge, {"x", "y", "c"})
      .addTo(P);

  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.latValue(Dist, {N(2)}), L.cost(2)); // via 3
  EXPECT_EQ(S.latValue(Dist, {N(3)}), L.cost(1));
  EXPECT_EQ(S.latValue(Dist, {N(4)}), L.cost(3));
}

TEST_P(StrategyTest, BinderEnumeratesSetElements) {
  // R(n, d) :- A(n), d <- succs(n). where succs returns a set.
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  PredId R = P.relation("R", 2);
  FnId Succs = P.function("succs", 1, FnRole::Binder,
                          [&](std::span<const Value> Args) {
                            int64_t N = Args[0].asInt();
                            return F.set({F.integer(N + 1), F.integer(N + 2)});
                          });
  RuleBuilder()
      .head(R, {"n", "d"})
      .atom(A, {"n"})
      .bind({"d"}, Succs, {"n"})
      .addTo(P);
  P.addFact(A, {F.integer(10)});
  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_TRUE(S.contains(R, {F.integer(10), F.integer(11)}));
  EXPECT_TRUE(S.contains(R, {F.integer(10), F.integer(12)}));
  EXPECT_EQ(S.table(R).size(), 2u);
}

TEST_P(StrategyTest, BinderWithTuplePattern) {
  // (a, b) <- pairs(n) destructures 2-tuple elements.
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  PredId R = P.relation("R", 2);
  FnId Pairs = P.function(
      "pairs", 1, FnRole::Binder, [&](std::span<const Value> Args) {
        int64_t N = Args[0].asInt();
        return F.set({F.tuple({F.integer(N), F.integer(N * 2)}),
                      F.tuple({F.integer(N + 1), F.integer(N * 3)})});
      });
  RuleBuilder()
      .head(R, {"a", "b"})
      .atom(A, {"n"})
      .bind({"a", "b"}, Pairs, {"n"})
      .addTo(P);
  P.addFact(A, {F.integer(5)});
  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_TRUE(S.contains(R, {F.integer(5), F.integer(10)}));
  EXPECT_TRUE(S.contains(R, {F.integer(6), F.integer(15)}));
}

//===----------------------------------------------------------------------===//
// Stratified negation (the §7 extension)
//===----------------------------------------------------------------------===//

TEST_P(StrategyTest, StratifiedNegationComplement) {
  // Unreachable(x) :- Node(x), !Reach(x).
  ValueFactory F;
  Program P(F);
  PredId Node = P.relation("Node", 1);
  PredId Edge = P.relation("Edge", 2);
  PredId Reach = P.relation("Reach", 1);
  PredId Unreach = P.relation("Unreach", 1);
  auto N = [&](int I) { return F.integer(I); };
  RuleBuilder().head(Reach, {"x"}).atom(Edge, {RuleBuilder::Spec(N(1)), "x"}).addTo(P);
  RuleBuilder()
      .head(Reach, {"y"})
      .atom(Reach, {"x"})
      .atom(Edge, {"x", "y"})
      .addTo(P);
  RuleBuilder()
      .head(Unreach, {"x"})
      .atom(Node, {"x"})
      .negated(Reach, {"x"})
      .addTo(P);
  for (int I = 1; I <= 5; ++I)
    P.addFact(Node, {N(I)});
  P.addFact(Edge, {N(1), N(2)});
  P.addFact(Edge, {N(2), N(3)});
  P.addFact(Edge, {N(4), N(5)});

  Solver S(P, opts());
  SolveStats St = S.solve();
  ASSERT_TRUE(St.ok()) << St.Error;
  EXPECT_TRUE(S.contains(Reach, {N(2)}));
  EXPECT_TRUE(S.contains(Reach, {N(3)}));
  EXPECT_FALSE(S.contains(Reach, {N(4)}));
  EXPECT_TRUE(S.contains(Unreach, {N(4)}));
  EXPECT_TRUE(S.contains(Unreach, {N(5)}));
  EXPECT_TRUE(S.contains(Unreach, {N(1)})); // 1 has no in-edge from 1
  EXPECT_FALSE(S.contains(Unreach, {N(2)}));
}

TEST_P(StrategyTest, NonStratifiableProgramRejected) {
  // A(x) :- N(x), !B(x). B(x) :- N(x), !A(x). (§3.5)
  ValueFactory F;
  Program P(F);
  PredId N = P.relation("N", 1);
  PredId A = P.relation("A", 1);
  PredId B = P.relation("B", 1);
  RuleBuilder().head(A, {"x"}).atom(N, {"x"}).negated(B, {"x"}).addTo(P);
  RuleBuilder().head(B, {"x"}).atom(N, {"x"}).negated(A, {"x"}).addTo(P);
  P.addFact(N, {F.integer(1)});
  Solver S(P, opts());
  SolveStats St = S.solve();
  EXPECT_EQ(St.St, SolveStats::Status::Error);
  EXPECT_NE(St.Error.find("not stratifiable"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Validation, limits, options
//===----------------------------------------------------------------------===//

TEST_P(StrategyTest, UnboundHeadVariableRejected) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  PredId R = P.relation("R", 2);
  RuleBuilder().head(R, {"x", "y"}).atom(A, {"x"}).addTo(P);
  Solver S(P, opts());
  SolveStats St = S.solve();
  EXPECT_EQ(St.St, SolveStats::Status::Error);
  EXPECT_NE(St.Error.find("unbound"), std::string::npos);
}

TEST_P(StrategyTest, TimeoutAborts) {
  // A quadratic-ish blowup with a tiny time limit must report Timeout.
  ValueFactory F;
  Program P(F);
  PredId Edge = P.relation("Edge", 2);
  PredId Path = P.relation("Path", 2);
  RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
  RuleBuilder()
      .head(Path, {"x", "z"})
      .atom(Path, {"x", "y"})
      .atom(Path, {"y", "z"})
      .addTo(P);
  for (int I = 0; I < 400; ++I)
    P.addFact(Edge, {F.integer(I), F.integer((I + 1) % 400)});
  SolverOptions O = opts();
  O.TimeLimitSeconds = 0.01;
  Solver S(P, O);
  SolveStats St = S.solve();
  EXPECT_EQ(St.St, SolveStats::Status::Timeout);
}

TEST_P(StrategyTest, AnonymousVariablesAreFresh) {
  // R(x) :- A(x, _), B(_). — the two _ are independent.
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 2);
  PredId B = P.relation("B", 1);
  PredId R = P.relation("R", 1);
  RuleBuilder()
      .head(R, {"x"})
      .atom(A, {"x", "_"})
      .atom(B, {"_"})
      .addTo(P);
  P.addFact(A, {F.integer(1), F.integer(10)});
  P.addFact(B, {F.integer(99)});
  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_TRUE(S.contains(R, {F.integer(1)}));
}

TEST_P(StrategyTest, NoIndexOptionSameResult) {
  ValueFactory F;
  Program P(F);
  PredId Edge = P.relation("Edge", 2);
  PredId Path = P.relation("Path", 2);
  RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
  RuleBuilder()
      .head(Path, {"x", "z"})
      .atom(Path, {"x", "y"})
      .atom(Edge, {"y", "z"})
      .addTo(P);
  for (int I = 0; I < 20; ++I)
    P.addFact(Edge, {F.integer(I), F.integer(I + 1)});
  SolverOptions O = opts();
  O.UseIndexes = false;
  Solver S(P, O);
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.table(Path).size(), 20u * 21u / 2);
}

TEST_P(StrategyTest, WrittenOrderSameResult) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 2);
  PredId B = P.relation("B", 2);
  PredId R = P.relation("R", 2);
  // Deliberately bad order: B's variables are unbound first.
  RuleBuilder()
      .head(R, {"x", "z"})
      .atom(B, {"y", "z"})
      .atom(A, {"x", "y"})
      .addTo(P);
  for (int I = 0; I < 10; ++I) {
    P.addFact(A, {F.integer(I), F.integer(I + 100)});
    P.addFact(B, {F.integer(I + 100), F.integer(I + 200)});
  }
  // Evaluated as written (B first, nothing bound) and under the
  // cost-based order: same model.
  for (bool CostBased : {false, true}) {
    SolverOptions O = opts();
    O.CostBasedPlans = CostBased;
    Solver S(P, O);
    ASSERT_TRUE(S.solve().ok());
    EXPECT_EQ(S.table(R).size(), 10u) << "cost-based=" << CostBased;
    EXPECT_TRUE(S.contains(R, {F.integer(3), F.integer(203)}));
  }
}

TEST_P(StrategyTest, FactsOnlyProgram) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  P.addFact(A, {F.integer(1)});
  P.addFact(A, {F.integer(1)}); // duplicate facts collapse
  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.table(A).size(), 1u);
}

TEST_P(StrategyTest, EmptyBodyRuleActsAsFact) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  RuleBuilder().head(A, {RuleBuilder::Spec(F.integer(7))}).addTo(P);
  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_TRUE(S.contains(A, {F.integer(7)}));
}

TEST_P(StrategyTest, MutualRecursionAcrossLatticesAndRelations) {
  // A lat predicate feeding a relation feeding the lat predicate.
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId Seen = P.relation("Seen", 1);
  PredId Val = P.lattice("Val", 2, &L);
  PredId Link = P.relation("Link", 2);
  // Val(y, p) :- Link(x, y), Val(x, p).
  RuleBuilder()
      .head(Val, {"y", "p"})
      .atom(Link, {"x", "y"})
      .atom(Val, {"x", "p"})
      .addTo(P);
  // Seen(x) :- Val(x, _).
  RuleBuilder().head(Seen, {"x"}).atom(Val, {"x", "_"}).addTo(P);
  auto Str = [&](const char *S) { return F.string(S); };
  P.addFact(Link, {Str("a"), Str("b")});
  P.addFact(Link, {Str("b"), Str("c")});
  P.addLatFact(Val, {Str("a")}, L.odd());
  P.addLatFact(Val, {Str("b")}, L.even());
  Solver S(P, opts());
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(S.latValue(Val, {Str("b")}), L.top()); // odd ⊔ even
  EXPECT_EQ(S.latValue(Val, {Str("c")}), L.top());
  EXPECT_TRUE(S.contains(Seen, {Str("c")}));
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategyTest,
                         ::testing::Values(Strategy::Naive,
                                           Strategy::SemiNaive),
                         [](const auto &Info) {
                           return Info.param == Strategy::Naive
                                      ? "Naive"
                                      : "SemiNaive";
                         });

//===----------------------------------------------------------------------===//
// Strategy-specific behavior
//===----------------------------------------------------------------------===//

TEST(SolverStatsTest, SemiNaiveDoesLessWorkThanNaive) {
  auto build = [](ValueFactory &F, Program &P) {
    PredId Edge = P.relation("Edge", 2);
    PredId Path = P.relation("Path", 2);
    RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
    RuleBuilder()
        .head(Path, {"x", "z"})
        .atom(Path, {"x", "y"})
        .atom(Edge, {"y", "z"})
        .addTo(P);
    for (int I = 0; I < 60; ++I)
      P.addFact(Edge, {F.integer(I), F.integer(I + 1)});
  };
  ValueFactory F1, F2;
  Program P1(F1), P2(F2);
  build(F1, P1);
  build(F2, P2);
  SolverOptions ON, OS;
  ON.Strat = Strategy::Naive;
  OS.Strat = Strategy::SemiNaive;
  Solver SN(P1, ON), SS(P2, OS);
  SolveStats StN = SN.solve(), StS = SS.solve();
  ASSERT_TRUE(StN.ok());
  ASSERT_TRUE(StS.ok());
  EXPECT_EQ(SN.table(1).size(), SS.table(1).size());
  // Naive re-derives every fact every pass; semi-naive must fire far
  // fewer rule instantiations.
  EXPECT_GT(StN.RuleFirings, 4 * StS.RuleFirings);
}

TEST(SolverStatsTest, MemoryAccountingCoversAuxiliaryStructures) {
  // SolveStats::MemoryBytes must cover everything the solver holds: it
  // is bounded below by the tables plus the interned values, and each
  // auxiliary structure — memo cache, provenance, support index — must
  // show up in it (regression for the under-accounting that ignored all
  // three).
  auto build = [](ValueFactory &F, Program &P) {
    PredId Edge = P.relation("Edge", 2);
    PredId Path = P.relation("Path", 2);
    FnId Ok = P.function("ok", 1, FnRole::Filter,
                         [&F](std::span<const Value> A) {
                           (void)A;
                           return F.boolean(true);
                         });
    RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
    RuleBuilder()
        .head(Path, {"x", "z"})
        .atom(Path, {"x", "y"})
        .atom(Edge, {"y", "z"})
        .filter(Ok, {"z"})
        .addTo(P);
    for (int I = 0; I < 40; ++I)
      P.addFact(Edge, {F.integer(I), F.integer(I + 1)});
  };

  auto footprint = [&](bool Memo, bool Prov, bool Support) {
    ValueFactory F;
    Program P(F);
    build(F, P);
    SolverOptions O;
    O.EnableMemo = Memo;
    O.TrackProvenance = Prov;
    O.TrackSupport = Support;
    Solver S(P, O);
    SolveStats St = S.solve();
    EXPECT_TRUE(St.ok()) << St.Error;
    size_t TableBytes = F.memoryBytes();
    for (PredId Pr = 0; Pr < P.predicates().size(); ++Pr)
      TableBytes += S.table(Pr).memoryBytes();
    EXPECT_GE(St.MemoryBytes, TableBytes);
    return St.MemoryBytes;
  };

  size_t Bare = footprint(false, false, false);
  size_t WithMemo = footprint(true, false, false);
  size_t WithProv = footprint(true, true, false);
  size_t WithSupport = footprint(true, true, true);
  // The solves are deterministic and differ only in the structures
  // switched on, so each step adds strictly positive footprint.
  EXPECT_GT(WithMemo, Bare);
  EXPECT_GT(WithProv, WithMemo);
  EXPECT_GT(WithSupport, WithProv);
}

TEST(SolverStatsTest, IndexesAreCreatedOnDemand) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 2);
  PredId B = P.relation("B", 2);
  PredId R = P.relation("R", 2);
  RuleBuilder()
      .head(R, {"x", "z"})
      .atom(A, {"x", "y"})
      .atom(B, {"y", "z"})
      .addTo(P);
  for (int I = 0; I < 10; ++I) {
    P.addFact(A, {F.integer(I), F.integer(I)});
    P.addFact(B, {F.integer(I), F.integer(I)});
  }
  Solver S(P);
  ASSERT_TRUE(S.solve().ok());
  // B is probed with its first column bound: exactly one index.
  EXPECT_EQ(S.table(B).numIndexes(), 1u);
  EXPECT_EQ(S.table(R).size(), 10u);
}

} // namespace
