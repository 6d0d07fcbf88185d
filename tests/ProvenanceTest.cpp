//===- tests/ProvenanceTest.cpp - derivation-tracking tests ----------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Solver.h"

#include "runtime/Lattices.h"

#include <gtest/gtest.h>

using namespace flix;

namespace {

SolverOptions withProvenance() {
  SolverOptions Opts;
  Opts.TrackProvenance = true;
  return Opts;
}

/// Solves \p P with provenance on \p Threads workers (0: in place) and
/// returns the derivation of cell (\p Pred, \p Key).
Derivation explainAt(const Program &P, unsigned Threads, PredId Pred,
                     std::span<const Value> Key) {
  SolverOptions Opts = withProvenance();
  Opts.NumThreads = Threads;
  Solver S(P, Opts);
  SolveStats St = S.solve();
  EXPECT_TRUE(St.ok()) << St.Error;
  const Derivation *D = S.explain(Pred, Key);
  EXPECT_NE(D, nullptr);
  return D ? *D : Derivation();
}

TEST(ProvenanceTest, FactsExplainAsFacts) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  P.addFact(A, {F.integer(1)});
  Solver S(P, withProvenance());
  ASSERT_TRUE(S.solve().ok());
  Value Key[1] = {F.integer(1)};
  const Derivation *D = S.explain(A, Key);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->RuleIndex, Derivation::FromFact);
  EXPECT_TRUE(D->Premises.empty());
  std::string Text = S.explainString(A, Key);
  EXPECT_NE(Text.find("<- fact"), std::string::npos);
}

TEST(ProvenanceTest, TransitiveClosureChain) {
  ValueFactory F;
  Program P(F);
  PredId Edge = P.relation("Edge", 2);
  PredId Path = P.relation("Path", 2);
  RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P); // 0
  RuleBuilder()                                                        // 1
      .head(Path, {"x", "z"})
      .atom(Path, {"x", "y"})
      .atom(Edge, {"y", "z"})
      .addTo(P);
  P.addFact(Edge, {F.integer(1), F.integer(2)});
  P.addFact(Edge, {F.integer(2), F.integer(3)});
  Solver S(P, withProvenance());
  ASSERT_TRUE(S.solve().ok());

  Value Key13[2] = {F.integer(1), F.integer(3)};
  const Derivation *D = S.explain(Path, Key13);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->RuleIndex, 1u); // the recursive rule
  ASSERT_EQ(D->Premises.size(), 2u);
  EXPECT_EQ(D->Premises[0].Pred, Path);
  EXPECT_EQ(D->Premises[0].Key, F.tuple({F.integer(1), F.integer(2)}));
  EXPECT_EQ(D->Premises[1].Pred, Edge);
  EXPECT_EQ(D->Premises[1].Key, F.tuple({F.integer(2), F.integer(3)}));

  // The rendered tree bottoms out at facts.
  std::string Text = S.explainString(Path, Key13);
  EXPECT_NE(Text.find("Path(1, 3)"), std::string::npos);
  EXPECT_NE(Text.find("rule #1"), std::string::npos);
  EXPECT_NE(Text.find("Edge(1, 2)"), std::string::npos);
  EXPECT_NE(Text.find("<- fact"), std::string::npos);
}

TEST(ProvenanceTest, LatticeDerivationShowsLastIncrease) {
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId A = P.lattice("A", 1, &L);
  PredId B = P.lattice("B", 1, &L);
  RuleBuilder().head(B, {"x"}).atom(A, {"x"}).addTo(P);
  P.addLatFact(A, std::initializer_list<Value>{}, L.odd());
  P.addLatFact(A, std::initializer_list<Value>{}, L.even());
  Solver S(P, withProvenance());
  ASSERT_TRUE(S.solve().ok());
  // B joined to ⊤; its derivation points at the (⊤-valued) A cell.
  const Derivation *D = S.explain(B, std::span<const Value>{});
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->RuleIndex, 0u);
  ASSERT_EQ(D->Premises.size(), 1u);
  EXPECT_EQ(D->Premises[0].Pred, A);
  EXPECT_EQ(D->Premises[0].LatValue, L.top());
  std::string Text = S.explainString(B, std::span<const Value>{});
  EXPECT_NE(Text.find("Parity.Top"), std::string::npos);
}

TEST(ProvenanceTest, DepthLimitTruncates) {
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
  for (int I = 0; I < 10; ++I)
    P.addFact(Edge, {F.integer(I), F.integer(I + 1)});
  Solver S(P, withProvenance());
  ASSERT_TRUE(S.solve().ok());
  Value Key[2] = {F.integer(0), F.integer(10)};
  std::string Shallow = S.explainString(Path, Key, /*Depth=*/1);
  EXPECT_NE(Shallow.find("..."), std::string::npos);
  std::string Deep = S.explainString(Path, Key, /*Depth=*/20);
  EXPECT_EQ(Deep.find("..."), std::string::npos);
  EXPECT_NE(Deep.find("Edge(0, 1)"), std::string::npos);
}

TEST(ProvenanceTest, UntrackedReturnsNull) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  P.addFact(A, {F.integer(1)});
  Solver S(P); // provenance off
  ASSERT_TRUE(S.solve().ok());
  Value Key[1] = {F.integer(1)};
  EXPECT_EQ(S.explain(A, Key), nullptr);
  EXPECT_NE(S.explainString(A, Key).find("not tracked"),
            std::string::npos);
}

TEST(ProvenanceTest, AbsentCellReturnsNull) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  P.addFact(A, {F.integer(1)});
  Solver S(P, withProvenance());
  ASSERT_TRUE(S.solve().ok());
  Value Key[1] = {F.integer(99)};
  EXPECT_EQ(S.explain(A, Key), nullptr);
}

TEST(ProvenanceTest, NegationAndFiltersAreNotPremises) {
  // Negated atoms and filters contribute no premise rows (there is no
  // witness tuple to point at).
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  PredId B = P.relation("B", 1);
  PredId C = P.relation("C", 1);
  FnId Pos = P.function("pos", 1, FnRole::Filter,
                        [&F](std::span<const Value> Args) {
                          return F.boolean(Args[0].asInt() > 0);
                        });
  RuleBuilder()
      .head(C, {"x"})
      .atom(A, {"x"})
      .negated(B, {"x"})
      .filter(Pos, {"x"})
      .addTo(P);
  P.addFact(A, {F.integer(5)});
  Solver S(P, withProvenance());
  ASSERT_TRUE(S.solve().ok());
  Value Key[1] = {F.integer(5)};
  const Derivation *D = S.explain(C, Key);
  ASSERT_NE(D, nullptr);
  ASSERT_EQ(D->Premises.size(), 1u);
  EXPECT_EQ(D->Premises[0].Pred, A);
}

TEST(ProvenanceTest, PremiseValueIsTheCellValueNotTheRuleConstant) {
  // B(x) <- A(x, Odd) matches A(1) = ⊤ because Odd ⊑ ⊤. The premise
  // records what the cell holds, not the constant the rule tested it
  // against, on every engine.
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId A = P.lattice("A", 2, &L);
  PredId B = P.relation("B", 1);
  RuleBuilder().head(B, {"x"}).atom(A, {"x", L.odd()}).addTo(P);
  P.addLatFact(A, {F.integer(1)}, L.top());
  Value Key[1] = {F.integer(1)};
  for (unsigned Threads : {0u, 2u, 8u}) {
    SCOPED_TRACE(Threads);
    Derivation D = explainAt(P, Threads, B, Key);
    ASSERT_EQ(D.Premises.size(), 1u);
    EXPECT_EQ(D.Premises[0].Pred, A);
    EXPECT_EQ(D.Premises[0].LatValue, L.top());
  }
}

TEST(ProvenanceTest, PremisesFollowBodyOrder) {
  // C's delta round is driven by the derived B, so the round executor
  // matches B before A; the derivation still lists them as written.
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  PredId B0 = P.relation("B0", 1);
  PredId B = P.relation("B", 1);
  PredId C = P.relation("C", 1);
  RuleBuilder().head(C, {"x"}).atom(A, {"x"}).atom(B, {"x"}).addTo(P);
  RuleBuilder().head(B, {"x"}).atom(B0, {"x"}).addTo(P);
  P.addFact(A, {F.integer(1)});
  P.addFact(B0, {F.integer(1)});
  Value Key[1] = {F.integer(1)};
  for (unsigned Threads : {0u, 1u, 2u, 8u}) {
    SCOPED_TRACE(Threads);
    Derivation D = explainAt(P, Threads, C, Key);
    ASSERT_EQ(D.Premises.size(), 2u);
    EXPECT_EQ(D.Premises[0].Pred, A);
    EXPECT_EQ(D.Premises[1].Pred, B);
  }
}

} // namespace
