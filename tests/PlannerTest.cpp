//===- tests/PlannerTest.cpp - Cost-based join planner tests --------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// Tests for the cost-based adaptive join planner (DESIGN.md §16):
///
///   * cost-model unit tests on hand-built statistics — access-path
///     selectivity math, skewed indexes (Σ bucket²), static column
///     samples, order dominance, deterministic tie-breaking, and
///     chooseOrder against exhaustive enumeration on random rules, plus
///     rules of more than 64 variables;
///   * PlanLibrary re-planning — initial cost-based choose, idempotence,
///     adaptive hysteresis, checks limited to the plans that can run and
///     to plans whose inputs drifted, wantedIndexes order-independence;
///   * a randomized plan-equivalence harness on skewed / fan-out
///     workloads: {greedy, cost-based, adaptive} × {0, 1, 8} threads must
///     all produce the model of the frozen-order sequential baseline
///     (⊔-confluence makes any valid join order yield the same minimal
///     model, so equality is exact);
///   * an index-coverage regression: flipping the written body order
///     must not trip IndexFallbacks once plans (not an assumed order)
///     define the wanted indexes.
///
//===----------------------------------------------------------------------===//

#include "fixpoint/Plan.h"
#include "fixpoint/Solver.h"
#include "runtime/Lattices.h"
#include "workload/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

using namespace flix;
using namespace flix::plan;

namespace {

//===----------------------------------------------------------------------===//
// Cost-model unit tests on hand-built statistics
//===----------------------------------------------------------------------===//

TEST(PlannerCostModelTest, EstimateAccessSelectivity) {
  PredStats St;
  St.LiveRows = 1000;
  uint64_t Full = 0b11;

  // Fully bound: one primary lookup, at most one row out.
  AccessEstimate E = estimateAccess(St, Full, Full, /*UseIndexes=*/true);
  EXPECT_DOUBLE_EQ(E.Cost, 1.0);
  EXPECT_DOUBLE_EQ(E.Fanout, 1.0);

  // Nothing bound: full scan, every row comes out.
  E = estimateAccess(St, 0, Full, true);
  EXPECT_DOUBLE_EQ(E.Cost, 1000.0);
  EXPECT_DOUBLE_EQ(E.Fanout, 1000.0);

  // Partially bound with an existing index: average bucket size.
  St.Indexes.push_back({0b01, /*Buckets=*/100, /*MaxBucket=*/50});
  E = estimateAccess(St, 0b01, Full, true);
  EXPECT_DOUBLE_EQ(E.Fanout, 10.0); // 1000 rows / 100 buckets

  // Partially bound, no statistics for that mask: each bound column is
  // assumed to cut the candidate set by ~sqrt(N).
  E = estimateAccess(St, 0b10, Full, true);
  EXPECT_NEAR(E.Fanout, 1000.0 / std::sqrt(1000.0), 1e-9);

  // Indexes disabled degrade every partial probe to a scan.
  E = estimateAccess(St, 0b01, Full, /*UseIndexes=*/false);
  EXPECT_DOUBLE_EQ(E.Fanout, 1000.0);

  // Empty table: optimistic one-row floor, so join orders stay
  // distinguishable when derived predicates are planned before they fill.
  PredStats Empty;
  E = estimateAccess(Empty, Full, Full, true);
  EXPECT_DOUBLE_EQ(E.Fanout, 1.0);
  E = estimateAccess(Empty, 0, Full, true);
  EXPECT_DOUBLE_EQ(E.Fanout, 1.0);
}

TEST(PlannerCostModelTest, EstimateAccessSeesSkew) {
  PredStats St;
  St.LiveRows = 1000;
  uint64_t Full = 0b11;

  // 100 buckets, one heavy: 901 rows in one bucket, 99 singletons. A
  // probe key drawn from the table's own keys lands in the heavy bucket
  // 90% of the time, so the expected bucket is Σ b²/N, not N/buckets.
  uint64_t SumSq = 901ull * 901 + 99;
  St.Indexes.push_back({0b01, /*Buckets=*/100, /*MaxBucket=*/901, SumSq});
  AccessEstimate E = estimateAccess(St, 0b01, Full, /*UseIndexes=*/true);
  EXPECT_DOUBLE_EQ(E.Fanout, double(SumSq) / 1000);
  EXPECT_DOUBLE_EQ(E.Cost, double(SumSq) / 1000);

  // Uniform buckets: Σ b²/N is the average itself.
  St.Indexes[0] = {0b01, 100, 10, 100ull * 10 * 10};
  E = estimateAccess(St, 0b01, Full, true);
  EXPECT_DOUBLE_EQ(E.Fanout, 10.0);

  // Never below N/buckets, whatever SumSq reads.
  St.Indexes[0] = {0b01, 100, 10, /*SumSq=*/1};
  E = estimateAccess(St, 0b01, Full, true);
  EXPECT_DOUBLE_EQ(E.Fanout, 10.0);

  // Full-key lookups stay at fanout 1, skew or not.
  E = estimateAccess(St, Full, Full, true);
  EXPECT_DOUBLE_EQ(E.Fanout, 1.0);
}

TEST(PlannerCostModelTest, StaticColumnStatsReplaceGuess) {
  uint64_t Full = 0b111;
  PredStats Static;
  Static.LiveRows = 1000;
  Static.ColCollision = {0.01, 0.5, 1.0};

  // No index on the mask: N · Π p_c over the bound columns.
  AccessEstimate E = estimateAccess(Static, 0b001, Full, true);
  EXPECT_DOUBLE_EQ(E.Fanout, 10.0);
  E = estimateAccess(Static, 0b010, Full, true);
  EXPECT_DOUBLE_EQ(E.Fanout, 500.0);
  E = estimateAccess(Static, 0b011, Full, true);
  EXPECT_DOUBLE_EQ(E.Fanout, 5.0);
  // A unique column reads 1/N: one row, and the cost never drops below 1.
  Static.ColCollision[0] = 1.0 / 1000;
  E = estimateAccess(Static, 0b001, Full, true);
  EXPECT_NEAR(E.Fanout, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(E.Cost, 1.0);

  // An index on the mask wins over the column samples.
  Static.Indexes.push_back({0b010, /*Buckets=*/4, /*MaxBucket=*/250,
                            /*SumSq=*/4ull * 250 * 250});
  E = estimateAccess(Static, 0b010, Full, true);
  EXPECT_DOUBLE_EQ(E.Fanout, 250.0);

  // A derived predicate (no column samples) keeps the sqrt(N) guess.
  PredStats Derived;
  Derived.LiveRows = 1000;
  E = estimateAccess(Derived, 0b001, Full, true);
  EXPECT_NEAR(E.Fanout, 1000.0 / std::sqrt(1000.0), 1e-9);
  E = estimateAccess(Derived, 0b011, Full, true);
  EXPECT_NEAR(E.Fanout, 1.0, 1e-9);

  // Indexes disabled: a scan, column samples or not.
  E = estimateAccess(Static, 0b001, Full, /*UseIndexes=*/false);
  EXPECT_DOUBLE_EQ(E.Fanout, 1000.0);
}

/// Figure 5's SummaryEdge rule (perfbench ifds_trivial's fourth rule):
///   SummaryEdge(call, d4, d5) :- CallGraph(call, target),
///       StartNode(target, start), EndNode(target, end),
///       EshCallStart(call, d4, target, d1), PathEdge(d1, end, d2),
///       d5 <- eshEndReturn(target, d2, call).
struct SummaryEdgeCase {
  ValueFactory F;
  Program P{F};
  PredId CallGraph, StartNode, EndNode, PathEdge, SummaryEdge, EshCallStart;
  static constexpr uint32_t EndNodeIdx = 2, EshCallStartIdx = 3,
                            PathEdgeIdx = 4;

  SummaryEdgeCase() {
    CallGraph = P.relation("CallGraph", 2);
    StartNode = P.relation("StartNode", 2);
    EndNode = P.relation("EndNode", 2);
    PathEdge = P.relation("PathEdge", 3);
    SummaryEdge = P.relation("SummaryEdge", 3);
    EshCallStart = P.relation("EshCallStart", 4);
    FnId EndReturn =
        P.function("eshEndReturn", 3, FnRole::Binder,
                   [this](std::span<const Value>) { return F.set({}); });
    RuleBuilder()
        .head(SummaryEdge, {"call", "d4", "d5"})
        .atom(CallGraph, {"call", "target"})
        .atom(StartNode, {"target", "start"})
        .atom(EndNode, {"target", "end"})
        .atom(EshCallStart, {"call", "d4", "target", "d1"})
        .atom(PathEdge, {"d1", "end", "d2"})
        .bind({"d5"}, EndReturn, {"target", "d2", "call"})
        .addTo(P);
  }

  /// Statistics mirroring trivial-flow IFDS on the antlr preset: 52
  /// procedures; EshCallStart holds 384 rows whose d1 index has 146
  /// buckets, the zero-fact bucket holding all but 145 of them;
  /// PathEdge is large. \p SeeSkew false drops what the skew-blind
  /// model never had: SumSq and the static column samples.
  StatsVec stats(bool SeeSkew) const {
    StatsVec S(P.predicates().size());
    auto Static = [&](PredId Pr, double Rows, double P0, double P1) {
      S[Pr].LiveRows = Rows;
      if (SeeSkew)
        S[Pr].ColCollision = {P0, P1};
    };
    Static(CallGraph, 300, 1.0 / 300, 1.0 / 52);
    Static(StartNode, 52, 1.0 / 52, 1.0 / 52);
    Static(EndNode, 52, 1.0 / 52, 1.0 / 52);
    S[EshCallStart].LiveRows = 384;
    S[EshCallStart].Indexes.push_back(
        {0b1000, /*Buckets=*/146, /*MaxBucket=*/239,
         /*SumSq=*/SeeSkew ? 239ull * 239 + 145 : 0});
    S[PathEdge].LiveRows = 20000;
    S[SummaryEdge].LiveRows = 2000;
    return S;
  }
};

TEST(PlannerCostModelTest, SkewedProbeLosesToStaticLookup) {
  SummaryEdgeCase C;
  const Rule &R = C.P.rules()[0];
  std::vector<bool> PreBound(R.NumVars, false);
  int Driver = int(SummaryEdgeCase::PathEdgeIdx);

  // Driven by ΔPathEdge (d1, end, d2 bound): EndNode probed on `end`
  // yields about one row; EshCallStart probed on d1 yields the heavy
  // zero-fact bucket. EndNode must come directly after the driver.
  SmallVector<uint32_t, 8> Got =
      chooseOrder(C.P, R, Driver, C.stats(true), true, PreBound);
  ASSERT_EQ(Got.size(), R.Body.size());
  EXPECT_EQ(Got[0], SummaryEdgeCase::PathEdgeIdx);
  EXPECT_EQ(Got[1], SummaryEdgeCase::EndNodeIdx);

  // The skew-blind statistics (bucket average 2.6, sqrt(N) for the
  // unindexed EndNode) open with the EshCallStart probe instead.
  Got = chooseOrder(C.P, R, Driver, C.stats(false), true, PreBound);
  ASSERT_EQ(Got.size(), R.Body.size());
  EXPECT_EQ(Got[1], SummaryEdgeCase::EshCallStartIdx);
}

TEST(PlannerCostModelTest, StatsCollectorSamplesStaticColumnsOnDrift) {
  // Path(x, y) :- Edge(x, y).  Path(x, z) :- Path(x, y), Edge(y, z).
  // Edge is static; only its column 0 can be found bound (y, bound by
  // Path) unless seed plans front the head's x and z.
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
  BoolLattice BL(F);
  std::vector<std::unique_ptr<Table>> Tables;
  for (size_t I = 0; I < P.predicates().size(); ++I)
    Tables.push_back(std::make_unique<Table>(2, BL, F));
  auto addEdges = [&](int From, int To, int Keys) {
    for (int I = From; I < To; ++I)
      Tables[Edge]->join(F.tuple({F.integer(I % Keys), F.integer(I)}),
                         BL.top());
  };
  // Tables stay within one sample, so the sampled values are exact.
  static_assert(StatsCollector::SampleRows >= 81);
  addEdges(0, 40, 4); // column 0: 4 keys of 10 rows, p = 1/4
  Tables[Path]->join(F.tuple({F.integer(0), F.integer(1)}), BL.top());

  StatsCollector Plain(P, P.rules(), /*Seeds=*/false);
  StatsCollector Seeded(P, P.rules(), /*Seeds=*/true);
  StatsVec St;
  Plain.gather({Tables.data(), Tables.size()}, St);
  EXPECT_TRUE(St[Path].ColCollision.empty()) << "derived: nothing sampled";
  ASSERT_EQ(St[Edge].ColCollision.size(), 2u);
  EXPECT_NEAR(St[Edge].ColCollision[0], 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(St[Edge].ColCollision[1], 1.0) << "never bound";
  Seeded.gather({Tables.data(), Tables.size()}, St);
  EXPECT_NEAR(St[Edge].ColCollision[1], 1.0 / 40, 1e-12) << "seed-bound z";

  // Growth below RecountFactor keeps the last sample; past it, the
  // sample is re-taken (one key now holds most rows).
  addEdges(40, 60, 1);
  Plain.gather({Tables.data(), Tables.size()}, St);
  EXPECT_DOUBLE_EQ(St[Edge].LiveRows, 60.0);
  EXPECT_NEAR(St[Edge].ColCollision[0], 0.25, 1e-12);
  addEdges(60, 81, 1);
  Plain.gather({Tables.data(), Tables.size()}, St);
  double Zero = 10.0 + 41.0; // rows with column 0 == 0
  EXPECT_NEAR(St[Edge].ColCollision[0],
              (Zero * Zero + 3 * 10.0 * 10.0) / (81.0 * 81.0), 1e-12);
}

/// The planner's canonical win: a body written selective-atom-last.
/// Out(s, b) :- Src(s), Big(a, b), Sel(s, a).  In written order Big is
/// reached with nothing bound (full scan, huge fanout); putting Sel
/// before Big turns both into cheap probes.
struct MisorderedJoinCase {
  ValueFactory F;
  Program P{F};
  PredId Src, Big, Sel, Out;

  MisorderedJoinCase() {
    Src = P.relation("Src", 1);
    Big = P.relation("Big", 2);
    Sel = P.relation("Sel", 2);
    Out = P.relation("Out", 2);
    RuleBuilder()
        .head(Out, {"s", "b"})
        .atom(Src, {"s"})
        .atom(Big, {"a", "b"})
        .atom(Sel, {"s", "a"})
        .addTo(P);
  }

  /// Hand-built statistics: Src and Sel tiny, Big enormous.
  StatsVec stats(double BigRows) const {
    StatsVec S(P.predicates().size());
    S[Src].LiveRows = 8;
    S[Big].LiveRows = BigRows;
    S[Big].Indexes.push_back(
        {0b01, /*Buckets=*/size_t(BigRows / 4), /*MaxBucket=*/8});
    S[Sel].LiveRows = 8;
    return S;
  }
};

TEST(PlannerCostModelTest, OrderDominance) {
  MisorderedJoinCase C;
  const Rule &R = C.P.rules()[0];
  StatsVec St = C.stats(1e6);
  std::vector<bool> PreBound(R.NumVars, false);

  uint32_t Written[] = {0, 1, 2}; // Src, Big, Sel
  uint32_t Chosen[] = {0, 2, 1};  // Src, Sel, Big
  double CostWritten =
      orderCost(C.P, R, -1, Written, St, true, PreBound);
  double CostChosen =
      orderCost(C.P, R, -1, Chosen, St, true, PreBound);
  // The written order scans Big with nothing bound; the planner's order
  // probes it with `a` bound. Orders of magnitude, not noise.
  EXPECT_GT(CostWritten, 100 * CostChosen);

  // Whether the planner opens with Src or Sel (both are tiny scans), the
  // one thing a sane order guarantees is that Big is probed last, with
  // `a` already bound.
  SmallVector<uint32_t, 8> Got =
      chooseOrder(C.P, R, -1, St, true, PreBound);
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[2], 1u);
}

TEST(PlannerCostModelTest, DriverStaysFirst) {
  MisorderedJoinCase C;
  const Rule &R = C.P.rules()[0];
  StatsVec St = C.stats(1e6);
  std::vector<bool> PreBound(R.NumVars, false);
  // Even when the driver atom is the expensive one it must open the
  // order — delta-driven evaluation feeds it from the engine.
  SmallVector<uint32_t, 8> Got =
      chooseOrder(C.P, R, /*Driver=*/1, St, true, PreBound);
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[0], 1u);
}

TEST(PlannerCostModelTest, TieBreakingIsDeterministic) {
  // Two indistinguishable atoms: the planner must keep the written order
  // (lowest body index wins ties), and repeated calls must agree.
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 2);
  PredId B = P.relation("B", 2);
  PredId Out = P.relation("OutP", 2);
  RuleBuilder()
      .head(Out, {"x", "z"})
      .atom(A, {"x", "y"})
      .atom(B, {"y", "z"})
      .addTo(P);
  const Rule &R = P.rules()[0];
  StatsVec St(P.predicates().size());
  St[A].LiveRows = 500;
  St[B].LiveRows = 500;
  std::vector<bool> PreBound(R.NumVars, false);

  SmallVector<uint32_t, 8> First =
      chooseOrder(P, R, -1, St, true, PreBound);
  ASSERT_EQ(First.size(), 2u);
  EXPECT_EQ(First[0], 0u) << "ties must break toward the written order";
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(chooseOrder(P, R, -1, St, true, PreBound), First);
}

/// Whether \p Order (body indices, a pinned driver first when \p Driver
/// >= 0) is one the compiler can compile: every filter, binder and
/// negated atom placed after its arguments are bound.
bool validOrder(const Rule &R, int Driver, std::span<const uint32_t> Order,
                const std::vector<bool> &PreBound) {
  std::vector<bool> Bound = PreBound;
  Bound.resize(R.NumVars, false);
  auto AllBound = [&](const auto &Terms) {
    for (const Term &T : Terms)
      if (T.isVar() && !Bound[T.Variable])
        return false;
    return true;
  };
  for (size_t Pos = 0; Pos < Order.size(); ++Pos) {
    const BodyElem &E = R.Body[Order[Pos]];
    bool Pinned = Pos == 0 && Driver >= 0;
    if (const auto *Fl = std::get_if<BodyFilter>(&E)) {
      if (!Pinned && !AllBound(Fl->Args))
        return false;
    } else if (const auto *B = std::get_if<BodyBinder>(&E)) {
      if (!Pinned && !AllBound(B->Args))
        return false;
      for (VarId V : B->Pattern)
        Bound[V] = true;
    } else {
      const auto &A = std::get<BodyAtom>(E);
      if (A.Negated) {
        if (!Pinned && !AllBound(A.Terms))
          return false;
        continue;
      }
      for (const Term &T : A.Terms)
        if (T.isVar())
          Bound[T.Variable] = true;
    }
  }
  return true;
}

/// chooseOrder against exhaustive enumeration: its order must be valid,
/// of minimal orderCost over every valid permutation of the free
/// elements, and the lexicographically smallest of the minimal ones.
void expectExactChoice(const Program &P, const Rule &R, int Driver,
                       const StatsVec &St, bool UseIndexes,
                       const std::vector<bool> &PreBound) {
  std::vector<uint32_t> Free;
  for (uint32_t I = 0; I < R.Body.size(); ++I)
    if (int(I) != Driver)
      Free.push_back(I);
  ASSERT_LE(Free.size(), 6u) << "enumeration is for the exact path only";
  double MinCost = std::numeric_limits<double>::infinity();
  std::vector<uint32_t> Argmin;
  do { // ascending permutations: lexicographic order
    std::vector<uint32_t> Order;
    if (Driver >= 0)
      Order.push_back(uint32_t(Driver));
    Order.insert(Order.end(), Free.begin(), Free.end());
    if (!validOrder(R, Driver, Order, PreBound))
      continue;
    double Cost = orderCost(P, R, Driver, Order, St, UseIndexes, PreBound);
    if (Cost < MinCost) {
      MinCost = Cost;
      Argmin = Order;
    }
  } while (std::next_permutation(Free.begin(), Free.end()));
  ASSERT_FALSE(Argmin.empty()) << "no valid order";

  SmallVector<uint32_t, 8> Got =
      chooseOrder(P, R, Driver, St, UseIndexes, PreBound);
  std::vector<uint32_t> GotV(Got.begin(), Got.end());
  EXPECT_EQ(GotV, Argmin) << "driver " << Driver;
  EXPECT_EQ(orderCost(P, R, Driver, GotV, St, UseIndexes, PreBound),
            MinCost);
}

/// Random statistics for every predicate of \p P: row counts from a
/// small set (so cost ties are common), indexes on random partial masks
/// with random bucket shapes, and column samples on some predicates.
StatsVec randomStats(const Program &P, std::mt19937_64 &Rng) {
  static const double Rows[] = {0, 1, 2, 8, 64, 1000, 50000};
  StatsVec St(P.predicates().size());
  for (PredId Pr = 0; Pr < St.size(); ++Pr) {
    PredStats &S = St[Pr];
    S.LiveRows = Rows[Rng() % std::size(Rows)];
    unsigned KA = P.predicate(Pr).keyArity();
    uint64_t Full = KA == 0 ? 0 : (uint64_t(1) << KA) - 1;
    if (Full > 1 && Rng() % 2)
      for (unsigned K = 0, N = 1 + unsigned(Rng() % 2); K < N; ++K) {
        uint64_t Mask = 1 + Rng() % (Full - 1); // partial, nonzero
        size_t Buckets = 1 + Rng() % (size_t(S.LiveRows) + 1);
        S.Indexes.push_back({Mask, Buckets, /*MaxBucket=*/1,
                             /*SumSq=*/Rng() % 2 ? Rng() % 100000 : 0});
      }
    if (Rng() % 3 == 0)
      for (unsigned C = 0; C < KA; ++C)
        S.ColCollision.push_back(double(1 + Rng() % 8) / 8);
  }
  return St;
}

TEST(PlannerCostModelTest, ChooseOrderIsExactOnRandomRules) {
  std::mt19937_64 Rng(2016);
  auto RandomPreBound = [&](const Rule &R) {
    std::vector<bool> PB(R.NumVars, false);
    for (uint32_t V = 0; V < R.NumVars; ++V)
      PB[V] = Rng() % 5 == 0;
    return PB;
  };
  auto Drivers = [](const Rule &R) {
    std::vector<int> Out = {-1};
    for (size_t I = 0; I < R.Body.size(); ++I)
      if (const auto *A = std::get_if<BodyAtom>(&R.Body[I]))
        if (!A->Negated)
          Out.push_back(int(I));
    return Out;
  };

  // Random positive-atom rules (every permutation is valid).
  unsigned Rules = 0;
  for (uint64_t Seed = 0; Seed < 30; ++Seed) {
    RandomProgramOptions Opts;
    Opts.NumRelations = 3;
    Opts.NumLatPredicates = 2;
    Opts.NumRules = 5;
    Opts.NumConstants = 3;
    Opts.MaxBodyAtoms = 6;
    RandomProgramBundle B = generateRandomProgram(Seed, Opts);
    for (const Rule &R : B.Prog->rules()) {
      ++Rules;
      for (int Driver : Drivers(R)) {
        StatsVec St = randomStats(*B.Prog, Rng);
        bool UseIndexes = Rng() % 4 != 0;
        SCOPED_TRACE("seed " + std::to_string(Seed));
        expectExactChoice(*B.Prog, R, Driver, St, UseIndexes,
                          RandomPreBound(R));
      }
    }
  }
  EXPECT_GT(Rules, 100u);

  // Figure 5's SummaryEdge rule: a binder that only some orders can place.
  SummaryEdgeCase C;
  const Rule &R = C.P.rules()[0];
  for (int Trial = 0; Trial < 40; ++Trial)
    for (int Driver : {-1, int(SummaryEdgeCase::PathEdgeIdx)})
      expectExactChoice(C.P, R, Driver, randomStats(C.P, Rng), true,
                        std::vector<bool>(R.NumVars, false));
}

/// Out(x0, xL) :- W(x0..x_{a-1}), W(x_{a-1}..x_{2a-2}), ..., keep(x0, xL):
/// \p Atoms atoms of key arity \p Arity, each sharing its boundary
/// variable with the next, so (Arity - 1) · Atoms + 1 variables, and a
/// filter over the first and last one (xL) that only an order placing
/// both the first and the last atom before it can run.
struct WideChainCase {
  ValueFactory F;
  Program P{F};
  PredId W, Out;

  WideChainCase(unsigned Atoms, unsigned Arity) {
    W = P.relation("W", Arity);
    Out = P.relation("Out", 2);
    auto Var = [](unsigned I) { return "x" + std::to_string(I); };
    unsigned Last = (Arity - 1) * Atoms;
    FnId Keep = P.function(
        "keep", 2, FnRole::Filter,
        [this](std::span<const Value>) { return F.boolean(true); });
    RuleBuilder RB;
    RB.head(Out, {Var(0), Var(Last)});
    for (unsigned A = 0; A < Atoms; ++A) {
      std::vector<RuleBuilder::Spec> Terms;
      for (unsigned C = 0; C < Arity; ++C)
        Terms.push_back(Var((Arity - 1) * A + C));
      RB.atom(W, std::move(Terms));
    }
    RB.filter(Keep, {Var(0), Var(Last)});
    RB.addTo(P);
  }
};

TEST(PlannerCostModelTest, WideRulesPlanPastSixtyFourVariables) {
  std::mt19937_64 Rng(64);
  // Eight atoms and a filter: 73 variables, 9 body elements, so the
  // greedy path. Its order must be a valid permutation of the body.
  WideChainCase Wide(8, 10);
  const Rule &R = Wide.P.rules()[0];
  ASSERT_GT(R.NumVars, 64u);
  ASSERT_GE(R.Body.size(), 7u);
  for (int Driver : {-1, 0, 3, 7}) {
    std::vector<bool> PreBound(R.NumVars, false);
    PreBound[70] = Rng() % 2; // a variable in the second word
    StatsVec St = randomStats(Wide.P, Rng);
    SmallVector<uint32_t, 8> Got =
        chooseOrder(Wide.P, R, Driver, St, true, PreBound);
    std::vector<uint32_t> Sorted(Got.begin(), Got.end());
    std::sort(Sorted.begin(), Sorted.end());
    std::vector<uint32_t> Body(R.Body.size());
    std::iota(Body.begin(), Body.end(), 0u);
    EXPECT_EQ(Sorted, Body) << "driver " << Driver;
    if (Driver >= 0) {
      EXPECT_EQ(Got[0], uint32_t(Driver));
    }
    EXPECT_TRUE(validOrder(R, Driver, {Got.data(), Got.size()}, PreBound))
        << "driver " << Driver;
  }
  // The plans compile along the chosen orders as well.
  std::vector<Rule> Rules = Wide.P.rules();
  PlanLibrary L(Wide.P, Rules, true);
  StatsVec St(Wide.P.predicates().size());
  St[Wide.W].LiveRows = 1000;
  L.replanFromStats(St, 1.0);
  const RulePlan &Pl = L.plan(0, -1);
  EXPECT_EQ(Pl.BodyOrder.size(), R.Body.size());
  EXPECT_EQ(Pl.NumVars, R.NumVars);

  // Four atoms of arity 20 and the filter: 77 variables in 5 body
  // elements, so the exact search over two-word variable sets.
  WideChainCase Exact(4, 20);
  const Rule &RE = Exact.P.rules()[0];
  ASSERT_GT(RE.NumVars, 64u);
  for (int Trial = 0; Trial < 20; ++Trial)
    for (int Driver : {-1, 0, 2}) {
      std::vector<bool> PreBound(RE.NumVars, false);
      PreBound[RE.NumVars - 1] = Rng() % 2;
      expectExactChoice(Exact.P, RE, Driver, randomStats(Exact.P, Rng), true,
                        PreBound);
    }
}

//===----------------------------------------------------------------------===//
// PlanLibrary re-planning
//===----------------------------------------------------------------------===//

TEST(PlannerReplanTest, InitialChooseThenIdempotent) {
  MisorderedJoinCase C;
  std::vector<Rule> Rules = C.P.rules();
  PlanLibrary L(C.P, Rules, /*UseIndexes=*/true);

  // Construction freezes the driver-first written order.
  EXPECT_EQ(L.costBasedPlans(), 0u);
  {
    const RulePlan &Pl = L.plan(0, -1);
    ASSERT_EQ(Pl.BodyOrder.size(), 3u);
    EXPECT_EQ(Pl.BodyOrder[0], 0u);
    EXPECT_EQ(Pl.BodyOrder[1], 1u);
  }

  // Threshold 1.0 = adopt any strict improvement (the initial choose).
  StatsVec St = C.stats(1e6);
  PlanLibrary::ReplanResult R1 = L.replanFromStats(St, 1.0);
  EXPECT_GT(R1.Replanned, 0u);
  EXPECT_GT(L.costBasedPlans(), 0u);
  {
    const RulePlan &Pl = L.plan(0, -1);
    ASSERT_EQ(Pl.BodyOrder.size(), 3u);
    EXPECT_EQ(Pl.BodyOrder[2], 1u) << "Big must move last";
  }

  // Same statistics again: nothing to improve — re-planning must be a
  // fixpoint, or adaptive checks would thrash every round.
  PlanLibrary::ReplanResult R2 = L.replanFromStats(St, 1.0);
  EXPECT_EQ(R2.Replanned, 0u);
  EXPECT_EQ(R2.RowsDivergence, 0u);
}

TEST(PlannerReplanTest, HysteresisSuppressesMarginalFlips) {
  MisorderedJoinCase C;
  std::vector<Rule> Rules = C.P.rules();
  PlanLibrary L(C.P, Rules, true);
  ASSERT_GT(L.replanFromStats(C.stats(1e6), 1.0).Replanned, 0u);

  // A mild drift in Big's size changes estimated costs but not by the
  // 4x hysteresis factor: the adaptive check must hold the current plan
  // and report the drift it measured.
  PlanLibrary::ReplanResult R = L.replanFromStats(C.stats(1.3e6), 4.0);
  EXPECT_EQ(R.Replanned, 0u);
  EXPECT_EQ(R.RowsDivergence, uint64_t(0.3e6));
}

TEST(PlannerReplanTest, RunnableChecksSkipPlansThatCannotRun) {
  // Out(s, b) :- Src(s), Big(a, b), Sel(s, a), compiled with seed plans.
  // Under stats(1e6) the Driver -1, Src-driven, Big-driven and head-slot
  // plans all have better orders than the written one.
  MisorderedJoinCase C;
  std::vector<Rule> Rules = C.P.rules();
  StatsVec St = C.stats(1e6);
  auto order = [](const RulePlan &Pl) { return Pl.BodyOrder; };
  PlanLibrary Written(C.P, Rules, true, /*Seeds=*/true);
  PlanLibrary L(C.P, Rules, true, /*Seeds=*/true);

  // An update's start: only the seed plans can run.
  RunnablePlans Seeds;
  Seeds.Seeds = true;
  EXPECT_EQ(L.replanFromStats(St, 1.0, &Seeds).Replanned, 1u);
  EXPECT_NE(order(L.plan(0, HeadSlot)), order(Written.plan(0, HeadSlot)));
  EXPECT_EQ(order(L.plan(0, -1)), order(Written.plan(0, -1)));

  // A round boundary: the plans whose positive driver has delta rows,
  // plus the Driver -1 plans while a round 0 is ahead.
  std::vector<std::vector<uint32_t>> Delta(C.P.predicates().size());
  RunnablePlans Round;
  Round.Delta = Delta;
  EXPECT_EQ(L.replanFromStats(St, 1.0, &Round).Replanned, 0u);
  Delta[C.Src] = {0};
  EXPECT_EQ(L.replanFromStats(St, 1.0, &Round).Replanned, 1u);
  EXPECT_EQ(L.plan(0, 0).BodyOrder[2], 1u) << "Big must move last";
  EXPECT_EQ(order(L.plan(0, 1)), order(Written.plan(0, 1)));
  EXPECT_EQ(order(L.plan(0, -1)), order(Written.plan(0, -1)));
  Round.Plain = true;
  EXPECT_EQ(L.replanFromStats(St, 1.0, &Round).Replanned, 1u);
  EXPECT_NE(order(L.plan(0, -1)), order(Written.plan(0, -1)));

  // The initial choose checks every plan: the Big-driven one is left.
  EXPECT_EQ(L.replanFromStats(St, 1.0).Replanned, 1u);
  EXPECT_NE(order(L.plan(0, 1)), order(Written.plan(0, 1)));
}

TEST(PlannerReplanTest, DriftGateRecostsOnlyPastTheRecountFactor) {
  // Out(x, y, z) :- D(x), A(x, y), B(x, z), driven by ΔD: x is bound, so
  // A and B are both probes on x, and the smaller one goes first.
  ValueFactory F;
  Program P(F);
  PredId D = P.relation("D", 1);
  PredId A = P.relation("A", 2);
  PredId B = P.relation("B", 2);
  PredId Out = P.relation("Out", 3);
  RuleBuilder()
      .head(Out, {"x", "y", "z"})
      .atom(D, {"x"})
      .atom(A, {"x", "y"})
      .atom(B, {"x", "z"})
      .addTo(P);
  std::vector<Rule> Rules = P.rules();
  auto stats = [&](double ARows, double BRows) {
    StatsVec St(P.predicates().size());
    St[D].LiveRows = 16;
    St[A].LiveRows = ARows;
    St[A].Indexes.push_back({0b01, /*Buckets=*/10, /*MaxBucket=*/1});
    St[B].LiveRows = BRows;
    St[B].Indexes.push_back({0b01, /*Buckets=*/10, /*MaxBucket=*/1});
    return St;
  };
  auto order = [&](const PlanLibrary &L) {
    const auto &O = L.plan(0, 0).BodyOrder;
    return std::vector<uint32_t>(O.begin(), O.end());
  };
  const std::vector<uint32_t> AFirst = {0, 1, 2}, BFirst = {0, 2, 1};

  PlanLibrary L(P, Rules, true);
  L.replanFromStats(stats(100, 120), 1.0); // the initial choose
  ASSERT_EQ(order(L), AFirst);

  std::vector<std::vector<uint32_t>> Delta(P.predicates().size());
  Delta[D] = {0};
  RunnablePlans Round;
  Round.Delta = Delta;

  // A grows 1.5×: a search would now open with B (any strict gain flips
  // at threshold 1.0), but A has not moved by RecountFactor, so nothing
  // is re-costed and the order stays.
  StatsVec Mild = stats(150, 120);
  std::vector<bool> None(Rules[0].NumVars, false);
  SmallVector<uint32_t, 8> Searched = chooseOrder(P, Rules[0], 0, Mild, true,
                                                  None);
  ASSERT_EQ(std::vector<uint32_t>(Searched.begin(), Searched.end()), BFirst);
  PlanLibrary::ReplanResult R = L.replanFromStats(Mild, 1.0, &Round);
  EXPECT_EQ(R.Checked, 0u);
  EXPECT_EQ(R.Replanned, 0u);
  EXPECT_EQ(R.RowsDivergence, 50u) << "drift is still measured";
  EXPECT_EQ(order(L), AFirst);

  // A at 3× its count at the last check: the plan is re-costed and flips.
  R = L.replanFromStats(stats(300, 120), 1.0, &Round);
  EXPECT_EQ(R.Checked, 1u);
  EXPECT_EQ(R.Replanned, 1u);
  EXPECT_EQ(order(L), BFirst);

  // That check moved the watermark to 300: 1.5× more is quiet again, a
  // shrink past the factor is not.
  EXPECT_EQ(L.replanFromStats(stats(450, 120), 1.0, &Round).Checked, 0u);
  EXPECT_EQ(L.replanFromStats(stats(140, 120), 1.0, &Round).Checked, 1u);
}

TEST(PlannerReplanTest, WantedIndexesIsOrderIndependent) {
  // The same join written in two body orders: after cost-based planning
  // both compile to the same evaluation orders, so the masks the static
  // index analyses must pre-build are identical: wanted indexes are read
  // off compiled plans, never off an assumed driver-first order.
  auto build = [](Program &P, bool Flipped) {
    PredId Src = P.relation("Src", 1);
    PredId Big = P.relation("Big", 2);
    PredId Sel = P.relation("Sel", 2);
    PredId Out = P.relation("Out", 2);
    RuleBuilder B;
    B.head(Out, {"s", "b"}).atom(Src, {"s"});
    if (Flipped)
      B.atom(Sel, {"s", "a"}).atom(Big, {"a", "b"});
    else
      B.atom(Big, {"a", "b"}).atom(Sel, {"s", "a"});
    B.addTo(P);
    return std::array<PredId, 4>{Src, Big, Sel, Out};
  };

  ValueFactory F1, F2;
  Program P1(F1), P2(F2);
  build(P1, false);
  build(P2, true);

  auto masksOf = [](const Program &P, StatsVec St) {
    std::vector<Rule> Rules = P.rules();
    PlanLibrary L(P, Rules, true);
    L.replanFromStats(St, 1.0);
    std::vector<std::vector<uint64_t>> Masks(P.predicates().size());
    L.wantedIndexes(Masks);
    return Masks;
  };

  StatsVec St(P1.predicates().size());
  St[1].LiveRows = 1e6; // Big
  St[0].LiveRows = St[2].LiveRows = 8;
  EXPECT_EQ(masksOf(P1, St), masksOf(P2, St));
}

//===----------------------------------------------------------------------===//
// Randomized plan-equivalence harness
//===----------------------------------------------------------------------===//

/// A skewed, fan-out-heavy workload the planner actually reorders:
/// transitive closure over a hub-dominated graph feeding a 3-atom join
/// whose written order visits the big relation first.
///
///   Path(x,y) :- Edge(x,y).
///   Path(x,z) :- Path(x,y), Edge(y,z).
///   Hit(x,w)  :- Path(x,y), Fan(z,w), Mid(y,z).
struct SkewWorkload {
  ValueFactory F;
  std::vector<std::array<int, 2>> EdgeRows, MidRows, FanRows;
  PredId Edge = 0, Path = 0, Mid = 0, Fan = 0, Hit = 0;

  /// \p Skew picks hub-dominated (true) or uniform-ish (false) shapes.
  SkewWorkload(unsigned Seed, bool Skew) {
    std::mt19937 Rng(Seed);
    int Nodes = 60;
    auto Rand = [&](int N) { return int(Rng() % unsigned(N)); };
    if (Skew) {
      // Star: hub 0 owns most edges, a few feeders point at the hub.
      for (int I = 1; I < Nodes; ++I)
        EdgeRows.push_back({0, I});
      for (int I = 0; I < 8; ++I)
        EdgeRows.push_back({Nodes + I, 0});
    }
    for (int I = 0; I < (Skew ? 40 : 150); ++I)
      EdgeRows.push_back({Rand(Nodes), Rand(Nodes)});
    // Mid: sparse bridge. Fan: large fan-out relation.
    for (int I = 0; I < 30; ++I)
      MidRows.push_back({Rand(Nodes), Rand(8)});
    for (int I = 0; I < (Skew ? 600 : 200); ++I)
      FanRows.push_back({Rand(8), Rand(500)});
  }

  Program build() {
    Program P(F);
    Edge = P.relation("Edge", 2);
    Path = P.relation("Path", 2);
    Mid = P.relation("Mid", 2);
    Fan = P.relation("Fan", 2);
    Hit = P.relation("Hit", 2);
    RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
    RuleBuilder()
        .head(Path, {"x", "z"})
        .atom(Path, {"x", "y"})
        .atom(Edge, {"y", "z"})
        .addTo(P);
    RuleBuilder()
        .head(Hit, {"x", "w"})
        .atom(Path, {"x", "y"})
        .atom(Fan, {"z", "w"})
        .atom(Mid, {"y", "z"})
        .addTo(P);
    for (auto [A, B] : EdgeRows)
      P.addFact(Edge, {F.integer(A), F.integer(B)});
    for (auto [A, B] : MidRows)
      P.addFact(Mid, {F.integer(A), F.integer(B)});
    for (auto [A, B] : FanRows)
      P.addFact(Fan, {F.integer(A), F.integer(B)});
    return P;
  }

  /// Full model of every derived predicate, sorted for exact comparison
  /// (values are hash-consed through the shared factory F).
  using Model = std::vector<std::vector<std::vector<Value>>>;
  Model solve(const SolverOptions &O, SolveStats *OutStats = nullptr) {
    Program P = build();
    Solver S(P, O);
    SolveStats St = S.solve();
    EXPECT_TRUE(St.ok()) << St.Error;
    if (OutStats)
      *OutStats = St;
    Model M;
    for (PredId Pr : {Path, Hit}) {
      std::vector<std::vector<Value>> Rows = S.tuples(Pr);
      std::sort(Rows.begin(), Rows.end());
      M.push_back(std::move(Rows));
    }
    return M;
  }
};

/// The planner-mode matrix: frozen greedy orders, cost-based initial
/// choose only, and adaptive with an aggressive re-plan threshold.
struct PlannerMode {
  const char *Name;
  bool CostBased;
  double Threshold;
};
constexpr PlannerMode Modes[] = {
    {"greedy", false, 0.0},
    {"cost", true, 0.0},
    {"adaptive", true, 1.5},
};

std::string describe(const PlannerMode &M, unsigned Threads) {
  return std::string(M.Name) + " threads=" + std::to_string(Threads);
}

TEST(PlannerEquivalenceTest, RandomizedSkewedWorkloads) {
  for (unsigned Seed : {11u, 23u, 47u}) {
    for (bool Skew : {true, false}) {
      SkewWorkload W(Seed, Skew);
      SolverOptions Base;
      Base.CostBasedPlans = false;
      SkewWorkload::Model Expected = W.solve(Base);
      ASSERT_FALSE(Expected[0].empty());
      for (const PlannerMode &M : Modes) {
        for (unsigned Threads : {0u, 1u, 8u}) {
          SolverOptions O;
          O.CostBasedPlans = M.CostBased;
          O.ReplanThreshold = M.Threshold;
          O.NumThreads = Threads;
          SolveStats St;
          SkewWorkload::Model Got = W.solve(O, &St);
          EXPECT_EQ(Got, Expected)
              << describe(M, Threads) << " seed=" << Seed
              << " skew=" << Skew;
          if (!M.CostBased) {
            EXPECT_EQ(St.CostBasedPlans, 0u) << describe(M, Threads);
          }
        }
      }
    }
  }
}

TEST(PlannerEquivalenceTest, CostPlannerReordersTheSkewedJoin) {
  // Sanity that the matrix above actually exercises different plans: on
  // the skewed workload the cost-based planner must change at least one
  // (rule, driver) order away from the frozen one.
  SkewWorkload W(11, /*Skew=*/true);
  SolverOptions O;
  SolveStats St;
  W.solve(O, &St);
  EXPECT_GT(St.CostBasedPlans, 0u);
}

//===----------------------------------------------------------------------===//
// Index coverage under flipped written orders
//===----------------------------------------------------------------------===//

TEST(PlannerStrictCoverageTest, FlippedBodyOrdersDontTripFallbacks) {
  // Both written orders of the 3-atom join, solved on the round
  // executor: every probe the cost-chosen plans perform must hit a
  // pre-built index. A fallback here means the wanted-index analysis
  // assumed an order the planner did not pick (debug builds assert
  // inside the workers).
  for (bool Flipped : {false, true}) {
    ValueFactory F;
    Program P(F);
    PredId Src = P.relation("Src", 1);
    PredId Big = P.relation("Big", 2);
    PredId Sel = P.relation("Sel", 2);
    PredId Out = P.relation("Out", 2);
    RuleBuilder B;
    B.head(Out, {"s", "b"}).atom(Src, {"s"});
    if (Flipped)
      B.atom(Sel, {"s", "a"}).atom(Big, {"a", "b"});
    else
      B.atom(Big, {"a", "b"}).atom(Sel, {"s", "a"});
    B.addTo(P);

    std::mt19937 Rng(99);
    for (int I = 0; I < 4; ++I)
      P.addFact(Src, {F.integer(I)});
    for (int I = 0; I < 2000; ++I)
      P.addFact(Big, {F.integer(int(Rng() % 64)),
                      F.integer(int(Rng() % 1000))});
    for (int I = 0; I < 4; ++I)
      P.addFact(Sel, {F.integer(I), F.integer(int(Rng() % 64))});

    SolverOptions O;
    O.NumThreads = 4;
    O.ReplanThreshold = 1.0; // re-check every round: worst case for drift
    Solver S(P, O);
    SolveStats St = S.solve();
    ASSERT_TRUE(St.ok()) << St.Error;
    EXPECT_EQ(St.IndexFallbacks, 0u) << "flipped=" << Flipped;
    EXPECT_GT(S.table(Out).size(), 0u);
  }
}

} // namespace
