//===- tests/StatsRegistryTest.cpp - Solver stats registry tests ----------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// The stats registry (fixpoint/Stats.h): every row renders under its key
// and label, and the kind column alone decides the fold (accumulate) and
// the per-update difference (since).
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Stats.h"
#include "server/Json.h"

#include "gtest/gtest.h"

using namespace flix;
using flix::server::Json;

namespace {

/// Gives row I (1-based, in visit order) of \p St the value I * Scale.
template <class StatsT> void fillDistinct(StatsT &St, uint64_t Scale) {
  uint64_t I = 0;
  forEachStat(St, [&](const StatInfo &, auto &Field) {
    Field = static_cast<std::remove_reference_t<decltype(Field)>>(++I *
                                                                  Scale);
  });
}

/// The registry fields of \p St in visit order, with their kinds.
template <class StatsT>
std::vector<std::pair<StatKind, double>> rows(const StatsT &St) {
  std::vector<std::pair<StatKind, double>> Out;
  forEachStat(St, [&](const StatInfo &I, auto V) {
    Out.push_back({I.Kind, static_cast<double>(V)});
  });
  return Out;
}

template <class StatsT> void expectJsonRoundTrip() {
  StatsT St;
  fillDistinct(St, 3);
  Json J;
  std::string Err;
  std::string Text = "{";
  Text += renderStats(St, StatsFormat::Json);
  Text += "}";
  ASSERT_TRUE(server::parseJson(Text, J, Err)) << Err << ": " << Text;
  size_t NumRows = 0;
  forEachStat(St, [&](const StatInfo &I, auto V) {
    ++NumRows;
    const Json *M = J.get(I.Key);
    ASSERT_NE(M, nullptr) << I.Key;
    EXPECT_EQ(M->num(), static_cast<double>(V)) << I.Key;
  });
  EXPECT_EQ(J.Obj.size(), NumRows) << "a JSON key is used twice: " << Text;
}

TEST(StatsRegistry, JsonRoundTripsEveryRow) {
  expectJsonRoundTrip<SolveStats>();
  expectJsonRoundTrip<UpdateStats>();
}

TEST(StatsRegistry, TextNamesEveryRow) {
  UpdateStats U;
  fillDistinct(U, 1);
  U.Seconds = 0.5;
  std::string Text = renderStats(U, StatsFormat::Text);
  forEachStat(U, [&](const StatInfo &I, auto V) {
    std::string Phrase =
        (std::is_floating_point_v<decltype(V)> ? std::string("0.5000")
                                               : std::to_string(V)) +
        " " + I.Label;
    EXPECT_NE(Text.find(Phrase), std::string::npos)
        << Phrase << " in " << Text;
  });
}

TEST(StatsRegistry, SinceDiffsCountersAndSamplesGauges) {
  SolveStats Before, Now;
  fillDistinct(Before, 2);
  fillDistinct(Now, 5);
  Now.St = SolveStats::Status::Timeout;
  SolveStats D = Now.since(Before);
  auto B = rows(Before), N = rows(Now), R = rows(D);
  ASSERT_EQ(R.size(), N.size());
  for (size_t I = 0; I < R.size(); ++I)
    EXPECT_EQ(R[I].second, R[I].first == StatKind::Counter
                               ? N[I].second - B[I].second
                               : N[I].second)
        << "row " << I;
  EXPECT_EQ(D.St, SolveStats::Status::Timeout);
  EXPECT_EQ(D.RuleFirings, Now.RuleFirings - Before.RuleFirings);
  EXPECT_EQ(D.MemoHits, Now.MemoHits);   // gauge: cumulative
  EXPECT_EQ(D.MaxFanout, Now.MaxFanout); // gauge
}

TEST(StatsRegistry, AccumulateSumsCountersAndMaxFoldsFanout) {
  UpdateStats A, B;
  fillDistinct(A, 2);
  fillDistinct(B, 5);
  auto Ra = rows(A), Rb = rows(B);
  UpdateStats Sum = A;
  Sum.accumulate(B);
  auto R = rows(Sum);
  for (size_t I = 0; I < R.size(); ++I)
    EXPECT_EQ(R[I].second, R[I].first == StatKind::Counter
                               ? Ra[I].second + Rb[I].second
                               : std::max(Ra[I].second, Rb[I].second))
        << "row " << I;
  EXPECT_EQ(Sum.CellsDeleted, A.CellsDeleted + B.CellsDeleted);

  // The largest split wins regardless of fold order.
  SolveStats Round, Worker;
  Round.MaxFanout = 7;
  Worker.MaxFanout = 3;
  Worker.SpawnedSubtasks = 4;
  Round.accumulate(Worker);
  EXPECT_EQ(Round.MaxFanout, 7u);
  EXPECT_EQ(Round.SpawnedSubtasks, 4u);
  Worker.MaxFanout = 9;
  Round.accumulate(Worker);
  EXPECT_EQ(Round.MaxFanout, 9u);
  EXPECT_EQ(Round.SpawnedSubtasks, 8u);
}

} // namespace
