//===- tests/PlanDifferentialTest.cpp - plans vs independent references ---===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// Differential matrix for the compiled-plan executor, the cost-based
/// join planner and the extern memo cache: CostBasedPlans {off,on} x
/// EnableMemo {off,on} x NumThreads {0,1,8} — 12 configurations per
/// workload — must all produce the result of an independent imperative
/// reference: Dijkstra for shortest paths, the tabulation solver for
/// IFDS, and the hand-coded worklist analyzer for Strong Update.
/// CostBasedPlans off evaluates every rule in its written (driver-first)
/// order, so each workload is solved under at least two genuinely
/// different join orders.
///
/// Workloads are the three paper case-study families: shortest paths on
/// a weighted graph (lattice transfer function), IFDS on a synthetic
/// ICFG (relational, flow functions as externs), and the Figure 4 Strong
/// Update analysis on a pointer program (filters + negation + lattice
/// head function). Strong Update also runs through the FLIX-source
/// pipeline, where every extern is a FLIX call and the memo cache sees
/// real traffic.
///
//===----------------------------------------------------------------------===//

#include "analyses/Ifds.h"
#include "analyses/ShortestPaths.h"
#include "analyses/StrongUpdate.h"
#include "workload/GraphWorkload.h"
#include "workload/IcfgWorkload.h"
#include "workload/PointerWorkload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace flix;

namespace {

/// The full 12-configuration matrix.
std::vector<SolverOptions> matrix() {
  std::vector<SolverOptions> Out;
  for (bool CostBased : {false, true})
    for (bool Memo : {false, true})
      for (unsigned Threads : {0u, 1u, 8u}) {
        SolverOptions O;
        O.CostBasedPlans = CostBased;
        O.EnableMemo = Memo;
        O.NumThreads = Threads;
        Out.push_back(O);
      }
  return Out;
}

std::string describe(const SolverOptions &O) {
  return "cost-based=" + std::to_string(O.CostBasedPlans) +
         " memo=" + std::to_string(O.EnableMemo) +
         " threads=" + std::to_string(O.NumThreads);
}

TEST(PlanDifferentialTest, ShortestPathsMatrix) {
  WeightedGraph G = generateGraph(11, 150, 4.0, 12);
  SsspResult Ref = runDijkstra(G, 0);
  for (const SolverOptions &O : matrix()) {
    SsspResult R = runShortestPathsFlix(G, 0, O);
    ASSERT_TRUE(R.Ok) << describe(O);
    EXPECT_EQ(R.Dist, Ref.Dist) << describe(O);
  }
}

TEST(PlanDifferentialTest, IfdsMatrix) {
  IcfgProgram G = generateIcfg(5, 10, 32, 90, 3);
  IfdsProblem Prob = G.toIfdsProblem();
  IfdsResult Ref = runIfdsImperative(Prob);
  for (const SolverOptions &O : matrix()) {
    IfdsResult R = runIfdsFlix(Prob, O);
    ASSERT_TRUE(R.Ok) << describe(O) << ": " << R.Error;
    EXPECT_TRUE(R.sameResult(Ref)) << describe(O);
    EXPECT_GT(R.Stats.PlanSteps, 0u) << describe(O);
  }
}

TEST(PlanDifferentialTest, StrongUpdateMatrix) {
  PointerProgram In = generatePointerProgram(13, 700);
  StrongUpdateResult Ref = runStrongUpdateImperative(In);
  ASSERT_TRUE(Ref.ok()) << Ref.Error;
  for (const SolverOptions &O : matrix()) {
    StrongUpdateResult R = runStrongUpdateFlix(In, O);
    ASSERT_TRUE(R.ok()) << describe(O) << ": " << R.Error;
    EXPECT_TRUE(R.samePointsTo(Ref)) << describe(O);
  }
}

TEST(PlanDifferentialTest, StrongUpdateInterpretedSourceMatrix) {
  // The FLIX-source pipeline: every lattice op and filter is a FLIX call,
  // so memoized configurations exercise the sharded cache under real
  // contention at 8 threads.
  PointerProgram In = generatePointerProgram(13, 300);
  StrongUpdateResult Ref = runStrongUpdateImperative(In);
  ASSERT_TRUE(Ref.ok()) << Ref.Error;
  for (const SolverOptions &O : matrix()) {
    StrongUpdateResult R = runStrongUpdateFlixSource(In, O);
    ASSERT_TRUE(R.ok()) << describe(O) << ": " << R.Error;
    EXPECT_TRUE(R.samePointsTo(Ref)) << describe(O);
  }
}

} // namespace
