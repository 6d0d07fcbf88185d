//===- tests/DifferentialTest.cpp - Random-program differential tests ------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// Property-based differential testing: on randomly generated programs in
/// the §3.2 core fragment,
///   (1) naive and semi-naive evaluation agree (the paper's §3.7
///       equivalence argument),
///   (2) evaluation options (indexes, join order) do not change results,
///   (3) the solver matches the brute-force model-theoretic semantics.
///
//===----------------------------------------------------------------------===//

#include "fixpoint/ModelTheory.h"
#include "workload/RandomProgram.h"

#include <gtest/gtest.h>

using namespace flix;

namespace {

Interpretation solveWith(const Program &P, SolverOptions Opts) {
  Solver S(P, Opts);
  SolveStats St = S.solve();
  EXPECT_TRUE(St.ok()) << St.Error;
  return solverModel(P, S);
}

class DifferentialSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialSeedTest, NaiveEqualsSemiNaive) {
  RandomProgramOptions Opts;
  Opts.NumRelations = 2;
  Opts.NumLatPredicates = 2;
  Opts.NumRules = 6;
  Opts.NumFacts = 6;
  Opts.NumConstants = 3;
  RandomProgramBundle B = generateRandomProgram(GetParam(), Opts);

  SolverOptions Naive, Semi;
  Naive.Strat = Strategy::Naive;
  Semi.Strat = Strategy::SemiNaive;
  EXPECT_EQ(solveWith(*B.Prog, Naive), solveWith(*B.Prog, Semi))
      << "program:\n"
      << B.Prog->dump();
}

TEST_P(DifferentialSeedTest, OptionsDoNotChangeResults) {
  RandomProgramOptions Opts;
  Opts.NumRules = 5;
  Opts.NumFacts = 5;
  Opts.NumConstants = 3;
  RandomProgramBundle B = generateRandomProgram(GetParam() * 31 + 7, Opts);

  SolverOptions Base;
  SolverOptions NoIndex;
  NoIndex.UseIndexes = false;
  SolverOptions Written; // written (driver-first) join orders
  Written.CostBasedPlans = false;
  Interpretation A = solveWith(*B.Prog, Base);
  EXPECT_EQ(A, solveWith(*B.Prog, NoIndex)) << B.Prog->dump();
  EXPECT_EQ(A, solveWith(*B.Prog, Written)) << B.Prog->dump();
}

TEST_P(DifferentialSeedTest, SolverMatchesModelTheory) {
  RandomProgramOptions Opts;
  Opts.NumRelations = 1;
  Opts.NumLatPredicates = 1;
  Opts.NumRules = 3;
  Opts.NumFacts = 3;
  Opts.NumConstants = 2;
  Opts.MaxBodyAtoms = 2;
  Opts.ForBruteForce = true;
  RandomProgramBundle B = generateRandomProgram(GetParam() * 17 + 3, Opts);
  if (!B.BruteForceable)
    GTEST_SKIP() << "generated program too large for brute force";

  auto M = bruteForceMinimalModel(*B.Prog, B.Herbrand);
  ASSERT_TRUE(M.has_value()) << B.Prog->dump();
  Solver S(*B.Prog);
  ASSERT_TRUE(S.solve().ok());
  EXPECT_EQ(solverModel(*B.Prog, S), dropBottomAtoms(*B.Prog, *M))
      << "program:\n"
      << B.Prog->dump();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSeedTest,
                         ::testing::Range<uint64_t>(1, 26));

} // namespace
