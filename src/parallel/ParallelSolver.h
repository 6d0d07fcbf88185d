//===- parallel/ParallelSolver.h - Parallel semi-naive solver -*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A parallel fixed-point solver computing the same minimal model as the
/// sequential Solver (§3). Parallelism exploits the paper's central
/// soundness argument directly: ⊔ is commutative and associative, so the
/// immediate-consequence operator is confluent and rule instances may fire
/// in any order — including simultaneously — without changing the least
/// fixed point (§3.4).
///
/// The solver is a sequential Solver — its tables, plans, memo cache,
/// deltas, stats, stratification and query API — with a RoundExecutor
/// (parallel/RoundExecutor.h) attached as its round body: the stratum and
/// round loop is the Solver's own, and each round runs on the pool.
///
/// Unlike the sequential solver's in-place immediate update, derivations
/// made during a round become visible only at the round barrier; by
/// confluence both schedules converge to the identical minimal model, and
/// because values are hash-consed in one shared factory the final model is
/// *value-identical* (same handles) for any thread count. The executor's
/// merge joins the round's buffered derivations on the solver's thread;
/// with TrackProvenance it writes each changed cell's Derivation there,
/// so explain() works as on the sequential solver.
///
/// Limits: Strategy::Naive falls back to semi-naive — same model,
/// different iteration counts.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_PARALLEL_PARALLELSOLVER_H
#define FLIX_PARALLEL_PARALLELSOLVER_H

#include "parallel/RoundExecutor.h"

namespace flix {

/// Parallel counterpart of Solver. Query API mirrors Solver so callers can
/// be generic over the two. SolverOptions::NumThreads picks the worker
/// count (0 is treated as 1 here; callers normally dispatch 0 to the
/// sequential Solver instead). External functions must be thread-safe;
/// the FLIX interpreter and the bytecode VM both are.
class ParallelSolver : private Solver {
public:
  explicit ParallelSolver(const Program &P,
                          SolverOptions Opts = SolverOptions())
      : Solver(P, Opts), Exec(*this, Opts.NumThreads) {}

  /// Runs to fixpoint (or to a limit). May be called once.
  using Solver::solve;

  unsigned numWorkers() const { return Exec.numWorkers(); }

  // Query API (valid after solve()); see Solver. explain() needs
  // SolverOptions::TrackProvenance.
  using Solver::contains;
  using Solver::explain;
  using Solver::explainString;
  using Solver::latValue;
  using Solver::table;
  using Solver::tuples;

private:
  RoundExecutor Exec; ///< attached to the Solver base as its round body
};

} // namespace flix

#endif // FLIX_PARALLEL_PARALLELSOLVER_H
