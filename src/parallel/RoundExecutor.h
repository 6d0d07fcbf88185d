//===- parallel/RoundExecutor.h - Parallel semi-naive rounds --*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parallel evaluation path: runs each semi-naive round (§3.7) of
/// a Solver on a work-stealing ThreadPool. A Solver with
/// SolverOptions::NumThreads > 0 creates and owns one, and hands it every
/// round of its round loop (Solver::runRounds): the rounds of its solves
/// and, for the IncrementalSolver's inner Solver, those of its initial
/// and recovery solves and of every update. Soundness is the paper's
/// confluence argument (§3.4):
/// ⊔ is commutative and associative, so rule instances may fire in any
/// order — including simultaneously — without changing the least fixed
/// point.
///
/// A round has two phases:
///
///   1. *Eval.* The round's work is partitioned into (rule, driver atom,
///      row chunk) tasks. Workers evaluate rule bodies through the shared
///      PlanExecutor against the tables as an immutable snapshot
///      (read-only probeExisting, no in-place update) and buffer their
///      derivations. They never build an index: the Solver pre-builds
///      every mask its plans probe on its own thread
///      (Solver::prepareIndexes) before round 0 and after any re-plan.
///      The pool splits the task array among workers and balances it by
///      stealing whole tasks; a task always runs to completion on the
///      worker that claimed it. Before buffering, a worker drops a
///      derivation that cannot change its cell (§3.7 puts a cell in ΔP
///      only when its value strictly increases): ⊥, a value the snapshot
///      row already holds, or a repeat of a (pred, key, value) it
///      buffered this round. So a round whose firings mostly repeat a few
///      cells buffers about one derivation per cell, not one per firing.
///      When the Solver tracks support or provenance, workers also copy
///      the executor's premise stack at each buffered match and its
///      negated keys (Solver::negatedKeys).
///   2. *Merge,* after the barrier, on the coordinator: every worker's
///      buffer is joined in worker order, changed rows are queued as the
///      next delta, and every changed join goes to
///      Solver::recordDerivation — the recorder in-place rounds call on
///      their joins, so support edges and explain() agree at every
///      thread count. MergeCollisions counts the joins that left
///      their cell unchanged.
///
/// Derivations become visible only at the round barrier; by confluence
/// the model equals the in-place rounds', and because values are
/// hash-consed in one shared factory it is value-identical (same handles)
/// for any worker count. Every worker checks one shared abort flag plus
/// the Solver's deadline per row, so a timeout stops all of them.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_PARALLEL_ROUNDEXECUTOR_H
#define FLIX_PARALLEL_ROUNDEXECUTOR_H

#include "fixpoint/Solver.h"
#include "parallel/ThreadPool.h"

#include <atomic>

namespace flix {

/// The rounds of one Solver over a pool of worker threads. External
/// functions must be thread-safe; the FLIX interpreter and the bytecode
/// VM both are.
class RoundExecutor {
public:
  /// Serves \p S, which owns it, on \p NumWorkers (> 0) threads; builds
  /// no index (its tables are still empty).
  RoundExecutor(Solver &S, unsigned NumWorkers);
  RoundExecutor(const RoundExecutor &) = delete;
  RoundExecutor &operator=(const RoundExecutor &) = delete;
  ~RoundExecutor();

  /// Evaluates \p RuleIds once — every rule over the whole database when
  /// \p Round0, else driven by each positive body atom's Solver::Delta —
  /// and joins the derivations into the tables, filling NextDelta.
  void evalRound(const std::vector<uint32_t> &RuleIds, bool Round0);

private:
  /// One unit of eval-phase work: evaluate rule RuleIdx with body element
  /// Driver instantiated from Rows[Begin, End) (Driver < 0: plain
  /// left-to-right evaluation, Rows unused).
  struct Task {
    uint32_t RuleIdx;
    int32_t Driver;
    uint32_t Begin, End;
    const std::vector<uint32_t> *Rows;
  };
  struct Deriv;
  struct WorkerCtx;

  void addChunkedTasks(uint32_t RuleIdx, int32_t Driver,
                       const std::vector<uint32_t> &Rows);
  void runEvalPhase();
  void runMerge();

  Solver &S;
  const unsigned NumWorkers;
  /// Whether workers capture premises and the merge records changed
  /// joins: the Solver tracks support or provenance.
  const bool Record;

  std::unique_ptr<ThreadPool> Pool;
  std::vector<std::unique_ptr<WorkerCtx>> Workers;
  std::atomic<bool> AbortFlag{false};

  // Phase staging (coordinator-owned; immutable during phases).
  std::vector<Task> Tasks;
  std::vector<std::vector<uint32_t>> AllRows; ///< per-pred [0, size) ids
};

} // namespace flix

#endif // FLIX_PARALLEL_ROUNDEXECUTOR_H
