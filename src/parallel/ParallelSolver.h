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
/// Evaluation proceeds in semi-naive rounds (§3.7). Each round:
///
///   1. *Eval phase.* The round's work is partitioned into
///      (rule, driver atom, delta-row chunk) tasks distributed over a
///      work-stealing ThreadPool. Workers evaluate rule bodies against the
///      tables as an immutable snapshot (read-only probes, no in-place
///      update) and accumulate derivations (PredId, key, lattice value)
///      in thread-local buffers, pre-sharded by hash(pred, key). When one
///      atom's index bucket or full scan exceeds
///      SolverOptions::SpillThreshold rows, the worker captures its
///      bound-env prefix into a *sub-task* continuation and spawns the
///      tail onto its deque, so a single hot driver row's fan-out is
///      itself stolen and split across workers (intra-rule parallelism;
///      counted in SolveStats::SpawnedSubtasks / MaxFanout).
///   2. *Merge phase.* A barrier, then two parallel sub-phases: per-shard
///      ⊔-compaction of same-cell derivations (counted as MergeCollisions),
///      followed by per-predicate joins into the head tables, producing
///      the next delta.
///
/// Unlike the sequential solver's in-place immediate update, derivations
/// made during a round become visible only at the round barrier; by
/// confluence both schedules converge to the identical minimal model, and
/// because values are hash-consed in one shared factory the final model is
/// *value-identical* (same handles) for any thread count.
///
/// Limits: provenance tracking is not supported (solve() reports an
/// error), and Strategy::Naive falls back to semi-naive — same model,
/// different iteration counts.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_PARALLEL_PARALLELSOLVER_H
#define FLIX_PARALLEL_PARALLELSOLVER_H

#include "fixpoint/Solver.h"
#include "parallel/ThreadPool.h"

namespace flix {

/// Parallel counterpart of Solver. Query API mirrors Solver so callers can
/// be generic over the two. SolverOptions::NumThreads picks the worker
/// count (0 is treated as 1 here; callers normally dispatch 0 to the
/// sequential Solver instead). External functions must be thread-safe;
/// the FLIX interpreter and the bytecode VM both are.
class ParallelSolver {
public:
  explicit ParallelSolver(const Program &P,
                          SolverOptions Opts = SolverOptions());
  ParallelSolver(const ParallelSolver &) = delete;
  ParallelSolver &operator=(const ParallelSolver &) = delete;
  ~ParallelSolver();

  /// Runs to fixpoint (or to a limit). May be called once.
  SolveStats solve();

  unsigned numWorkers() const { return NumWorkers; }

  /// The table of predicate \p P (valid after solve()).
  const Table &table(PredId P) const { return *Tables[P]; }

  /// True if the relational tuple is in the minimal model.
  bool contains(PredId P, std::span<const Value> Tuple) const;
  bool contains(PredId P, std::initializer_list<Value> Tuple) const {
    return contains(P, std::span<const Value>(Tuple.begin(), Tuple.size()));
  }

  /// The lattice element of cell (P, Key); ⊥ if the cell is absent.
  Value latValue(PredId P, std::span<const Value> Key) const;
  Value latValue(PredId P, std::initializer_list<Value> Key) const {
    return latValue(P, std::span<const Value>(Key.begin(), Key.size()));
  }

  /// Materializes all rows of \p P as (key..., latValue) tuples, in
  /// insertion order. For relational predicates the Bool value is omitted.
  std::vector<std::vector<Value>> tuples(PredId P) const;

private:
  /// One buffered derivation: cell (Pred, Key) gains lattice value Lat.
  struct Deriv {
    PredId Pred;
    Value Key; ///< interned key tuple
    Value Lat;
  };

  /// One unit of eval-phase work: evaluate rule RuleIdx with body element
  /// Driver instantiated from Rows[Begin, End) (Driver < 0: plain
  /// left-to-right evaluation, Rows unused).
  struct Task {
    uint32_t RuleIdx;
    int32_t Driver;
    uint32_t Begin, End;
    const std::vector<uint32_t> *Rows;
  };

  struct WorkerCtx;

  /// Collects the (pred, mask) access paths the workers will probe (plus
  /// index hints), read off the compiled plans' own Probe steps —
  /// order-independent by construction, so any body order the cost-based
  /// planner picks is covered.
  std::vector<std::pair<PredId, uint64_t>> computeWantedIndexes() const;
  /// Pre-builds those indexes through the pool: per-(pred, row-chunk)
  /// partial scans, then per-(pred, mask) merges via
  /// Table::buildIndexFromPartials. Runs in solve() after fact loading
  /// (the tables are empty before that), replacing the old sequential
  /// constructor-time build. Safe to call again after a re-plan: indexes
  /// that already exist are skipped, only newly wanted masks are built.
  void buildStaticIndexes();
  /// Re-chooses join orders from current table statistics (no-op unless
  /// CostBasedPlans). Coordinator-only: must run between phases, when no
  /// worker holds a plan pointer. Returns true if any plan changed, in
  /// which case the caller must re-run buildStaticIndexes() so workers'
  /// probeExisting finds every newly wanted mask.
  bool replanPlans(double Threshold, bool CountEvents);
  void buildRound0Tasks(const std::vector<uint32_t> &RuleIds);
  void buildDeltaTasks(const std::vector<uint32_t> &RuleIds);
  void addChunkedTasks(uint32_t RuleIdx, int32_t Driver,
                       const std::vector<uint32_t> &Rows);
  void runEvalPhase();
  void runMergePhase();

  const Program &P;
  SolverOptions Opts;
  ValueFactory &F;
  std::unique_ptr<BoolLattice> RelLattice;
  std::vector<std::unique_ptr<Table>> Tables;

  /// Compiled join plans of P.rules(): workers run the shared
  /// non-recursive PlanExecutor, with sub-task spilling mapped onto the
  /// executor's maybeSpill hook.
  std::unique_ptr<plan::PlanLibrary> Plans;
  /// Shared memo cache for pure external functions
  /// (SolverOptions::EnableMemo); all workers' extern calls route through
  /// it. Null when memoization is disabled.
  std::unique_ptr<plan::ExternMemo> Memo;

  unsigned NumWorkers;
  /// Merge shards: cell (pred, key) is owned by shard
  /// hash(pred, key) mod NumMergeShards. A multiple of plausible worker
  /// counts so compaction load-balances.
  static constexpr size_t NumMergeShards = 64;

  std::unique_ptr<ThreadPool> Pool;
  std::vector<std::unique_ptr<WorkerCtx>> Workers;

  // Phase staging (coordinator-owned; immutable during phases).
  std::vector<Task> Tasks;
  std::vector<std::vector<uint32_t>> AllRows; ///< per-pred [0, size) ids
  std::vector<std::vector<Deriv>> CompactedShards; ///< merge phase A out
  std::vector<std::vector<Deriv>> PendingByPred;   ///< merge phase B in

  // Delta bookkeeping (per predicate, sorted row ids).
  std::vector<std::vector<uint32_t>> Delta;
  std::vector<std::vector<uint32_t>> NextDelta;

  // Run state.
  SolveStats Stats;
  bool Solved = false;
  std::atomic<bool> AbortFlag{false};
  Deadline DL;
};

} // namespace flix

#endif // FLIX_PARALLEL_PARALLELSOLVER_H
