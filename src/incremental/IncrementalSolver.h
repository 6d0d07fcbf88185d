//===- incremental/IncrementalSolver.h - Batch fact updates ---*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental evaluation subsystem: batch fact insertions and
/// retractions between solves, reusing the fixed-point state instead of
/// restarting (DESIGN.md §12).
///
/// Insertions are the easy direction on lattices — values only go up, so
/// newly joined cells seed ΔP directly and semi-naive iteration resumes.
/// Retractions use a Delete/Re-derive (DRed-style) pass generalized to
/// lattices: the solver maintains a support index (Solver::Dependents,
/// SolverOptions::TrackSupport) recording, for every body row, the head
/// cells it helped increase; retraction over-deletes the transitive
/// closure of the retracted cells through that index, resets the deleted
/// cells to ⊥ in place (Table::resetRow tombstones), re-joins their
/// surviving input-fact contributions, re-derives the deleted cells over
/// the surviving database, and finally resumes semi-naive delta rounds
/// per stratum until the fixed point is restored. Re-derivation is set at
/// a time: each rule runs once per stratum, its head seed plan
/// (plan::HeadSlot) scanning all of its head predicate's deleted cells.
///
/// Stratified negation is handled without an escape hatch: strata are
/// processed in order, and at each stratum boundary the net presence
/// changes of that stratum's negated predicates are converted into
/// deltas for the higher-stratum rules that negate them. The rows that
/// left the table drive those rules once per negated occurrence, through
/// the occurrence's seed plan with the now-true `!P(key)` fronted; a key
/// that (re)entered it
/// over-deletes the heads recorded in the negation support index
/// (Solver::NegDependents), which the normal Delete/Re-derive machinery
/// then restores. Stratification guarantees a negated table is final
/// for the update before any rule that negates it runs, so negated
/// probes always read current tables (see fixpoint/Plan.h). The only
/// remaining full re-solves are degraded recoveries after an aborted
/// update; SolveStats::NegationFallbacks must stay 0.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_INCREMENTAL_INCREMENTALSOLVER_H
#define FLIX_INCREMENTAL_INCREMENTALSOLVER_H

#include "fixpoint/Solver.h"

#include <memory>
#include <unordered_set>
#include <vector>

namespace flix {

/// Wraps the semi-naive Solver with a mutable input-fact store and an
/// update() that advances the model to the new fact set's least fixed
/// point without recomputing it from scratch.
///
/// Usage: construct over a Program (its facts seed the store), optionally
/// stage more adds/retracts, then call update() — the first call runs the
/// initial full solve (with support tracking on). After any update() the
/// query API below reflects the current model. Staged mutations are
/// buffered until the next update().
///
/// With SolverOptions::NumThreads > 0 the inner Solver owns a parallel
/// round executor (parallel/RoundExecutor.h) and runs every round on it:
/// those of the initial full solve, of each degraded-recovery solve and
/// of every update's delta rounds. Workers evaluate rule bodies
/// read-only, spill hot scans into sub-tasks, and buffer each derivation
/// that can change its cell with its premise rows; the executor's merge
/// joins them — and records support / provenance — single-threaded after
/// the round barrier, so the support index write path is race-free by
/// construction. The retraction closure and the seed plans (re-derive and
/// `not P` insertion deltas) run in place on the calling thread.
///
/// Every update runs, per stratum, the inner Solver's own round loop
/// (Solver::runRounds) seeded with the rows the update changed, so
/// SolverOptions apply to updates as to solves: TimeLimitSeconds bounds
/// every update() (see update(Deadline)), MaxIterations bounds the rounds
/// of each update (counted afresh per update), and Strategy::Naive makes
/// each in-place round a full pass over the stratum.
class IncrementalSolver {
public:
  explicit IncrementalSolver(const Program &P,
                             SolverOptions Opts = SolverOptions());
  IncrementalSolver(const IncrementalSolver &) = delete;
  IncrementalSolver &operator=(const IncrementalSolver &) = delete;
  ~IncrementalSolver();

  /// Stages one relational fact (full tuple).
  void addFact(PredId Pred, std::span<const Value> Tuple);
  void addFact(PredId Pred, std::initializer_list<Value> Tuple) {
    addFact(Pred, std::span<const Value>(Tuple.begin(), Tuple.size()));
  }
  /// Stages one lattice fact: cell \p Key gains the contribution
  /// \p LatVal (the cell's value is the lub of its contributions).
  void addLatFact(PredId Pred, std::span<const Value> Key, Value LatVal);
  void addLatFact(PredId Pred, std::initializer_list<Value> Key,
                  Value LatVal) {
    addLatFact(Pred, std::span<const Value>(Key.begin(), Key.size()),
               LatVal);
  }
  /// Stages removal of one relational fact. Retracting a fact that was
  /// never added is a no-op (not counted in FactsRetracted).
  void retractFact(PredId Pred, std::span<const Value> Tuple);
  void retractFact(PredId Pred, std::initializer_list<Value> Tuple) {
    retractFact(Pred, std::span<const Value>(Tuple.begin(), Tuple.size()));
  }
  /// Stages removal of one lattice fact contribution; the pair
  /// (\p Key, \p LatVal) must match an earlier addLatFact / program fact
  /// to have an effect.
  void retractLatFact(PredId Pred, std::span<const Value> Key, Value LatVal);
  void retractLatFact(PredId Pred, std::initializer_list<Value> Key,
                      Value LatVal) {
    retractLatFact(Pred, std::span<const Value>(Key.begin(), Key.size()),
                   LatVal);
  }

  /// Batch forms. Each row is a full tuple: for relational predicates all
  /// columns; for lattice predicates the key columns followed by the
  /// lattice value.
  void addFacts(PredId Pred, std::span<const std::vector<Value>> Rows);
  void retractFacts(PredId Pred, std::span<const std::vector<Value>> Rows);

  /// Applies every staged mutation and advances the model to the least
  /// fixed point of the updated fact set. The first call performs the
  /// initial full solve.
  UpdateStats update() { return update(Deadline()); }

  /// update() with a cancellation deadline. SolverOptions::TimeLimitSeconds,
  /// if set, bounds the update too; whichever expires first applies.
  /// Expiry aborts the in-flight work at the next per-row check
  /// (full/fallback solves get the remaining budget as their time limit;
  /// delta rounds — sequential or parallel — and re-derivation check the
  /// deadline per matched row). An aborted update returns Status::Timeout
  /// and leaves the tables a sound under-approximation that is *not* a
  /// fixpoint — the solver remembers this (Degraded) and the next update()
  /// re-solves from scratch, so a cancelled batch costs recovery work but
  /// never a wrong model.
  UpdateStats update(Deadline DL);

  /// Cumulative number of update() batches that fell back to a
  /// from-scratch solve, by reason. Mirrored into the NegationFallbacks /
  /// DegradedRecoveries fields of every returned UpdateStats; exposed
  /// directly for operators polling a live solver. negationFallbacks() is
  /// a retired escape hatch and must stay 0 (tests assert it);
  /// degradedRecoveries() counts rebuilds after an aborted (deadline /
  /// iteration-limit) update.
  uint64_t negationFallbacks() const { return Lifetime.NegationFallbacks; }
  uint64_t degradedRecoveries() const { return Lifetime.DegradedRecoveries; }

  /// Number of staged (not yet applied) mutations.
  size_t pendingMutations() const {
    return PendingAdds.size() + PendingRetracts.size();
  }

  // -- Query API (valid after the first update()) --------------------
  const Solver &solver() const { return *S; }
  const Table &table(PredId Pred) const { return S->table(Pred); }
  bool contains(PredId Pred, std::span<const Value> Tuple) const {
    return S->contains(Pred, Tuple);
  }
  bool contains(PredId Pred, std::initializer_list<Value> Tuple) const {
    return S->contains(Pred, Tuple);
  }
  Value latValue(PredId Pred, std::span<const Value> Key) const {
    return S->latValue(Pred, Key);
  }
  Value latValue(PredId Pred, std::initializer_list<Value> Key) const {
    return S->latValue(Pred, Key);
  }
  std::vector<std::vector<Value>> tuples(PredId Pred) const {
    return S->tuples(Pred);
  }
  const Derivation *explain(PredId Pred, std::span<const Value> Key) const {
    return S->explain(Pred, Key);
  }
  const Derivation *explain(PredId Pred,
                            std::initializer_list<Value> Key) const {
    return S->explain(Pred,
                      std::span<const Value>(Key.begin(), Key.size()));
  }
  std::string explainString(PredId Pred, std::span<const Value> Key,
                            unsigned Depth = 3) const {
    return S->explainString(Pred, Key, Depth);
  }
  std::string explainString(PredId Pred, std::initializer_list<Value> Key,
                            unsigned Depth = 3) const {
    return S->explainString(
        Pred, std::span<const Value>(Key.begin(), Key.size()), Depth);
  }

  /// Row ids of \p Pred's table whose cell the last update() changed
  /// (changedRows) or over-deleted (deletedRows), each list
  /// duplicate-free and unordered; a row may be in both. Together they are
  /// the update's difference on the table: a reader holding a copy of it
  /// from before the update is current again after re-reading these rows
  /// (the server's query snapshots do). Empty after a full solve (the
  /// first update() or a FullResolve), which replaces the inner solver and
  /// with it every row id.
  std::span<const uint32_t> changedRows(PredId Pred) const {
    return UpdateChanged[Pred].rows();
  }
  std::span<const uint32_t> deletedRows(PredId Pred) const {
    return UpdateDeleted[Pred].rows();
  }

private:
  Value keyTupleOf(const Fact &Fa) const;
  /// Adds the contribution \p LatVal of cell \p KeyT to FactStore; false
  /// if it was already there.
  bool storeAdd(PredId Pred, Value KeyT, Value LatVal);
  /// Removes the contribution \p LatVal of cell \p KeyT from FactStore,
  /// erasing the cell's entry once it has none left; false if it was not
  /// there.
  bool storeRetract(PredId Pred, Value KeyT, Value LatVal);
  void fullSolve(UpdateStats &U, Deadline DL);
  void incrementalUpdate(UpdateStats &U, Deadline DL);

  const Program &P;
  SolverOptions Opts;
  ValueFactory &F;

  std::unique_ptr<Solver> S;
  bool SolvedOnce = false;
  /// Set when the last solve did not end at a clean fixpoint (error /
  /// timeout / iteration limit): the table state is not a model, so the
  /// next update() re-solves from scratch instead of patching it.
  bool Degraded = false;

  /// The mutable input fact multiset. The model is always the LFP of
  /// this store plus the rules; full solves load it as it is
  /// (Solver::Store).
  StoredFacts FactStore;

  std::vector<Fact> PendingAdds;
  std::vector<Fact> PendingRetracts;

  /// Rows of each negated predicate that are tombstoned (row id exists
  /// but the cell is logically absent) as of the end of the last
  /// update(). Combined with the table size captured at update start,
  /// this reconstructs any touched row's pre-batch presence at a stratum
  /// boundary — the inputs of the net insert/retract delta conversion
  /// for `not P`. Empty for predicates no rule negates; cleared by
  /// fullSolve() (a replaced inner solver has fresh, tombstone-free
  /// tables).
  std::vector<std::unordered_set<uint32_t>> NegTombstones;

  /// Rows changed so far in the current update(), per predicate: the
  /// inner solver's Solver::Changed, so every row it queues for a delta
  /// round lands here. Seeds every stratum's delta rounds (replacing full
  /// round-0 evaluation).
  std::vector<RowSet> UpdateChanged;
  /// Rows over-deleted by the current update(), per predicate; the
  /// re-derive pass of each stratum scans them.
  std::vector<RowSet> UpdateDeleted;

  /// Lifetime counts of full-solve fallbacks taken by update(), by
  /// reason (the NegationFallbacks and DegradedRecoveries gauges; see
  /// negationFallbacks()), folded into every returned UpdateStats. They
  /// live here because fullSolve() replaces the inner solver and would
  /// lose counts kept in its stats. NegationFallbacks is a retired path
  /// and must stay 0.
  SolveStats Lifetime;
};

} // namespace flix

#endif // FLIX_INCREMENTAL_INCREMENTALSOLVER_H
