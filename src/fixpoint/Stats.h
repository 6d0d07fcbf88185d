//===- fixpoint/Stats.h - The solver stats registry -----------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every solver counter is defined once, as one row of FLIX_SOLVE_STATS
/// (SolveStats) or FLIX_UPDATE_STATS (the incremental engine's per-update
/// extras in UpdateStats):
///
///   X(Type, Field, "json_key", "text label", Kind, "doc")
///
/// The tables generate the struct fields, the forEachStat visitor that
/// every report walks (flixc --stats/--json, the flixd stats block) and
/// the two arithmetic rules. The kind alone decides both rules:
///
///   Kind     accumulate (fold)   since(Before) (one update's share)
///   Counter  sum                 difference
///   Gauge    maximum             absolute value now
///
/// Counters are work that only grows during a run. Gauges are samples of
/// engine state: the footprint, plan totals, the memo cache's lifetime
/// hits and misses and the lifetime escape-hatch counts, which is why
/// the fold keeps the maximum.
///
/// Rows are listed in the order the text report prints them.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_FIXPOINT_STATS_H
#define FLIX_FIXPOINT_STATS_H

#include "fixpoint/Program.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

namespace flix {

#define FLIX_SOLVE_STATS(X)                                                    \
  X(uint64_t, Iterations, "iterations", "rounds", Counter,                     \
    "delta rounds (or naive passes)")                                          \
  X(uint64_t, RuleFirings, "rule_firings", "rule firings", Counter,            \
    "successful full body matches")                                            \
  X(uint64_t, FactsDerived, "facts_derived", "facts derived", Counter,         \
    "joins that strictly increased a cell")                                    \
  X(double, Seconds, "seconds", "s elapsed", Counter, "wall time")             \
  X(size_t, MemoryBytes, "memory_bytes", "bytes live", Gauge,                  \
    "tables, indexes, value arena, provenance, support index and memo "        \
    "cache: everything the solver keeps alive")                                \
  X(uint64_t, MemoHits, "memo_hits", "memo hits", Gauge,                       \
    "extern calls answered from the memo cache, over the cache's lifetime")    \
  X(uint64_t, MemoMisses, "memo_misses", "memo misses", Gauge,                 \
    "extern calls computed then cached, over the cache's lifetime")            \
  X(uint64_t, PlanSteps, "plan_steps", "plan steps", Gauge,                    \
    "compiled steps over all plans of both plan families")                     \
  X(uint64_t, CostBasedPlans, "cost_based_plans", "cost-based orders", Gauge,  \
    "(rule, driver) pairs whose current order differs from the frozen "        \
    "driver-first order")                                                      \
  X(uint64_t, ReplanEvents, "replan_events", "replan events", Counter,         \
    "(rule, driver) pairs re-planned by the adaptive between-round checks "    \
    "(the initial cost-based choice not counted)")                             \
  X(uint64_t, EstimatedVsActualRows, "estimated_vs_actual_rows",               \
    "est-vs-actual row drift", Counter,                                        \
    "live-row drift between consecutive planner statistics snapshots "         \
    "(sum over predicates of |rows now - rows at last plan|); large with "     \
    "ReplanEvents at 0 means the hysteresis threshold absorbed it")            \
  X(uint64_t, DegradedRecoveries, "degraded_recoveries",                       \
    "degraded recoveries", Gauge,                                              \
    "incremental updates that re-solved from scratch because the previous "    \
    "one aborted (deadline or iteration limit), over the engine's lifetime")   \
  X(uint64_t, NegationFallbacks, "negation_fallbacks", "negation fallbacks",   \
    Gauge,                                                                     \
    "incremental updates that re-solved from scratch because a staged fact "   \
    "reached a negated predicate; a retired escape hatch, must stay 0")        \
  X(uint64_t, VmCalls, "vm_calls", "vm calls", Counter,                        \
    "extern dispatches executed by the VM (memo-cache answers excluded)")      \
  X(uint64_t, VmInlineCacheHits, "vm_inline_cache_hits", "inline-cache hits",  \
    Counter, "tag-dispatch and tuple-check inline cache hits")                 \
  X(uint64_t, InterpFallbacks, "interp_fallbacks", "interp fallbacks",         \
    Counter,                                                                   \
    "extern dispatches that wanted the VM but had no compiled body; the "      \
    "standard suites assert 0")                                                \
  X(uint64_t, ParallelTasks, "parallel_tasks", "parallel tasks", Counter,      \
    "(rule, driver, chunk) tasks executed by the round executor")              \
  X(uint64_t, ParallelSteals, "parallel_steals", "steals", Counter,            \
    "tasks obtained by work stealing")                                         \
  X(uint64_t, MergeCollisions, "merge_collisions", "merge collisions",         \
    Counter, "round-executor merge joins that left their cell unchanged")     \
  X(uint64_t, SpawnedSubtasks, "spawned_subtasks", "spawned subtasks",         \
    Counter,                                                                   \
    "always 0: tasks never split mid-phase; kept because perfbench reports "   \
    "it as parallel.spawned_subtasks")                                         \
  X(uint64_t, IndexFallbacks, "index_fallbacks", "index fallbacks", Counter,   \
    "read-only probes that found no pre-built index and scanned instead")

#define FLIX_UPDATE_STATS(X)                                                   \
  X(uint64_t, FactsAdded, "facts_added", "facts added", Counter,               \
    "fact pairs inserted (duplicates skipped)")                                \
  X(uint64_t, FactsRetracted, "facts_retracted", "facts retracted", Counter,   \
    "fact pairs removed (unknown ones skipped)")                               \
  X(uint64_t, CellsDeleted, "cells_deleted", "cells deleted", Counter,         \
    "cells reset to bottom by over-deletion")                                  \
  X(uint64_t, CellsRederived, "cells_rederived", "cells rederived", Counter,   \
    "deleted cells re-derived to a non-bottom value")                          \
  X(uint64_t, SeedPlanRuns, "seed_plan_runs", "seed plan runs", Counter,       \
    "seed-plan runs: one per rule re-deriving its head, one per negated "      \
    "occurrence driven by rows that left the table")

enum class StatKind : uint8_t { Counter, Gauge };

/// The columns of one registry row that reports read.
struct StatInfo {
  const char *Key;   ///< JSON key
  const char *Label; ///< text label
  StatKind Kind;
};

#define FLIX_STAT_FIELD(Type, Field, Key, Label, Kind, Doc) Type Field = 0;

/// Outcome and counters of a solver run.
struct SolveStats {
  enum class Status { Fixpoint, Timeout, IterationLimit, Error };
  Status St = Status::Fixpoint;
  std::string Error;

  FLIX_SOLVE_STATS(FLIX_STAT_FIELD)

  bool ok() const { return St == Status::Fixpoint; }

  /// Folds \p O into these stats (see the file comment).
  void accumulate(const SolveStats &O);
  /// These stats minus the snapshot \p Before (see the file comment);
  /// status and error are this run's.
  SolveStats since(const SolveStats &Before) const;
};

/// Per-update() outcome of the incremental engine: the solve counters
/// (covering just this update's work) plus the incremental-specific ones.
struct UpdateStats : SolveStats {
  FLIX_UPDATE_STATS(FLIX_STAT_FIELD)
  /// Update fell back to a from-scratch solve. Post stratum-local DRed
  /// this happens only for degraded recovery (the prior update aborted);
  /// negation never causes it.
  bool FullResolve = false;
  /// Predicates whose table changed in this update (every predicate on a
  /// full solve). The snapshot-read hook: readers that maintain
  /// per-predicate immutable copies of the model (the server's query
  /// snapshots) advance exactly these, by the rows
  /// IncrementalSolver::changedRows/deletedRows name, and share the rest,
  /// so snapshot maintenance cost tracks the update's changed cells.
  std::vector<PredId> ChangedPreds;

  using SolveStats::accumulate;
  /// Folds another update in: a running total over an update stream.
  void accumulate(const UpdateStats &O);
};

#undef FLIX_STAT_FIELD

namespace detail {
template <class T> void foldStat(StatKind K, T &Acc, T V) {
  Acc = K == StatKind::Counter ? Acc + V : std::max(Acc, V);
}
} // namespace detail

#define FLIX_STAT_FOLD(Type, Field, Key, Label, Kind, Doc)                     \
  detail::foldStat(StatKind::Kind, Field, O.Field);

inline void SolveStats::accumulate(const SolveStats &O) {
  FLIX_SOLVE_STATS(FLIX_STAT_FOLD)
}

inline void UpdateStats::accumulate(const UpdateStats &O) {
  SolveStats::accumulate(O);
  FLIX_UPDATE_STATS(FLIX_STAT_FOLD)
}

#undef FLIX_STAT_FOLD

inline SolveStats SolveStats::since(const SolveStats &Before) const {
  SolveStats D = *this;
#define FLIX_STAT_SINCE(Type, Field, Key, Label, Kind, Doc)                    \
  if (StatKind::Kind == StatKind::Counter)                                     \
    D.Field -= Before.Field;
  FLIX_SOLVE_STATS(FLIX_STAT_SINCE)
#undef FLIX_STAT_SINCE
  return D;
}

/// Calls \p F(const StatInfo &, Field) for every registry row of \p St in
/// row order — the update rows first when \p St is an UpdateStats. The
/// field is passed as an lvalue, so a mutable \p St can be written
/// through it.
template <class StatsT, class Fn> void forEachStat(StatsT &St, Fn &&F) {
#define FLIX_STAT_VISIT(Type, Field, Key, Label, Kind, Doc)                    \
  F(StatInfo{Key, Label, StatKind::Kind}, St.Field);
  if constexpr (std::is_base_of_v<UpdateStats, std::remove_const_t<StatsT>>) {
    FLIX_UPDATE_STATS(FLIX_STAT_VISIT)
  }
  FLIX_SOLVE_STATS(FLIX_STAT_VISIT)
#undef FLIX_STAT_VISIT
}

enum class StatsFormat { Text, Json };

/// Renders every registry row of \p St, joined by ", ": as `value label`
/// phrases in row order (Text), or as `"key": value` object members
/// without the braces (Json). JSON members go in reverse row order,
/// because consumers of the two outputs match adjacent pairs in opposite
/// orders: NegationFallbacks directly before DegradedRecoveries (and
/// PlanSteps before MemoHits) in JSON, DegradedRecoveries directly before
/// NegationFallbacks in the text, which reads in row order.
template <class StatsT>
std::string renderStats(const StatsT &St, StatsFormat Format) {
  std::vector<std::string> Parts;
  forEachStat(St, [&](const StatInfo &I, auto V) {
    char Buf[32];
    if constexpr (std::is_floating_point_v<decltype(V)>)
      std::snprintf(Buf, sizeof(Buf),
                    Format == StatsFormat::Json ? "%.6f" : "%.4f", V);
    else
      std::snprintf(Buf, sizeof(Buf), "%llu",
                    static_cast<unsigned long long>(V));
    std::string &P = Parts.emplace_back();
    if (Format == StatsFormat::Json)
      P.append("\"").append(I.Key).append("\": ").append(Buf);
    else
      P.append(Buf).append(" ").append(I.Label);
  });
  if (Format == StatsFormat::Json)
    std::reverse(Parts.begin(), Parts.end());
  std::string Out;
  for (const std::string &P : Parts) {
    if (!Out.empty())
      Out += ", ";
    Out += P;
  }
  return Out;
}

} // namespace flix

#endif // FLIX_FIXPOINT_STATS_H
