//===- fixpoint/Solver.h - Naive and semi-naive solvers -------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed-point solver: computes the minimal model of a fixpoint
/// Program by bottom-up evaluation. Two strategies are provided:
///
///   * Naive — repeatedly re-evaluates every rule until nothing changes;
///     the direct reading of the immediate-consequence operator (§3.1).
///   * SemiNaive — the paper's adaptation of semi-naive evaluation to
///     lattices (§3.7): the incremental relation ΔP contains every cell
///     whose lattice value *strictly increased*, and each rule is
///     re-evaluated once per body atom with that atom instantiated from
///     ΔP and the rest from the full tables.
///
/// Both strategies run one round loop (Solver::runRounds), in place or on
/// the round executor; it also serves the incremental engine's updates
/// and stops when a round changes no cell. Rounds evaluate rule bodies
/// through compiled join plans (fixpoint/Plan.h) with automatic hash
/// indexes on the bound-column patterns (§4.5). Join orders start as the
/// written left-to-right order (the driver atom first) and are then
/// chosen by a statistics-driven cost model; SolverOptions::CostBasedPlans
/// = false freezes the written order as an ablation.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_FIXPOINT_SOLVER_H
#define FLIX_FIXPOINT_SOLVER_H

#include "fixpoint/Program.h"
#include "fixpoint/Stats.h"
#include "fixpoint/Stratify.h"
#include "fixpoint/Table.h"
#include "support/Deadline.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

namespace flix {

namespace plan {
class PlanLibrary;
class ExternMemo;
class StatsCollector;
struct RulePlan;
struct RunnablePlans;
} // namespace plan

class RoundExecutor;

/// Evaluation strategy (see file comment).
enum class Strategy { Naive, SemiNaive };

/// Tunables for one solver run.
struct SolverOptions {
  /// Naive makes every in-place round a full pass over the stratum's
  /// rules, in solves and incremental updates alike; the round executor
  /// (NumThreads > 0) always evaluates semi-naively (same model).
  Strategy Strat = Strategy::SemiNaive;
  /// Use lazily created secondary hash indexes for partially bound atoms;
  /// when false, every partially bound atom falls back to a full scan.
  bool UseIndexes = true;
  /// Abort with Status::Timeout after this many seconds (0 = unlimited).
  double TimeLimitSeconds = 0;
  /// Stop with Status::IterationLimit after this many rounds (0 =
  /// unlimited): counted over a whole solve, and afresh for each
  /// incremental update.
  uint64_t MaxIterations = 0;
  /// Record, for every cell, the rule instantiation that last increased
  /// it, enabling explain() after solving. Costs time and memory; off by
  /// default.
  bool TrackProvenance = false;
  /// Maintain the support index (per body row, the head cells it helped
  /// increase) that the incremental engine's Delete/Re-derive pass walks
  /// on retraction. Unlike TrackProvenance (which keeps only the *last*
  /// increasing derivation), the support index keeps an edge for *every*
  /// changed join, so over-deletion is sound. Also compiles the seed
  /// plans its re-derive and `not P` insertion deltas run
  /// (plan::PlanLibrary). Set by IncrementalSolver; off by default.
  bool TrackSupport = false;
  /// Worker threads of the solver's round executor
  /// (parallel/RoundExecutor.h), which the Solver creates and owns when
  /// this is > 0: every round of its solves and incremental updates then
  /// runs on that many workers. 0 evaluates every round in place on the
  /// calling thread. Same minimal model either way (§3.4).
  unsigned NumThreads = 0;
  /// Memoize external-function calls on their hash-consed argument
  /// handles. Sound because the paper requires transfer/filter functions
  /// to be pure (§2.3); turn off to ablate, or if an extern violates the
  /// purity contract.
  bool EnableMemo = true;
  /// Dispatch extern calls to their bytecode-VM implementation
  /// (ExternFn::VmImpl) when one is attached, instead of the
  /// tree-walking interpreter closure. The two are value-identical
  /// (differentially tested); off is the interpreter ablation
  /// (flixc --no-vm).
  bool UseVm = true;
  /// Choose join orders with the statistics-driven cost model
  /// (plan::chooseOrder) once facts are loaded, instead of freezing the
  /// driver-first order at compile time. Identical minimal model either
  /// way (⊔-confluence, checked by PlanDifferentialTest); off is the
  /// frozen written-order ablation (flixc --no-cost-plans).
  bool CostBasedPlans = true;
  /// Adaptive re-planning (CostBasedPlans only): between semi-naive
  /// rounds, re-plan any (rule, driver) whose current order's estimated
  /// cost exceeds this factor × the best candidate's under fresh table
  /// statistics. <= 0 disables the between-round checks (initial
  /// cost-based choice only). The default keeps enough hysteresis that
  /// uniform workloads never flip plans mid-solve.
  double ReplanThreshold = 4.0;
};

/// A cell addressed as (predicate, row id) — the node type of the
/// incremental engine's support index. Row ids are stable across
/// tombstoning (Table::resetRow) and revival, so CellRefs stay valid for
/// the lifetime of a solver.
struct CellRef {
  PredId Pred;
  uint32_t Row;
  bool operator==(const CellRef &O) const {
    return Pred == O.Pred && Row == O.Row;
  }
  bool operator<(const CellRef &O) const {
    return Pred != O.Pred ? Pred < O.Pred : Row < O.Row;
  }
};

/// Why a cell holds its value: the rule that last increased it and the
/// ground body atoms of that rule instance (facts have no premises), in
/// body order. Every engine writes it through Solver::recordDerivation.
struct Derivation {
  static constexpr uint32_t FromFact = UINT32_MAX;
  uint32_t RuleIndex = FromFact;
  struct Premise {
    PredId Pred;
    Value Key;      ///< interned key tuple of the matched row
    Value LatValue; ///< the row's value when the derivation was recorded
  };
  SmallVector<Premise, 4> Premises;
};

/// A set of one table's row ids, each listed once in insertion order,
/// with O(1) membership and amortized O(1) clear: Stamp[Row] == Epoch
/// marks a member, so emptying the set is one epoch increment. Stamps are
/// 16 bits, so every 65,535th clear also zeroes them.
class RowSet {
public:
  /// Adds \p Row of a table holding \p TableSize rows; false if it was
  /// already in the set.
  bool insert(uint32_t Row, size_t TableSize) {
    if (Stamp.size() <= Row)
      Stamp.resize(std::max<size_t>(TableSize, size_t(Row) + 1), 0);
    if (Stamp[Row] == Epoch)
      return false;
    Stamp[Row] = Epoch;
    Rows.push_back(Row);
    return true;
  }
  bool contains(uint32_t Row) const {
    return Row < Stamp.size() && Stamp[Row] == Epoch;
  }
  const std::vector<uint32_t> &rows() const { return Rows; }
  void clear() {
    Rows.clear();
    nextEpoch();
  }
  /// Empties the set into \p Out, replacing Out's contents.
  void moveTo(std::vector<uint32_t> &Out) {
    Out.clear();
    Out.swap(Rows);
    nextEpoch();
  }

private:
  void nextEpoch() {
    if (++Epoch != 0)
      return;
    // Wrapped: no stamp may equal a future epoch by accident.
    std::fill(Stamp.begin(), Stamp.end(), 0);
    Epoch = 1;
  }

  std::vector<uint32_t> Rows;
  std::vector<uint16_t> Stamp;
  uint16_t Epoch = 1;
};

/// A mutable input fact set: per predicate, interned key tuple → the
/// distinct lattice contributions added for that cell (boolean(true) for
/// relational predicates).
using StoredFacts =
    std::vector<std::unordered_map<Value, SmallVector<Value, 2>>>;

/// Solves one Program. The solver owns the predicate tables; query them
/// through the accessors after solve() returns. With
/// SolverOptions::NumThreads > 0 it also owns a RoundExecutor and hands
/// every round of its round loop to it; derivations then become visible
/// at the round barrier instead of in place, and by ⊔-confluence (§3.4)
/// the model is the same, value-identical for any thread count. External
/// functions must then be thread-safe; the FLIX interpreter and the
/// bytecode VM both are.
class Solver {
public:
  explicit Solver(const Program &P, SolverOptions Opts = SolverOptions());
  Solver(const Solver &) = delete;
  Solver &operator=(const Solver &) = delete;
  ~Solver();

  /// Runs to fixpoint (or to a limit). May be called once.
  SolveStats solve();

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

  /// The derivation that last increased cell (P, Key), or nullptr if the
  /// cell is absent or provenance was not tracked. For relational
  /// predicates the key is the full tuple.
  const Derivation *explain(PredId P, std::span<const Value> Key) const;

  /// Renders a human-readable derivation tree for cell (P, Key) down to
  /// \p Depth levels of premises.
  std::string explainString(PredId P, std::span<const Value> Key,
                            unsigned Depth = 3) const;

  /// Total edges currently stored in the support index (0 unless
  /// TrackSupport); exposed so tests can bound edge growth over long
  /// update streams.
  size_t supportEdgeCount() const;

  /// Total edges in the negation support index (NegDependents): one per
  /// (negated key, head cell) pair currently recorded. Same purpose as
  /// supportEdgeCount() — bounding index growth in tests.
  size_t negSupportEdgeCount() const;

  /// SolveStats::MemoryBytes recomputed from scratch by walking every
  /// provenance row, support edge list and negation support entry. The
  /// test oracle for the maintained count (sampleStats() never walks).
  size_t recountMemoryBytes() const;

private:
  friend class IncrementalSolver;
  friend class RoundExecutor;
  struct PlanEngine;
  /// One negated predicate's negation support entries (NegDependents).
  using NegSupportMap = std::unordered_map<Value, SmallVector<CellRef, 2>>;
  /// A negated atom's (predicate, interned key tuple) under one match.
  using NegKey = std::pair<PredId, Value>;
  using NegKeyList = SmallVector<NegKey, 2>;

  void loadFacts();
  /// One round of \p RuleIds — every rule over the whole database when
  /// \p Round0, else driven by each positive body atom's Delta — joined
  /// into the tables, filling NextDelta: on the round executor if there
  /// is one, else in place on this thread, where Strategy::Naive makes
  /// every round a full pass.
  void evalRound(const std::vector<uint32_t> &RuleIds, bool Round0);
  /// Evaluates rule \p RI's plan for \p Driver once over \p DriverRows
  /// (see plan::PlanLibrary): -1 is plain evaluation (rows unused); a
  /// positive body atom scans them as its delta; a negated body atom or
  /// plan::HeadSlot scans them as seeds — the incremental engine's
  /// insertion delta of `not P` (rows that left P's table) and its DRed
  /// re-derive (over-deleted head cells). Derivations land in NextDelta
  /// as usual.
  void evalRule(uint32_t RI, int Driver,
                const std::vector<uint32_t> &DriverRows);
  /// Runs one compiled plan over the current Env/Bound.
  void runPlan(const plan::RulePlan &Pl);
  bool checkDeadline();
  /// Appends the keys of rule \p RI's negated atoms under the match
  /// environment \p Env (TrackSupport only: nothing else reads them).
  /// Safe on workers: the factory then interns concurrently.
  void negatedKeys(uint32_t RI, const std::vector<Value> &Env,
                   NegKeyList &Out) const;
  /// The one derivation recorder of every engine: a match of \p Pl, with
  /// the executor's premise stack \p Premises (step order), increased
  /// \p Head. Writes support edges and the Derivation as tracked.
  void recordDerivation(const plan::RulePlan &Pl, CellRef Head,
                        std::span<const CellRef> Premises,
                        std::span<const NegKey> NegKeys);
  /// Support-index edges (sorted-unique insertion): premise row \p Prem,
  /// or the negated key \p KeyT of \p NegPred, helped derive \p Head.
  void addSupportEdge(CellRef Prem, CellRef Head);
  void addNegSupportEdge(PredId NegPred, Value KeyT, CellRef Head);
  /// Consumes one negation support entry (its key re-entered the table).
  void eraseNegSupport(PredId NegPred, NegSupportMap::iterator It);
  /// Makes \p D the provenance of row \p Row of \p Pred.
  void setProvenance(PredId Pred, uint32_t Row, Derivation D);
  void renderExplanation(std::string &Out, PredId P,
                         std::span<const Value> Key, unsigned Depth,
                         unsigned Indent) const;
  /// Everything SolveStats::MemoryBytes accounts for: value arena, tables
  /// + indexes, provenance, the support index, and the memo cache. Costs
  /// O(predicates + indexes): the per-row structures are counted by
  /// AuxBytes as they change.
  size_t memoryFootprint() const;
  /// Refreshes the Stats fields that are sampled rather than counted: the
  /// gauges (footprint, plan totals, memo totals), the VM inline-cache
  /// hits since solve() started and the VM pipeline statics, the last two
  /// read off the Program. Called when solve() returns and by the
  /// incremental engine after every update.
  void sampleStats();
  /// Cost-based (re)planning: snapshots table statistics (PlanStats) and
  /// re-plans via PlanLibrary::replanFromStats. \p Threshold 1.0 adopts
  /// any strict improvement (the initial post-loadFacts choice); larger
  /// values are the adaptive hysteresis. \p CountEvents selects whether
  /// replans land in SolveStats::ReplanEvents (adaptive checks only).
  /// Every plan is checked, or with \p Only just the plans that can run
  /// next. No-op unless CostBasedPlans is set.
  /// Called only at single-threaded points (solve start, round
  /// boundaries, the start of an incremental update). A changed plan may
  /// probe new masks, so with a round executor they are pre-built
  /// (prepareIndexes) before the next round.
  void replanPlans(double Threshold, bool CountEvents,
                   const plan::RunnablePlans *Only);
  /// Builds, with Table::prepareIndex on this thread, every (pred, mask)
  /// index a plan the round executor runs probes
  /// (PlanLibrary::wantedIndexes; seed plans run in place and build
  /// theirs on first probe). The executor's workers probe read-only
  /// (Table::probeExisting), so with an executor this runs at solve
  /// start and after a re-plan that changed a plan. Indexes that exist
  /// are left alone. In-place rounds instead build the same indexes
  /// lazily, on first probe.
  void prepareIndexes();

  const Program &P;
  SolverOptions Opts;
  ValueFactory &F;
  std::unique_ptr<BoolLattice> RelLattice;
  std::vector<std::unique_ptr<Table>> Tables;

  /// Compiled join plans of P.rules() and the extern memo cache (when
  /// EnableMemo); see src/fixpoint/Plan.h.
  std::unique_ptr<plan::PlanLibrary> Plans;
  /// The statistics replanPlans plans against; keeps the static
  /// predicates' column samples between snapshots.
  std::unique_ptr<plan::StatsCollector> PlanStats;
  std::unique_ptr<PlanEngine> Engine; ///< runs Plans (runPlan)
  std::unique_ptr<plan::ExternMemo> Memo;

  // Per-rule-evaluation state.
  std::vector<Value> Env;
  std::vector<uint8_t> Bound;
  const std::vector<uint32_t> *CurDriverRows = nullptr;

  /// Provenance (when tracked): per predicate, per row id, the last
  /// increasing derivation.
  std::vector<std::vector<Derivation>> Provenance;

  /// Support index (when TrackSupport): per predicate, per row id, the
  /// head cells whose value a join through this row strictly increased.
  /// Over-approximates true support (edges are never removed when a
  /// premise's contribution is superseded), which only causes extra —
  /// sound — over-deletion in the incremental engine.
  std::vector<std::vector<SmallVector<CellRef, 2>>> Dependents;

  /// Negation support index (when TrackSupport): per negated predicate,
  /// key tuple → the head cells derived through `!P(key)` succeeding
  /// while that key was absent. Keyed by tuple, not row id, because the
  /// negated key typically has no row at all. When a key (re)enters the
  /// table, the incremental engine over-deletes exactly these cells and
  /// consumes (erases) the entry; re-derivation re-records whichever
  /// edges still hold. Same over-approximation discipline as Dependents.
  std::vector<NegSupportMap> NegDependents;

  /// Heap bytes of Provenance, Dependents and NegDependents, kept current
  /// by every write to them (setProvenance, addSupportEdge,
  /// addNegSupportEdge, eraseNegSupport; clearing an edge list keeps its
  /// capacity), so memoryFootprint() never walks them.
  size_t AuxBytes = 0;

  /// When non-null, loadFacts() joins this store instead of P.facts():
  /// the incremental engine's input facts, keys already interned.
  const StoredFacts *Store = nullptr;

  // Delta bookkeeping.
  std::vector<std::vector<uint32_t>> Delta;
  /// Per predicate, the rows whose cell strictly increased this round.
  std::vector<RowSet> NextDelta;
  /// When non-null (the incremental engine attaches it once its full
  /// solve is done), every row queueDelta queues is also recorded here:
  /// the current update's changed rows, per predicate.
  std::vector<RowSet> *Changed = nullptr;

  /// Queues row \p Row of \p Pred for the next delta round (at most once
  /// per round) and records it in Changed. Every writer of NextDelta goes
  /// through here: in-place joins, the round executor's merge and the
  /// incremental engine's seeding.
  /// Concurrent calls are safe for distinct predicates.
  void queueDelta(PredId Pred, uint32_t Row) {
    size_t Size = Tables[Pred]->size();
    if (NextDelta[Pred].insert(Row, Size) && Changed)
      (*Changed)[Pred].insert(Row, Size);
  }
  /// Makes the queued rows the current Delta (sorted, for reproducible
  /// runs) and starts an empty next delta. Returns whether any predicate
  /// has a non-empty delta.
  bool promoteDelta();
  /// The one round loop of every engine and strategy (§3.7): promotes
  /// ΔP, and while it is non-empty re-plans, at the round boundary, the
  /// plans that round can run, and evaluates one more round of
  /// \p RuleIds (evalRound). Stops with
  /// Status::IterationLimit once MaxIterations rounds have run since the
  /// Iterations count \p IterBase. solve() runs it after each stratum's
  /// round 0; an incremental update runs it on each stratum's seeded
  /// delta.
  void runRounds(const std::vector<uint32_t> &RuleIds, uint64_t IterBase);

  /// The stratification computed by solve(), kept for the incremental
  /// engine's per-stratum update rounds.
  std::optional<Stratification> Strata;

  // Run state.
  SolveStats Stats;
  uint64_t IcHitsAtStart = 0; ///< P.vmIcHits() when solve() started
  bool Solved = false;
  /// solve() is running its strata, so a round 0 (the Driver -1 plans)
  /// may be ahead.
  bool Solving = false;
  bool Aborted = false;
  Deadline DL;

  /// Runs every round when NumThreads > 0; null evaluates rounds in
  /// place. Declared last, so its workers stop before any state they
  /// read is destroyed.
  std::unique_ptr<RoundExecutor> Exec;
};

} // namespace flix

#endif // FLIX_FIXPOINT_SOLVER_H
