//===- fixpoint/Plan.h - Compiled rule join plans -------------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ahead-of-time compilation of rule bodies into flat, array-based join
/// plans, plus a memo cache for pure external functions. Compiled plans
/// are the only way any engine evaluates a rule body; together with the
/// memo cache they attack the two §4.5 hot spots that remain after
/// hash-consing: per-row interpretive dispatch over the body, and
/// repeated re-evaluation of pure transfer/filter functions.
///
/// A RulePlan is compiled once per (rule, driver position). Each Step
/// pre-resolves everything a body walk would otherwise recompute per row:
/// the access path (primary lookup, indexed probe with its bound-column
/// mask, or full scan), per-column operations (constant test,
/// bound-variable test, or first-occurrence bind), the lattice-column
/// operation (ground ⊑ test, bind, or ⊓-rebind), and filter guards fused
/// onto the step after which their arguments are bound. Boundness is
/// *static* along an evaluation order, so every per-row boundness branch
/// becomes a precomputed opcode.
///
/// PlanExecutor runs a plan with an explicit cursor stack instead of
/// recursion. It is templated over a small engine policy so the sequential
/// Solver (in-place joins) and the parallel workers (buffered derivations,
/// sub-task spilling) share one executor; both keep its premise stack
/// when the solver records support or provenance. See the engine concept
/// below.
///
/// ExternMemo caches pure external-function results keyed on hash-consed
/// Value handles. Soundness: the paper requires transfer and filter
/// functions to be pure (§2.3 "compositions of monotone and pure
/// functions"), so f(args) is uniquely determined by the argument handles
/// and caching cannot change the least fixed point. The cache is
/// lock-sharded; a racing miss may compute the same result twice, which is
/// benign for a pure function.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_FIXPOINT_PLAN_H
#define FLIX_FIXPOINT_PLAN_H

#include "fixpoint/Program.h"
#include "fixpoint/Table.h"
#include "support/SmallVector.h"

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace flix::plan {

/// Undo log for the variable bindings of one plan step's current match.
struct BindTrail {
  SmallVector<std::pair<VarId, std::pair<bool, Value>>, 4> Saved;

  void save(VarId V, bool WasBound, Value Old) {
    Saved.push_back({V, {WasBound, Old}});
  }
  void undo(std::vector<Value> &Env, std::vector<uint8_t> &Bound) {
    for (size_t I = Saved.size(); I-- > 0;) {
      Env[Saved[I].first] = Saved[I].second.second;
      Bound[Saved[I].first] = Saved[I].second.first;
    }
    Saved.clear();
  }
};

/// Per-key-column operation of one step, decided at compile time from the
/// static boundness of the column's term.
enum class ColOp : uint8_t {
  CheckConst, ///< row column must equal Const
  CheckVar,   ///< row column must equal Env[Var]
  Bind,       ///< first occurrence: bind Env[Var] to the row column
};

struct ColTest {
  ColOp Op;
  uint8_t Col; ///< key column index
  VarId Var = 0;
  Value Const;
};

/// Lattice-column operation (non-relational atoms only).
enum class LatOp : uint8_t {
  None,          ///< relational atom: no lattice column
  CheckConstLeq, ///< ground term c: require c ⊑ row value (§3.2 truth)
  BindVar,       ///< statically unbound var: bind to the row value
  GlbRebind,     ///< statically bound var: rebind to Env[v] ⊓ row value
};

/// A pre-resolved argument: a constant or an environment slot.
struct Operand {
  bool IsConst;
  VarId Var = 0;
  Value Const;
};

/// A filter application fused onto the step after which its arguments are
/// all bound (its position in the evaluation order).
struct Guard {
  FnId Fn;
  SmallVector<Operand, 4> Args;
};

enum class StepKind : uint8_t {
  Driver,   ///< rows supplied by the engine (ΔP scan); full column tests
  Lookup,   ///< all key columns bound: one primary lookup
  Probe,    ///< partial mask: indexed probe, full-scan fallback
  Scan,     ///< nothing usable bound (or indexes disabled): full scan
  /// Ground negated atom: succeed once iff the cell is absent. Negation
  /// steps always probe the *current* table — correct even during the
  /// incremental engine's stratum-local DRed, because strata are
  /// processed in order and every negated predicate lives strictly below
  /// the rules that negate it, so its table is final (all net inserts
  /// and retracts applied) before any Negation step of this update reads
  /// it. This is why no "pre-batch view" exists: the insertion delta of
  /// `not P` is the seed plan of the negated atom's slot, whose Seed step
  /// reads the rows that left P's table, and its other steps read the
  /// same current tables.
  Negation,
  Binder,   ///< `pat <- f(args)`: iterate the returned set
  Filter,   ///< leading filter with no preceding step to fuse onto
  /// Rows supplied by the engine from a seed list (the incremental
  /// engine's re-derive and `not P` insertion deltas): the key-column
  /// tests of the fronted terms only — no tombstone skip (seed rows are
  /// usually tombstoned), no lattice column, no premise push.
  Seed,
};

/// Driver slot of the head seed plan: its Seed step scans rows of the
/// head predicate, matching the head key terms (see PlanLibrary).
inline constexpr int HeadSlot = -2;

struct Step {
  StepKind Kind;
  PredId Pred = 0;
  /// Bound-column mask for Lookup/Probe (the same mask the static index
  /// analyses register, so probes always hit pre-built indexes).
  uint64_t Mask = 0;
  /// Lattice of the atom's value column; nullptr for relational atoms.
  const Lattice *Lat = nullptr;
  /// Full per-column tests, used on paths that see arbitrary rows: driver
  /// rows, full scans, and the probe fallback.
  SmallVector<ColTest, 4> Cols;
  /// Reduced tests for the indexed-probe path: bucket rows match the
  /// masked columns exactly (the index compares them on lookup), so only
  /// unmasked columns need work. Empty for Lookup — the row was found by
  /// its exact key.
  SmallVector<ColTest, 4> Binds;
  LatOp LOp = LatOp::None;
  VarId LatVar = 0;
  Value LatConst;
  /// Operands of the probe projection / lookup key / negation key, in
  /// column order.
  SmallVector<Operand, 4> ProjOps;
  /// Binder payload: Fn(Args) returning a set destructured into Pattern
  /// (ColOp::Bind / CheckVar per slot; Col is the tuple element index).
  FnId Fn = 0;
  SmallVector<Operand, 4> Args;
  SmallVector<ColTest, 2> Pattern;
  /// Filters to run after this step matches (in body order).
  SmallVector<Guard, 1> Guards;
};

/// Precomputed head derivation: key/argument slots resolved to operands.
struct HeadPlan {
  PredId Pred = 0;
  bool Relational = false;
  SmallVector<Operand, 4> KeyOps;
  bool HasFn = false;
  FnId Fn = 0;
  SmallVector<Operand, 4> FnArgs;
  Operand LastOp{};
};

/// One compiled (rule, driver) evaluation: the flat step array plus the
/// head recipe.
struct RulePlan {
  uint32_t RuleIdx = 0;
  /// -1: no driver; a body index: that atom opens the plan (a Driver step
  /// for a positive atom, a Seed step for a negated one); HeadSlot: a
  /// Seed step over head rows opens the plan.
  int32_t Driver = -1;
  bool Valid = false; ///< false for driver slots that have no plan
  uint32_t NumVars = 0;
  SmallVector<Step, 8> Steps;
  HeadPlan Head;
  /// Body-element evaluation order this plan was compiled with, as body
  /// indices (the driver element first when Driver >= 0). The frozen
  /// driver-first order at construction; replanFromStats may replace it.
  SmallVector<uint32_t, 8> BodyOrder;
  /// Per positive-atom step (premise stack order), the atom's rank among
  /// the rule's positive atoms: its premise slot in body order.
  SmallVector<uint32_t, 4> PremiseSlots;
};

//===----------------------------------------------------------------------===//
// Cost model
//===----------------------------------------------------------------------===//

/// Per-predicate statistics snapshot the cost model plans against: the
/// live row count, the per-index statistics the tables maintain (bucket
/// count, max bucket, Σ bucket size²) and, for a static predicate, sampled
/// per-column collision probabilities. Gathered at solve start and
/// between semi-naive rounds; never during an eval phase.
struct PredStats {
  double LiveRows = 0;
  SmallVector<Table::IndexStats, 4> Indexes;
  /// Static predicates only (no rule derives them), one entry per key
  /// column: the probability that two rows agree on the column
  /// (Table::sampleCollisions). Columns no rule can bind are not sampled
  /// and read 1. Empty for a derived predicate.
  SmallVector<double, 4> ColCollision;
  const Table::IndexStats *forMask(uint64_t Mask) const {
    for (const Table::IndexStats &S : Indexes)
      if (S.Mask == Mask)
        return &S;
    return nullptr;
  }
};
using StatsVec = std::vector<PredStats>;

/// Takes the statistics snapshots of one solver's tables. Live-row counts
/// and index statistics are read fresh every time (the tables maintain
/// them). The column samples of static predicates are kept between
/// snapshots and re-taken only when a table's live-row count has moved by
/// RecountFactor since its last sample, so sampling costs amortized O(1)
/// per fact and never O(rows) per round or per update.
class StatsCollector {
public:
  /// Rows read per sample, and the live-row drift factor that triggers a
  /// new one. Small, because every fresh solver samples: a sampled row
  /// costs cold-cache key reads (~80 ns), against a ~1 ms solve of a
  /// ~1k-row database.
  static constexpr size_t SampleRows = 128;
  static constexpr double RecountFactor = 2.0;

  /// Samples, per static predicate of \p Rules, only the key columns some
  /// positive body atom can find bound: a constant, or a variable another
  /// element binds — a positive atom or a binder pattern, or with \p Seeds
  /// a seed plan's fronted terms (PlanLibrary). No other column can ever
  /// be in a probe mask.
  StatsCollector(const Program &P, const std::vector<Rule> &Rules,
                 bool Seeds);

  /// Snapshots \p Tables (indexed by PredId) into \p Out.
  void gather(std::span<const std::unique_ptr<Table>> Tables,
              StatsVec &Out);

private:
  struct Sampled {
    bool Static = false;
    uint64_t Cols = 0;  ///< key columns to sample
    bool Taken = false;
    double TakenAt = 0; ///< live rows when the sample was taken
    SmallVector<double, 4> Collision;
  };
  std::vector<Sampled> PerPred;
};

/// Cost/cardinality estimate of one table access: \p Cost is rows touched
/// to produce the matches, \p Fanout the expected number of matches (the
/// multiplier applied to every later step).
struct AccessEstimate {
  double Cost;
  double Fanout;
};

/// Estimates accessing a predicate with \p Mask of its \p Full key columns
/// bound, N = LiveRows. Fully bound => primary lookup (cost 1, ≤1 row).
/// Partially bound with an existing index => the expected bucket size
/// when probe keys follow the table's own key distribution,
/// max(N / buckets, Σ bucket² / N), so one huge bucket that most probes
/// hit is priced as such, not averaged away. Partially bound without an
/// index => N · Π p_c over the bound columns' collision probabilities for
/// a static predicate; for a derived one each bound column is assumed to
/// cut the candidates by sqrt(N). Unbound (or indexes disabled) => full
/// scan.
AccessEstimate estimateAccess(const PredStats &St, uint64_t Mask,
                              uint64_t Full, bool UseIndexes);

/// Total estimated cost of evaluating \p R's body in \p BodyOrder (body
/// indices): Σ over steps of (product of preceding fanouts) × step cost.
/// When \p Driver >= 0 the fronted driver element contributes fanout 1 —
/// delta (or seed) size scales all candidate orders of the same (rule,
/// driver) equally, so it cancels in comparisons. \p PreBound marks
/// variables bound before the body starts (a seed's fronted terms).
double orderCost(const Program &P, const Rule &R, int Driver,
                 std::span<const uint32_t> BodyOrder, const StatsVec &Stats,
                 bool UseIndexes, const std::vector<bool> &PreBound);

/// Chooses a minimal-cost valid evaluation order for (\p R, \p Driver):
/// branch-and-bound over all valid interleavings for small bodies,
/// greedy min-fanout otherwise. The driver element is always first;
/// filters/binders/negations are only placed once their arguments are
/// bound. Deterministic: ties break toward the lowest body index, so
/// equal statistics always reproduce the same order.
SmallVector<uint32_t, 8> chooseOrder(const Program &P, const Rule &R,
                                     int Driver, const StatsVec &Stats,
                                     bool UseIndexes,
                                     const std::vector<bool> &PreBound);

/// The plans that can run next, to which a PlanLibrary::replanFromStats
/// check may limit itself: a plan that cannot run keeps its order until
/// it can, and the indexes a new order would probe stay unbuilt.
struct RunnablePlans {
  bool Plain = false; ///< Driver -1 plans: a round 0 or naive pass is ahead
  bool Seeds = false; ///< seed plans: an incremental update's start
  /// Per predicate, the coming round's delta rows: a plan driven by a
  /// positive atom can run when its predicate has some.
  std::span<const std::vector<uint32_t>> Delta;
};

/// Compiles and owns the plans of one rule set: one family,
/// plan(RuleIdx, Driver), each plan evaluating the rule once per row of a
/// row list the engine supplies (§3.7's "once per body atom, that atom
/// drawn from a delta"):
///
///   * Driver == -1: no fronted element, plain first-to-last evaluation
///     (round 0 / naive);
///   * Driver a positive body atom: a StepKind::Driver step scans the
///     atom's delta rows (semi-naive rounds);
///   * Driver a negated body atom, or HeadSlot: a StepKind::Seed step
///     scans seed rows and binds the fronted terms — the negated atom's
///     key terms (the insertion delta of `not P`: rows that left P's
///     table), or the head key terms plus the last column of a relational
///     head without LastFn (DRed's re-derive: the over-deleted head
///     cells). Compiled only when \p Seeds (the incremental engine's
///     solver, SolverOptions::TrackSupport).
///
/// Every slot shares compilation, cost-based re-planning and the index
/// analysis below; a seed slot's pre-bound variable set follows from
/// (rule, driver). The compiler's boundness simulation (negated atoms
/// bind nothing, positive atoms bind every variable term including the
/// lattice column, binder patterns bind, filters bind nothing) is exact
/// along a fixed order, so the probe masks of the compiled steps are
/// exactly the masks wantedIndexes() reports.
class PlanLibrary {
public:
  PlanLibrary(const Program &P, const std::vector<Rule> &Rules,
              bool UseIndexes, bool Seeds = false);

  const RulePlan &plan(uint32_t RuleIdx, int Driver) const {
    const RulePlan &Pl =
        PerRule[RuleIdx][static_cast<size_t>(Driver - HeadSlot)];
    assert(Pl.Valid && "no plan for this driver position");
    return Pl;
  }

  /// Total compiled steps over all valid plans (SolveStats::PlanSteps).
  uint64_t totalSteps() const { return TotalSteps; }

  /// Outcome of one replanFromStats call: (rule, driver) pairs whose plans
  /// were recompiled, and the total live-row drift between this statistics
  /// snapshot and the previous one (SolveStats::EstimatedVsActualRows).
  struct ReplanResult {
    unsigned Replanned = 0;
    uint64_t RowsDivergence = 0;
  };

  /// Re-evaluates plans against \p Stats — every plan, or with \p Only
  /// just the plans it names: a plan is recompiled with the cost model's
  /// chosen order when its current order's estimated cost exceeds
  /// \p Threshold × the best candidate's (so Threshold 1.0 adopts any
  /// strict improvement — the initial cost-based choose — and larger
  /// thresholds add hysteresis for the adaptive checks). Single-threaded
  /// callers only: plans are replaced in place at round boundaries, never
  /// during an eval phase.
  ReplanResult replanFromStats(const StatsVec &Stats, double Threshold,
                               const RunnablePlans *Only = nullptr);

  /// (rule, driver) pairs whose current order differs from the frozen
  /// driver-first order (SolveStats::CostBasedPlans).
  unsigned costBasedPlans() const { return CostBased; }

  /// Appends, per predicate, the bound-column masks of every Probe step in
  /// any compiled plan a round executor runs (sorted, deduplicated): every
  /// plan but the seed plans, which run in place on the solver's thread
  /// and build their indexes lazily, on first probe. Because it reads the
  /// *compiled* plans rather than re-simulating an assumed order, it
  /// stays correct for any cost-chosen order — Solver::prepareIndexes
  /// builds exactly these masks, so the parallel workers' read-only
  /// probes never miss on a reordered plan. \p MasksByPred must be sized
  /// to the program's predicate count.
  void wantedIndexes(std::vector<std::vector<uint64_t>> &MasksByPred) const;

private:
  void recountDerived();

  const Program *Prog = nullptr;
  const std::vector<Rule> *Rules = nullptr;
  bool UseIndexes = true;
  /// Per rule, per driver slot (Driver - HeadSlot); invalid where no plan
  /// exists for that slot.
  std::vector<std::vector<RulePlan>> PerRule;
  /// Statistics snapshot of the last replanFromStats call (divergence
  /// baseline).
  StatsVec LastStats;
  uint64_t TotalSteps = 0;
  unsigned CostBased = 0;
};

//===----------------------------------------------------------------------===//
// ExternMemo
//===----------------------------------------------------------------------===//

/// Lock-sharded memo cache for pure external functions, keyed on the
/// hash-consed argument handles (see file comment for the soundness
/// argument). One instance per solver run; shared by all workers.
class ExternMemo {
public:
  /// Returns the cached result of Fn(Args), computing it via \p Compute on
  /// a miss. Compute runs outside the shard lock: a racing thread may
  /// compute the same pure call twice, but never blocks on it.
  template <typename ComputeFn>
  Value call(FnId Fn, std::span<const Value> Args, ComputeFn Compute) {
    uint64_t H = hashKey(Fn, Args);
    Shard &Sh = Shards[H % NumShards];
    {
      std::lock_guard<std::mutex> Lock(Sh.Mu);
      auto It = Sh.Map.find(Key{Fn, H, {Args.begin(), Args.end()}});
      if (It != Sh.Map.end()) {
        Hits.fetch_add(1, std::memory_order_relaxed);
        return It->second;
      }
    }
    Misses.fetch_add(1, std::memory_order_relaxed);
    Value Res = Compute();
    std::lock_guard<std::mutex> Lock(Sh.Mu);
    auto [It, Inserted] =
        Sh.Map.try_emplace(Key{Fn, H, {Args.begin(), Args.end()}}, Res);
    if (Inserted)
      Sh.Bytes += entryBytes(Args.size());
    return It->second;
  }

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }

  /// Approximate heap footprint (SolveStats::MemoryBytes accounting).
  size_t memoryBytes() const {
    size_t Total = 0;
    for (const Shard &Sh : Shards) {
      std::lock_guard<std::mutex> Lock(Sh.Mu);
      Total += Sh.Bytes + Sh.Map.bucket_count() * sizeof(void *);
    }
    return Total;
  }

private:
  struct Key {
    FnId Fn;
    uint64_t Hash;
    SmallVector<Value, 4> Args;
    bool operator==(const Key &O) const {
      if (Fn != O.Fn || Args.size() != O.Args.size())
        return false;
      for (size_t I = 0; I < Args.size(); ++I)
        if (Args[I] != O.Args[I])
          return false;
      return true;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const { return K.Hash; }
  };

  static uint64_t hashKey(FnId Fn, std::span<const Value> Args) {
    uint64_t H = hashValues(static_cast<uint64_t>(Fn), Args.size());
    for (const Value &V : Args)
      H = hashCombine(H, V.hash());
    return H;
  }
  static size_t entryBytes(size_t NumArgs) {
    size_t B = sizeof(Key) + sizeof(Value) + 2 * sizeof(void *);
    if (NumArgs > 4) // SmallVector<Value, 4> spilled to the heap
      B += NumArgs * sizeof(Value);
    return B;
  }

  static constexpr size_t NumShards = 64;
  struct Shard {
    mutable std::mutex Mu;
    std::unordered_map<Key, Value, KeyHash> Map;
    size_t Bytes = 0;
  };
  std::array<Shard, NumShards> Shards;
  std::atomic<uint64_t> Hits{0}, Misses{0};
};

/// External-function dispatch shared by every engine: the bytecode-VM
/// body when \p UseVm and one is compiled, else the interpreter closure
/// (counted in \p InterpFallbacks when the function wanted the VM), routed
/// through \p Memo when memoization is on. \p VmCalls counts actual VM
/// executions (memo hits excluded). Inline so each engine's PlanExecutor
/// instantiation calls the implementation directly.
inline Value dispatchExtern(const Program &P, bool UseVm, ExternMemo *Memo,
                            FnId Fn, std::span<const Value> Args,
                            uint64_t &VmCalls, uint64_t &InterpFallbacks) {
  const ExternFn &D = P.functionDecl(Fn);
  const ExternImpl *Impl = &D.Impl;
  bool ViaVm = false;
  if (UseVm) {
    if (D.VmImpl) {
      Impl = &D.VmImpl;
      ViaVm = true;
    } else if (D.InterpOnly) {
      ++InterpFallbacks;
    }
  }
  auto Compute = [&] {
    VmCalls += ViaVm;
    return (*Impl)(Args);
  };
  if (Memo)
    return Memo->call(Fn, Args, Compute);
  return Compute();
}

//===----------------------------------------------------------------------===//
// PlanExecutor
//===----------------------------------------------------------------------===//

/// Resolves an operand against the engine's environment.
template <typename EngineT>
inline Value opValue(EngineT &E, const Operand &O) {
  return O.IsConst ? O.Const : E.env()[O.Var];
}

/// Computes the head cell of a full match and hands (KeyT, LatVal) to the
/// engine (relational heads fold the last column into the key, §3.2).
template <typename EngineT>
inline void deriveWithPlan(EngineT &E, ValueFactory &F, const RulePlan &Pl) {
  const HeadPlan &H = Pl.Head;
  SmallVector<Value, 4> Key;
  for (const Operand &O : H.KeyOps)
    Key.push_back(opValue(E, O));
  Value LatVal;
  if (H.HasFn) {
    SmallVector<Value, 4> Args;
    for (const Operand &O : H.FnArgs)
      Args.push_back(opValue(E, O));
    LatVal = E.callExtern(H.Fn,
                          std::span<const Value>(Args.data(), Args.size()));
  } else {
    LatVal = opValue(E, H.LastOp);
  }
  if (H.Relational) {
    Key.push_back(LatVal);
    LatVal = F.boolean(true);
  }
  Value KeyT = F.tuple(std::span<const Value>(Key.data(), Key.size()));
  E.onDerived(Pl, KeyT, LatVal);
}

/// Non-recursive plan executor. \p EngineT supplies the per-engine policy:
///
///   std::vector<Value> &env();            // variable environment
///   std::vector<uint8_t> &bound();        // runtime bound flags (undo log)
///   ValueFactory &factory();
///   Table &table(PredId);
///   bool checkRow();                      // true => abort the evaluation
///   Value callExtern(FnId, std::span<const Value>);
///   // Indexed probe by the bound columns' values; returns nullptr to
///   // request the full-scan fallback (counting/asserting per engine
///   // policy). The bucket must keep its address while the plan runs; the
///   // cursor reads only the prefix of the size it had at probe time.
///   const Table::Bucket *probeBucket(const Step &,
///                                    std::span<const Value> Proj);
///   // Intra-rule spilling hook (parallel workers): may capture
///   // [Begin, End) of Rows (nullptr = raw row-id range) as sub-tasks and
///   // return the new Begin. Others return Begin unchanged.
///   uint32_t maybeSpill(const RulePlan &, uint32_t StepIdx,
///                       const std::vector<uint32_t> *Rows,
///                       uint32_t Begin, uint32_t End);
///   void onRow(PredId, uint32_t RowId);   // positive-atom premise push
///   void popRow();                        //   ... and pop (recording)
///   void onDerived(const RulePlan &, Value KeyT, Value LatVal);
///   // Driver rows of the current task (StepKind::Driver / Seed).
///   const std::vector<uint32_t> *driverRows(uint32_t &Begin, uint32_t &End);
template <typename EngineT> class PlanExecutor {
public:
  explicit PlanExecutor(EngineT &E) : E(E) {}

  /// Evaluates \p Pl from step 0 over an empty environment (the caller
  /// has already sized env/bound).
  void run(const RulePlan &Pl) {
    if (Pl.Steps.empty()) {
      deriveWithPlan(E, E.factory(), Pl);
      return;
    }
    prepare(Pl);
    exec(Pl, /*Base=*/0, /*SeedEntering=*/true);
  }

  /// Resumes \p Pl at \p StepIdx over rows [\p Begin, \p End) of \p Rows
  /// (nullptr = raw row ids) — the parallel sub-task continuation. The
  /// caller restored env/bound to the captured prefix. Rows-vs-nullptr
  /// selects the reduced-bind (index bucket) vs full-column (scan) tests,
  /// matching what the spilling step was iterating.
  void runFrom(const RulePlan &Pl, uint32_t StepIdx,
               const std::vector<uint32_t> *Rows, uint32_t Begin,
               uint32_t End) {
    prepare(Pl);
    Cursor &C = Cursors[StepIdx];
    C = Cursor();
    const Step &S = Pl.Steps[StepIdx];
    Begin = E.maybeSpill(Pl, StepIdx, Rows, Begin, End);
    C.RowList = Rows;
    C.Idx = Begin;
    C.End = End;
    // A resumed index bucket needs only the reduced tests; raw row-id
    // ranges (scans, probe fallbacks) and driver rows need the full ones.
    C.UseFullCols = Rows == nullptr || S.Kind == StepKind::Driver;
    exec(Pl, /*Base=*/StepIdx, /*SeedEntering=*/false);
  }

private:
  struct Cursor {
    const std::vector<uint32_t> *RowList = nullptr; ///< null: raw id range
    uint32_t Idx = 0, End = 0;
    std::span<const Value> SetElems;
    uint32_t SIdx = 0;
    bool Done = false;        ///< one-shot steps (Filter, Negation)
    bool UseFullCols = false; ///< probe fell back to a full scan
    bool HasPremise = false;
    BindTrail Trail;
  };

  void prepare(const RulePlan &Pl) {
    if (Cursors.size() < Pl.Steps.size())
      Cursors.resize(Pl.Steps.size());
  }

  /// The backtracking loop. Cursors[Base..Pos] hold the active prefix;
  /// entering a step initializes its cursor, advancing yields its next
  /// match (undoing the previous candidate's bindings first).
  void exec(const RulePlan &Pl, size_t Base, bool SeedEntering) {
    const size_t N = Pl.Steps.size();
    size_t Pos = Base;
    bool Entering = SeedEntering;
    for (;;) {
      Cursor &C = Cursors[Pos];
      if (Entering)
        initCursor(Pl, Pl.Steps[Pos], C, static_cast<uint32_t>(Pos));
      if (!advance(Pl.Steps[Pos], C)) {
        if (Pos == Base)
          return;
        --Pos;
        Entering = false;
        continue;
      }
      if (Pos + 1 == N) {
        deriveWithPlan(E, E.factory(), Pl);
        Entering = false; // stay: next candidate of the last step
        continue;
      }
      ++Pos;
      Entering = true;
    }
  }

  void initCursor(const RulePlan &Pl, const Step &S, Cursor &C,
                  uint32_t StepIdx) {
    C.HasPremise = false; // may be stale from an aborted deeper pass
    C.Trail.Saved.clear();
    C.RowList = nullptr;
    C.Idx = C.End = 0;
    C.SIdx = 0;
    C.SetElems = {};
    C.Done = false;
    C.UseFullCols = false;

    switch (S.Kind) {
    case StepKind::Driver:
    case StepKind::Seed: {
      C.RowList = E.driverRows(C.Idx, C.End);
      C.UseFullCols = true;
      return;
    }
    case StepKind::Lookup: {
      SmallVector<Value, 4> Key;
      gatherProj(S, Key);
      uint32_t Id = E.table(S.Pred).lookupRow(
          std::span<const Value>(Key.data(), Key.size()));
      if (Id != Table::NoRow) {
        C.Idx = Id;
        C.End = Id + 1;
      }
      return;
    }
    case StepKind::Probe: {
      SmallVector<Value, 4> Proj;
      gatherProj(S, Proj);
      if (const Table::Bucket *Bucket = E.probeBucket(
              S, std::span<const Value>(Proj.data(), Proj.size()))) {
        // End is captured now: rows an in-place join appends to the
        // bucket while this cursor is open belong to the next round.
        uint32_t Begin = E.maybeSpill(
            Pl, StepIdx, Bucket, 0, static_cast<uint32_t>(Bucket->size()));
        C.RowList = Bucket;
        C.Idx = Begin;
        C.End = static_cast<uint32_t>(Bucket->size());
        return;
      }
      // No index for this mask: full scan with the full column tests.
      C.UseFullCols = true;
      uint32_t End = static_cast<uint32_t>(E.table(S.Pred).size());
      C.Idx = E.maybeSpill(Pl, StepIdx, nullptr, 0, End);
      C.End = End;
      return;
    }
    case StepKind::Scan: {
      C.UseFullCols = true;
      uint32_t End = static_cast<uint32_t>(E.table(S.Pred).size());
      C.Idx = E.maybeSpill(Pl, StepIdx, nullptr, 0, End);
      C.End = End;
      return;
    }
    case StepKind::Binder: {
      SmallVector<Value, 4> Args;
      for (const Operand &O : S.Args)
        Args.push_back(opValue(E, O));
      Value Res = E.callExtern(
          S.Fn, std::span<const Value>(Args.data(), Args.size()));
      assert(Res.isSet() && "binder function must return a Set");
      C.SetElems = E.factory().setElems(Res);
      return;
    }
    case StepKind::Negation:
    case StepKind::Filter:
      return; // one-shot; Done gates advance()
    }
  }

  /// Yields the step's next candidate match into env/bound, or false when
  /// exhausted (or aborting). Always undoes the previous candidate first.
  bool advance(const Step &S, Cursor &C) {
    if (C.HasPremise) {
      E.popRow();
      C.HasPremise = false;
    }
    C.Trail.undo(E.env(), E.bound());

    switch (S.Kind) {
    case StepKind::Driver:
    case StepKind::Seed:
    case StepKind::Lookup:
    case StepKind::Probe:
    case StepKind::Scan: {
      Table &T = E.table(S.Pred);
      // A seed row is no premise of the derivation: it names the cell (or
      // the absent negated key) the plan evaluates for.
      bool Premise = S.Kind != StepKind::Seed;
      while (C.Idx < C.End) {
        if (E.checkRow())
          return false;
        uint32_t RowId = C.RowList ? (*C.RowList)[C.Idx] : C.Idx;
        ++C.Idx;
        if (Premise && T.isTombstone(RowId))
          continue;
        if (!matchRow(S, C, T, RowId)) {
          C.Trail.undo(E.env(), E.bound());
          continue;
        }
        if (Premise) {
          E.onRow(S.Pred, RowId);
          C.HasPremise = true;
        }
        return true;
      }
      return false;
    }
    case StepKind::Binder: {
      while (C.SIdx < C.SetElems.size()) {
        if (E.checkRow())
          return false;
        Value Elem = C.SetElems[C.SIdx++];
        if (!bindPattern(S, C, Elem)) {
          C.Trail.undo(E.env(), E.bound());
          continue;
        }
        if (!runGuards(S)) {
          C.Trail.undo(E.env(), E.bound());
          continue;
        }
        return true;
      }
      return false;
    }
    case StepKind::Negation: {
      if (C.Done)
        return false;
      C.Done = true;
      SmallVector<Value, 4> Key;
      gatherProj(S, Key);
      if (E.table(S.Pred).lookup(
              std::span<const Value>(Key.data(), Key.size())))
        return false;
      return runGuards(S);
    }
    case StepKind::Filter: {
      if (C.Done)
        return false;
      C.Done = true;
      return runGuards(S);
    }
    }
    return false; // unreachable
  }

  /// Row tests of one atom candidate: column ops, the lattice op, then the
  /// fused guards. Bindings go through the cursor's trail.
  bool matchRow(const Step &S, Cursor &C, Table &T, uint32_t RowId) {
    std::vector<Value> &Env = E.env();
    std::vector<uint8_t> &Bound = E.bound();
    const auto &Tests = C.UseFullCols ? S.Cols : S.Binds;
    if (!Tests.empty()) {
      std::span<const Value> KeyElems = T.rowKey(RowId);
      for (const ColTest &Ct : Tests) {
        Value RowV = KeyElems[Ct.Col];
        switch (Ct.Op) {
        case ColOp::CheckConst:
          if (!(Ct.Const == RowV))
            return false;
          break;
        case ColOp::CheckVar:
          if (!(Env[Ct.Var] == RowV))
            return false;
          break;
        case ColOp::Bind:
          C.Trail.save(Ct.Var, false, Env[Ct.Var]);
          Env[Ct.Var] = RowV;
          Bound[Ct.Var] = 1;
          break;
        }
      }
    }
    if (S.LOp != LatOp::None) {
      Value RowVal = T.row(RowId).Lat;
      switch (S.LOp) {
      case LatOp::CheckConstLeq:
        if (!S.Lat->leq(S.LatConst, RowVal))
          return false;
        break;
      case LatOp::BindVar:
        C.Trail.save(S.LatVar, false, Env[S.LatVar]);
        Env[S.LatVar] = RowVal;
        Bound[S.LatVar] = 1;
        break;
      case LatOp::GlbRebind: {
        Value G = S.Lat->glb(Env[S.LatVar], RowVal);
        C.Trail.save(S.LatVar, true, Env[S.LatVar]);
        Env[S.LatVar] = G;
        break;
      }
      case LatOp::None:
        break;
      }
    }
    return runGuards(S);
  }

  bool bindPattern(const Step &S, Cursor &C, Value Elem) {
    std::vector<Value> &Env = E.env();
    std::vector<uint8_t> &Bound = E.bound();
    if (S.Pattern.size() == 1) {
      const ColTest &Ct = S.Pattern[0];
      if (Ct.Op == ColOp::CheckVar)
        return Env[Ct.Var] == Elem;
      C.Trail.save(Ct.Var, false, Env[Ct.Var]);
      Env[Ct.Var] = Elem;
      Bound[Ct.Var] = 1;
      return true;
    }
    ValueFactory &F = E.factory();
    if (!Elem.isTuple() || F.tupleElems(Elem).size() != S.Pattern.size())
      return false;
    std::span<const Value> Elems = F.tupleElems(Elem);
    for (const ColTest &Ct : S.Pattern) {
      Value V = Elems[Ct.Col];
      if (Ct.Op == ColOp::CheckVar) {
        if (!(Env[Ct.Var] == V))
          return false;
        continue;
      }
      C.Trail.save(Ct.Var, false, Env[Ct.Var]);
      Env[Ct.Var] = V;
      Bound[Ct.Var] = 1;
    }
    return true;
  }

  bool runGuards(const Step &S) {
    for (const Guard &G : S.Guards) {
      SmallVector<Value, 4> Args;
      for (const Operand &O : G.Args)
        Args.push_back(opValue(E, O));
      Value Res = E.callExtern(
          G.Fn, std::span<const Value>(Args.data(), Args.size()));
      assert(Res.isBool() && "filter function must return Bool");
      if (!Res.asBool())
        return false;
    }
    return true;
  }

  /// The step's probe projection / lookup key / negation key, in column
  /// order. Looked up by span, so probing interns nothing.
  void gatherProj(const Step &S, SmallVector<Value, 4> &Out) {
    for (const Operand &O : S.ProjOps)
      Out.push_back(opValue(E, O));
  }

  EngineT &E;
  std::vector<Cursor> Cursors;
};

} // namespace flix::plan

#endif // FLIX_FIXPOINT_PLAN_H
