//===- parallel/ParallelSolver.cpp - Parallel semi-naive solver -----------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "parallel/ParallelSolver.h"

#include "fixpoint/Plan.h"
#include "support/Hashing.h"
#include "support/SmallVector.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <set>
#include <unordered_map>

using namespace flix;

//===----------------------------------------------------------------------===//
// Worker-local evaluation context
//===----------------------------------------------------------------------===//

namespace {

/// Map key for per-shard ⊔-compaction: one cell of one predicate.
struct CellKey {
  PredId Pred;
  Value Key;
  bool operator==(const CellKey &O) const {
    return Pred == O.Pred && Key == O.Key;
  }
};

struct CellKeyHash {
  size_t operator()(const CellKey &C) const {
    return hashValues(static_cast<uint64_t>(C.Pred), C.Key.hash());
  }
};

// Deque payload encoding. Payloads below SpawnPayloadBit index the
// coordinator's preloaded Tasks vector; payloads with the bit set name a
// sub-task spawned mid-phase: (spawning worker << SpawnWorkerShift) |
// arena slot.
constexpr size_t SpawnPayloadBit = size_t(1) << 63;
constexpr unsigned SpawnWorkerShift = 40;
constexpr size_t SpawnSlotMask = (size_t(1) << SpawnWorkerShift) - 1;

} // namespace

/// Per-worker evaluation state: the parallel engine policy of the shared
/// plan executor (fixpoint/Plan.h). It differs from the sequential
/// Solver's in three ways: tables are read through const access paths
/// only (the snapshot is immutable during an eval phase), derived heads
/// are buffered into per-shard vectors instead of joined in place, and
/// the abort check consults a shared atomic flag so one worker's timeout
/// stops all of them.
struct ParallelSolver::WorkerCtx {
  /// A captured continuation of one in-flight rule evaluation: re-run the
  /// scan at plan step Pos over row range [Begin, End) — ids from *Rows
  /// (an index bucket, immutable during the phase) or, when Rows is null,
  /// raw table ids — under the bound-env prefix (Env, Bound) that was
  /// live when the owning worker decided to split. The plan is not
  /// stored: it is a pure function of (RuleIdx, Driver) within a phase,
  /// so the executor re-fetches it exactly as runTask does.
  struct SubTask {
    uint32_t RuleIdx;
    int32_t Driver;
    uint32_t Pos;
    const std::vector<uint32_t> *Rows;
    uint32_t Begin, End;
    std::vector<Value> Env;
    std::vector<uint8_t> Bound;
  };

  /// Per-worker storage for spawned sub-tasks, published to thieves one
  /// atomic slot at a time. The owner fills a SubTask (reusing last
  /// phase's objects, so Env capacity survives), then release-stores its
  /// pointer into Slots[N] *before* pushing the payload onto the deque;
  /// an executor acquire-loads the slot, spinning past the (theoretical)
  /// window in which the deque handed over the payload but the slot store
  /// is not yet visible — the Chase–Lev buffer only synchronizes the
  /// payload value itself, not the pointee. Slots are reset by the
  /// coordinator between phases (a happens-before edge via the pool's
  /// phase mutex), so reuse across phases is race-free. alloc() returning
  /// null (capacity exhausted) makes the caller fall back to inline
  /// iteration — spilling is an optimization, never a correctness need.
  struct SpawnArena {
    static constexpr size_t Capacity = size_t(1) << 16;

    std::unique_ptr<std::atomic<SubTask *>[]> Slots; ///< lazily allocated
    std::vector<std::unique_ptr<SubTask>> Owned;     ///< owner-only
    size_t Filled = 0; ///< owner-only: slots filled this phase

    /// Owner: next sub-task object to fill, or nullptr when the arena is
    /// full. Does not publish.
    SubTask *alloc() {
      if (Filled == Capacity)
        return nullptr;
      if (!Slots) {
        Slots.reset(new std::atomic<SubTask *>[Capacity]);
        for (size_t I = 0; I < Capacity; ++I)
          Slots[I].store(nullptr, std::memory_order_relaxed);
      }
      if (Filled == Owned.size())
        Owned.push_back(std::make_unique<SubTask>());
      return Owned[Filled].get();
    }

    /// Owner: publishes the filled sub-task, returning its slot index.
    size_t publish(SubTask *T) {
      Slots[Filled].store(T, std::memory_order_release);
      return Filled++;
    }

    /// Executor (any worker): the sub-task at \p Slot.
    const SubTask &get(size_t Slot) const {
      SubTask *T;
      while (!(T = Slots[Slot].load(std::memory_order_acquire)))
        std::this_thread::yield(); // publish store racing into view
      return *T;
    }

    /// Coordinator, between phases: recycle. Only the filled prefix needs
    /// nulling, so cost tracks actual spawn volume.
    void reset() {
      for (size_t I = 0; I < Filled; ++I)
        Slots[I].store(nullptr, std::memory_order_relaxed);
      Filled = 0;
    }
  };

  ParallelSolver &S;
  unsigned Id;

  std::vector<Value> Env;
  std::vector<uint8_t> Bound;
  const Task *Cur = nullptr;
  /// Rule/driver of the evaluation in flight (set by both runTask and
  /// runSpawned), from which spawned continuations re-fetch their plan.
  uint32_t CurRuleIdx = 0;
  int32_t CurDriver = -1;

  SpawnArena Arena;

  /// Buffered derivations, pre-sharded by hash(pred, key) so the merge
  /// phase can compact each shard without cross-shard synchronization.
  std::vector<std::vector<Deriv>> Buffers;

  /// Persistent per-worker plan executor (cursor storage survives across
  /// tasks, so steady-state evaluation allocates nothing).
  plan::PlanExecutor<WorkerCtx> Exec{*this};

  // Counters drained into SolveStats by the coordinator between phases.
  uint64_t RuleFirings = 0;
  uint64_t FactsDerived = 0;
  uint64_t MergeCollisions = 0;
  uint64_t SpawnedSubtasks = 0;
  uint64_t MaxFanout = 0;
  uint64_t IndexFallbacks = 0;
  uint64_t VmCalls = 0;
  uint64_t InterpFallbacks = 0;

  WorkerCtx(ParallelSolver &S, unsigned Id) : S(S), Id(Id) {
    Buffers.resize(NumMergeShards);
  }

  bool checkAbort() {
    if (S.AbortFlag.load(std::memory_order_relaxed))
      return true;
    if (S.DL.expired()) {
      S.AbortFlag.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  Value callExtern(FnId Fn, std::span<const Value> Args) {
    const ExternFn &D = S.P.functionDecl(Fn);
    const ExternImpl *Impl = &D.Impl;
    bool ViaVm = false;
    if (S.Opts.UseVm) {
      if (D.VmImpl) {
        Impl = &D.VmImpl;
        ViaVm = true;
      } else if (D.InterpOnly) {
        ++InterpFallbacks;
      }
    }
    auto Compute = [&]() -> Value {
      VmCalls += ViaVm;
      return (*Impl)(Args);
    };
    if (S.Memo)
      return S.Memo->call(Fn, Args, Compute);
    return Compute();
  }

  //===--------------------------------------------------------------------===//
  // PlanExecutor engine policy (Plan.h). WorkerCtx is its own engine: the
  // executor's hooks map 1:1 onto the worker's snapshot-read, buffered-
  // write, sub-task-spilling evaluation discipline.
  //===--------------------------------------------------------------------===//

  std::vector<Value> &env() { return Env; }
  std::vector<uint8_t> &bound() { return Bound; }
  ValueFactory &factory() { return S.F; }
  Table &table(PredId P) { return *S.Tables[P]; }
  bool checkRow() { return checkAbort(); }

  /// Buckets are immutable during an eval phase, so no copy is taken (the
  /// scratch vector stays untouched) and the returned pointer is a stable
  /// spill target. A miss means the static index analysis and the plan
  /// compiler disagreed on a mask — counted, fatal under
  /// StrictIndexCoverage, and answered with a full-scan fallback.
  const std::vector<uint32_t> *probeBucket(const plan::Step &St, Value ProjT,
                                           std::vector<uint32_t> &) {
    if (const std::vector<uint32_t> *Bucket =
            S.Tables[St.Pred]->probeExisting(St.Mask, ProjT))
      return Bucket;
    ++IndexFallbacks;
    assert(!S.Opts.StrictIndexCoverage &&
           "probeExisting miss: plan mask not pre-built by the static "
           "index analysis");
    return nullptr;
  }

  /// Intra-rule spilling, with the plan-step index in SubTask::Pos.
  uint32_t maybeSpill(const plan::RulePlan &, uint32_t StepIdx,
                      const std::vector<uint32_t> *Rows, uint32_t Begin,
                      uint32_t End) {
    return trySpill(StepIdx, Rows, Begin, End);
  }

  void onRow(PredId, uint32_t) {}
  void popRow() {}

  void onDerived(const plan::RulePlan &Pl, Value KeyT, Value LatVal) {
    ++RuleFirings;
    // x ⊔ ⊥ = x can never change a cell, so don't ship ⊥ derivations
    // through the merge (the sequential Table::join drops them too).
    if (!Pl.Head.Relational &&
        LatVal == S.P.predicate(Pl.Head.Pred).Lat->bot())
      return;
    size_t Sh = hashValues(static_cast<uint64_t>(Pl.Head.Pred),
                           KeyT.hash()) &
                (NumMergeShards - 1);
    Buffers[Sh].push_back({Pl.Head.Pred, KeyT, LatVal});
  }

  /// Driver rows of the running task (only reachable from runTask: spawned
  /// continuations never re-enter a Driver step from the top).
  const std::vector<uint32_t> *driverRows(uint32_t &Begin, uint32_t &End) {
    Begin = Cur->Begin;
    End = Cur->End;
    return Cur->Rows;
  }

  void runTask(const Task &T);
  void runSpawned(const SubTask &T);
  uint32_t trySpill(size_t Pos, const std::vector<uint32_t> *Rows,
                    uint32_t Begin, uint32_t End);
  void compactShard(size_t Sh);
  void joinPred(PredId Pred);
};

void ParallelSolver::WorkerCtx::runTask(const Task &T) {
  const plan::RulePlan &Pl = S.Plans->plan(T.RuleIdx, T.Driver);
  Env.assign(Pl.NumVars, Value());
  Bound.assign(Pl.NumVars, 0);

  Cur = &T;
  CurRuleIdx = T.RuleIdx;
  CurDriver = T.Driver;
  Exec.run(Pl);
  Cur = nullptr;
}

// Executes a spawned continuation: restore the captured env prefix and
// resume the split scan at its plan step. Runs on whichever worker took
// or stole the payload. Cur stays null; plan resumption never re-enters
// the Driver step.
void ParallelSolver::WorkerCtx::runSpawned(const SubTask &T) {
  Env = T.Env;
  Bound = T.Bound;
  CurRuleIdx = T.RuleIdx;
  CurDriver = T.Driver;
  Exec.runFrom(S.Plans->plan(T.RuleIdx, T.Driver), T.Pos, T.Rows, T.Begin,
               T.End);
}

// Splits the scan [Begin, End) at plan step \p Pos into spawned
// sub-tasks of SpillThreshold rows each, keeping the tail inline.
// Returns the start of the inline remainder (== Begin when the range is
// below the threshold, spilling is disabled, or the arena is full).
uint32_t ParallelSolver::WorkerCtx::trySpill(size_t Pos,
                                             const std::vector<uint32_t> *Rows,
                                             uint32_t Begin, uint32_t End) {
  uint32_t Thresh = S.Opts.SpillThreshold;
  if (Thresh == 0)
    return Begin;
  // No point fanning out work that will only observe the abort flag.
  if (S.AbortFlag.load(std::memory_order_relaxed))
    return Begin;
  uint64_t Fanout = 0;
  uint32_t B = Begin;
  while (End - B > Thresh) {
    SubTask *T = Arena.alloc();
    if (!T)
      break; // arena full; iterate the rest inline
    T->RuleIdx = CurRuleIdx;
    T->Driver = CurDriver;
    T->Pos = static_cast<uint32_t>(Pos);
    T->Rows = Rows;
    T->Begin = B;
    T->End = B + Thresh;
    T->Env = Env;
    T->Bound = Bound;
    size_t Slot = Arena.publish(T);
    S.Pool->spawn(Id, SpawnPayloadBit |
                          (size_t(Id) << SpawnWorkerShift) | Slot);
    ++SpawnedSubtasks;
    ++Fanout;
    B += Thresh;
  }
  MaxFanout = std::max(MaxFanout, Fanout);
  return B;
}

// Merge phase A: fold all workers' buffered derivations for shard \p Sh
// into one derivation per cell via ⊔. Shards partition the cell space, so
// tasks write disjoint CompactedShards entries.
void ParallelSolver::WorkerCtx::compactShard(size_t Sh) {
  std::vector<Deriv> &Out = S.CompactedShards[Sh];
  std::unordered_map<CellKey, size_t, CellKeyHash> Cells;
  uint64_t Seen = 0;
  for (const std::unique_ptr<WorkerCtx> &W : S.Workers) {
    for (const Deriv &D : W->Buffers[Sh]) {
      // A timed-out run's model is discarded, so aborting mid-merge is
      // safe; without this check a derivation-heavy round could overshoot
      // the deadline by the whole merge.
      if ((++Seen & 0x3FF) == 0 && checkAbort())
        return;
      auto [It, IsNew] = Cells.try_emplace(CellKey{D.Pred, D.Key},
                                           Out.size());
      if (IsNew) {
        Out.push_back(D);
        continue;
      }
      Deriv &E = Out[It->second];
      E.Lat = S.Tables[D.Pred]->lattice().lub(E.Lat, D.Lat);
      ++MergeCollisions;
    }
  }
}

// Merge phase B: join one predicate's compacted derivations into its head
// table and record the strictly-increased rows as the next delta. One
// task per predicate, so table mutation is single-writer.
void ParallelSolver::WorkerCtx::joinPred(PredId Pred) {
  Table &T = *S.Tables[Pred];
  std::vector<uint32_t> &ND = S.NextDelta[Pred];
  uint64_t Seen = 0;
  for (const Deriv &D : S.PendingByPred[Pred]) {
    if ((++Seen & 0x3FF) == 0 && checkAbort())
      break; // partial joins are fine: the run reports Timeout
    Table::JoinResult JR = T.join(D.Key, D.Lat);
    if (JR.Changed) {
      ++FactsDerived;
      ND.push_back(JR.RowId);
    }
  }
  // Compaction left at most one derivation per cell, so the ids are
  // unique; sort them so delta iteration order is deterministic.
  std::sort(ND.begin(), ND.end());
}

//===----------------------------------------------------------------------===//
// Coordinator
//===----------------------------------------------------------------------===//

ParallelSolver::ParallelSolver(const Program &P, SolverOptions Opts)
    : P(P), Opts(Opts), F(P.factory()),
      RelLattice(std::make_unique<BoolLattice>(F)),
      NumWorkers(std::max(1u, Opts.NumThreads)) {
  Tables.reserve(P.predicates().size());
  for (const PredicateDecl &D : P.predicates()) {
    // Key arity > 63 is rejected by Program::validate() at solve() start
    // (a diagnostic, not an assert), so constructing the table is fine.
    const Lattice &L = D.isRelational() ? *RelLattice : *D.Lat;
    Tables.push_back(std::make_unique<Table>(D.keyArity(), L, F));
  }
  Plans = std::make_unique<plan::PlanLibrary>(P, P.rules(), Opts.UseIndexes);
  if (Opts.EnableMemo)
    Memo = std::make_unique<plan::ExternMemo>();
  Delta.resize(P.predicates().size());
  NextDelta.resize(P.predicates().size());
  AllRows.resize(P.predicates().size());
  PendingByPred.resize(P.predicates().size());
  CompactedShards.resize(NumMergeShards);
  // Static indexes are built pool-parallel inside solve(), after fact
  // loading — the tables are still empty here.
  Pool = std::make_unique<ThreadPool>(NumWorkers);
  Workers.reserve(NumWorkers);
  for (unsigned W = 0; W < NumWorkers; ++W)
    Workers.push_back(std::make_unique<WorkerCtx>(*this, W));
}

ParallelSolver::~ParallelSolver() = default;

/// Workers never create indexes (probeExisting is read-only), so every
/// index they could profit from must exist before the first eval phase.
/// The wanted masks are read straight off the plans' Probe steps —
/// covering whatever body order the planner chose, now or after a
/// re-plan. The sequential solver instead builds these same indexes
/// lazily on first probe.
std::vector<std::pair<PredId, uint64_t>>
ParallelSolver::computeWantedIndexes() const {
  if (!Opts.UseIndexes)
    return {};
  std::set<std::pair<PredId, uint64_t>> Wanted;
  std::vector<std::vector<uint64_t>> MasksByPred(Tables.size());
  Plans->wantedIndexes(MasksByPred);
  for (PredId Pred = 0; Pred < MasksByPred.size(); ++Pred)
    for (uint64_t Mask : MasksByPred[Pred])
      Wanted.insert({Pred, Mask});
  for (auto [Pred, Mask] : P.indexHints())
    Wanted.insert({Pred, Mask});
  return {Wanted.begin(), Wanted.end()};
}

/// Builds the wanted indexes through the pool in two phases: (1) one task
/// per (pred, row-chunk) scans its chunk once and fills per-mask partial
/// buckets; (2) one task per (pred, mask) concatenates that mask's
/// partials (ordered by row range, so buckets stay ascending) into the
/// pre-created Index slot. Distinct (pred, mask) merges touch disjoint
/// Index objects, so phase 2 needs no locking; empty tables only get
/// their (empty) slots, which Table::join then maintains incrementally as
/// rows arrive from merge phases.
void ParallelSolver::buildStaticIndexes() {
  std::vector<std::pair<PredId, uint64_t>> Wanted = computeWantedIndexes();
  // On a repeat call (after a re-plan) most indexes already exist —
  // building one twice would corrupt it, so keep only the missing masks.
  std::erase_if(Wanted, [&](const std::pair<PredId, uint64_t> &W) {
    return Tables[W.first]->hasIndex(W.second);
  });
  if (Wanted.empty())
    return;

  struct BuildJob {
    PredId Pred;
    std::vector<uint64_t> Masks;
    uint32_t NumChunks, ChunkSize;
    /// Partials[MaskIdx][Chunk]; rows [Chunk*ChunkSize, ...+ChunkSize).
    std::vector<std::vector<Table::PartialIndex>> Partials;
  };
  std::vector<BuildJob> Jobs;
  for (size_t I = 0; I < Wanted.size();) {
    PredId Pred = Wanted[I].first;
    BuildJob J{Pred, {}, 0, 0, {}};
    for (; I < Wanted.size() && Wanted[I].first == Pred; ++I)
      J.Masks.push_back(Wanted[I].second);
    Tables[Pred]->reserveIndexSlots(
        std::span<const uint64_t>(J.Masks.data(), J.Masks.size()));
    uint32_t NumRows = static_cast<uint32_t>(Tables[Pred]->size());
    if (NumRows == 0)
      continue; // slots exist; nothing to scan
    // One chunk per worker unless the table is too small to amortize the
    // per-task overhead.
    constexpr uint32_t MinChunk = 1024;
    J.NumChunks = std::min<uint32_t>(
        NumWorkers, std::max<uint32_t>(1, NumRows / MinChunk));
    J.ChunkSize = (NumRows + J.NumChunks - 1) / J.NumChunks;
    J.Partials.assign(J.Masks.size(),
                      std::vector<Table::PartialIndex>(J.NumChunks));
    Jobs.push_back(std::move(J));
  }

  // Phase 1: (job, chunk) scan tasks.
  std::vector<std::pair<uint32_t, uint32_t>> Scans;
  for (uint32_t JI = 0; JI < Jobs.size(); ++JI)
    for (uint32_t C = 0; C < Jobs[JI].NumChunks; ++C)
      Scans.push_back({JI, C});
  Pool->run(Scans.size(), [&](size_t I, unsigned) {
    auto [JI, C] = Scans[I];
    BuildJob &J = Jobs[JI];
    const Table &T = *Tables[J.Pred];
    uint32_t Begin = C * J.ChunkSize;
    uint32_t End = std::min<uint32_t>(Begin + J.ChunkSize,
                                      static_cast<uint32_t>(T.size()));
    for (size_t M = 0; M < J.Masks.size(); ++M)
      T.buildPartialIndex(J.Masks[M], Begin, End, J.Partials[M][C]);
  });

  // Phase 2: (job, mask) merge tasks.
  std::vector<std::pair<uint32_t, uint32_t>> Merges;
  for (uint32_t JI = 0; JI < Jobs.size(); ++JI)
    for (uint32_t M = 0; M < Jobs[JI].Masks.size(); ++M)
      Merges.push_back({JI, M});
  Pool->run(Merges.size(), [&](size_t I, unsigned) {
    auto [JI, M] = Merges[I];
    BuildJob &J = Jobs[JI];
    Tables[J.Pred]->buildIndexFromPartials(
        J.Masks[M],
        std::span<Table::PartialIndex>(J.Partials[M].data(),
                                       J.Partials[M].size()));
  });

  Stats.IndexBuildTasks += Scans.size() + Merges.size();
}

bool ParallelSolver::replanPlans(double Threshold, bool CountEvents) {
  if (!Opts.CostBasedPlans)
    return false;
  plan::StatsVec St;
  plan::gatherStats({Tables.data(), Tables.size()}, St);
  plan::PlanLibrary::ReplanResult R = Plans->replanFromStats(St, Threshold);
  if (CountEvents) {
    Stats.ReplanEvents += R.Replanned;
    Stats.EstimatedVsActualRows += R.RowsDivergence;
  }
  Stats.CostBasedPlans = Plans->costBasedPlans();
  return R.Replanned != 0;
}

void ParallelSolver::buildRound0Tasks(const std::vector<uint32_t> &RuleIds) {
  Tasks.clear();
  for (uint32_t RI : RuleIds) {
    const Rule &R = P.rules()[RI];
    const BodyAtom *A =
        R.Body.empty() ? nullptr : std::get_if<BodyAtom>(&R.Body[0]);
    if (A && !A->Negated) {
      // Leading positive atom: drive it over all current rows, chunked.
      // Driver-first with the first atom is exactly left-to-right order.
      std::vector<uint32_t> &Rows = AllRows[A->Pred];
      Rows.resize(Tables[A->Pred]->size());
      std::iota(Rows.begin(), Rows.end(), 0u);
      addChunkedTasks(RI, 0, Rows);
    } else {
      Tasks.push_back({RI, -1, 0, 0, nullptr});
    }
  }
}

void ParallelSolver::buildDeltaTasks(const std::vector<uint32_t> &RuleIds) {
  Tasks.clear();
  for (uint32_t RI : RuleIds) {
    const Rule &R = P.rules()[RI];
    for (size_t BI = 0; BI < R.Body.size(); ++BI) {
      const auto *A = std::get_if<BodyAtom>(&R.Body[BI]);
      if (!A || A->Negated)
        continue;
      if (Delta[A->Pred].empty())
        continue;
      addChunkedTasks(RI, static_cast<int32_t>(BI), Delta[A->Pred]);
    }
  }
}

void ParallelSolver::addChunkedTasks(uint32_t RuleIdx, int32_t Driver,
                                     const std::vector<uint32_t> &Rows) {
  size_t N = Rows.size();
  if (N == 0)
    return;
  // ~8 chunks per worker balances steal granularity against per-task
  // overhead; small drivers stay in one task.
  size_t ChunkSize =
      std::max<size_t>(16, (N + NumWorkers * 8 - 1) / (NumWorkers * 8));
  for (size_t B = 0; B < N; B += ChunkSize)
    Tasks.push_back({RuleIdx, Driver, static_cast<uint32_t>(B),
                     static_cast<uint32_t>(std::min(B + ChunkSize, N)),
                     &Rows});
}

void ParallelSolver::runEvalPhase() {
  Stats.ParallelTasks += Tasks.size();
  // Recycle the spawn arenas (coordinator-only; the pool's phase mutex
  // publishes the reset to the workers).
  for (const std::unique_ptr<WorkerCtx> &W : Workers)
    W->Arena.reset();
  Pool->run(Tasks.size(), [this](size_t Payload, unsigned W) {
    if (Payload & SpawnPayloadBit) {
      unsigned Owner =
          static_cast<unsigned>((Payload & ~SpawnPayloadBit) >>
                                SpawnWorkerShift);
      Workers[W]->runSpawned(
          Workers[Owner]->Arena.get(Payload & SpawnSlotMask));
    } else {
      Workers[W]->runTask(Tasks[Payload]);
    }
  });
}

void ParallelSolver::runMergePhase() {
  // Phase A: per-shard ⊔-compaction of the workers' buffers.
  Pool->run(NumMergeShards,
            [this](size_t Sh, unsigned W) { Workers[W]->compactShard(Sh); });
  for (const std::unique_ptr<WorkerCtx> &W : Workers)
    for (std::vector<Deriv> &B : W->Buffers)
      B.clear();

  // Regroup the shard outputs by head predicate (cheap: one move per
  // derivation), then phase B: one parallel join task per predicate.
  SmallVector<PredId, 16> MergePreds;
  for (std::vector<Deriv> &Shard : CompactedShards) {
    for (const Deriv &D : Shard) {
      if (PendingByPred[D.Pred].empty())
        MergePreds.push_back(D.Pred);
      PendingByPred[D.Pred].push_back(D);
    }
    Shard.clear();
  }
  Pool->run(MergePreds.size(), [this, &MergePreds](size_t I, unsigned W) {
    Workers[W]->joinPred(MergePreds[I]);
  });
  for (PredId Pred : MergePreds)
    PendingByPred[Pred].clear();
}

SolveStats ParallelSolver::solve() {
  assert(!Solved && "solve() may be called once");
  Solved = true;

  auto Start = std::chrono::steady_clock::now();
  DL = Deadline::after(Opts.TimeLimitSeconds);
  uint64_t IcHitsAtStart = P.vmIcHits();

  auto finish = [&]() -> SolveStats & {
    Stats.VmInlineCacheHits = P.vmIcHits() - IcHitsAtStart;
    Stats.VmInlinedCalls = P.vmPipelineCounters().InlinedCalls;
    Stats.VmSuperwordHits = P.vmPipelineCounters().SuperwordHits;
    Stats.VmPassesRemovedInsns = P.vmPipelineCounters().RemovedInsns;
    for (const std::unique_ptr<WorkerCtx> &W : Workers) {
      Stats.RuleFirings += W->RuleFirings;
      Stats.FactsDerived += W->FactsDerived;
      Stats.MergeCollisions += W->MergeCollisions;
      Stats.SpawnedSubtasks += W->SpawnedSubtasks;
      Stats.MaxFanout = std::max(Stats.MaxFanout, W->MaxFanout);
      Stats.IndexFallbacks += W->IndexFallbacks;
      Stats.VmCalls += W->VmCalls;
      Stats.InterpFallbacks += W->InterpFallbacks;
      W->RuleFirings = W->FactsDerived = W->MergeCollisions = 0;
      W->SpawnedSubtasks = W->MaxFanout = W->IndexFallbacks = 0;
      W->VmCalls = W->InterpFallbacks = 0;
    }
    Stats.ParallelSteals = Pool->steals();
    Stats.Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
    Stats.MemoryBytes = F.memoryBytes();
    for (const std::unique_ptr<Table> &T : Tables)
      Stats.MemoryBytes += T->memoryBytes();
    Stats.PlanSteps = Plans->totalSteps();
    if (Memo) {
      Stats.MemoHits = Memo->hits();
      Stats.MemoMisses = Memo->misses();
      Stats.MemoryBytes += Memo->memoryBytes();
    }
    return Stats;
  };

  if (Opts.TrackProvenance) {
    Stats.St = SolveStats::Status::Error;
    Stats.Error = "provenance tracking is not supported by the parallel "
                  "solver; use the sequential Solver";
    return finish();
  }

  if (std::optional<std::string> Err = P.validate()) {
    Stats.St = SolveStats::Status::Error;
    Stats.Error = *Err;
    return finish();
  }

  StratifyResult SR = stratify(P);
  if (!SR.ok()) {
    Stats.St = SolveStats::Status::Error;
    Stats.Error = SR.Error;
    return finish();
  }
  const Stratification &St = *SR.Strat;

  // From here on values are interned from worker threads; flip the
  // factory into lock-sharded mode (a one-way latch, so concurrent
  // solvers sharing this factory may race to set it).
  F.enableConcurrentInterning();

  for (const Fact &Fa : P.facts()) {
    Value KeyT =
        F.tuple(std::span<const Value>(Fa.Key.data(), Fa.Key.size()));
    Tables[Fa.Pred]->join(KeyT, Fa.LatValue);
  }

  // Initial cost-based order choice: plans were compiled against empty
  // tables, so the first useful statistics (fact counts) exist only now.
  // Must precede buildStaticIndexes so the wanted masks reflect the
  // chosen orders. Threshold 1.0 adopts any strict improvement; not
  // counted as an adaptive replan.
  replanPlans(1.0, /*CountEvents=*/false);

  // Fact loading above ran with no secondary indexes to maintain; build
  // them all now, in parallel through the pool.
  buildStaticIndexes();

  // Note: Strategy::Naive is answered with semi-naive evaluation — the
  // minimal model is identical (the naive strategy exists only as a
  // sequential ablation baseline).
  bool Aborted = false;
  for (uint32_t S = 0; S < St.numStrata() && !Aborted; ++S) {
    const std::vector<uint32_t> &RuleIds = St.RulesByStratum[S];
    if (RuleIds.empty())
      continue;

    // Round 0: evaluate every rule of the stratum against the snapshot.
    for (std::vector<uint32_t> &ND : NextDelta)
      ND.clear();
    buildRound0Tasks(RuleIds);
    runEvalPhase();
    runMergePhase();
    ++Stats.Iterations;

    // Delta rounds: drive each rule through each positive body atom whose
    // predicate changed last round (§3.7).
    while (!(Aborted = AbortFlag.load(std::memory_order_relaxed))) {
      bool AnyDelta = false;
      for (size_t PI = 0; PI < NextDelta.size(); ++PI) {
        Delta[PI] = std::move(NextDelta[PI]);
        NextDelta[PI].clear();
        AnyDelta |= !Delta[PI].empty();
      }
      if (!AnyDelta)
        break;
      if (Opts.MaxIterations && Stats.Iterations >= Opts.MaxIterations) {
        Stats.St = SolveStats::Status::IterationLimit;
        return finish();
      }
      // Adaptive re-plan at the round boundary: the coordinator runs this
      // between phases, when no worker holds a plan pointer (SubTask
      // continuations store only (rule, driver, pos) and spawn arenas are
      // reset after each eval phase). Workers probe via probeExisting, so
      // any newly wanted mask must be built before the next phase.
      if (Opts.ReplanThreshold > 0 &&
          replanPlans(Opts.ReplanThreshold, /*CountEvents=*/true))
        buildStaticIndexes();
      buildDeltaTasks(RuleIds);
      runEvalPhase();
      runMergePhase();
      ++Stats.Iterations;
    }
  }

  if (Aborted || AbortFlag.load(std::memory_order_relaxed))
    Stats.St = SolveStats::Status::Timeout;
  return finish();
}

//===----------------------------------------------------------------------===//
// Query API (mirrors Solver)
//===----------------------------------------------------------------------===//

bool ParallelSolver::contains(PredId Pred,
                              std::span<const Value> Tuple) const {
  assert(P.predicate(Pred).isRelational() && "contains() is for relations");
  Value KeyT = F.tuple(Tuple);
  return Tables[Pred]->lookup(KeyT) != nullptr;
}

Value ParallelSolver::latValue(PredId Pred,
                               std::span<const Value> Key) const {
  const PredicateDecl &D = P.predicate(Pred);
  assert(!D.isRelational() && "latValue() is for lattice predicates");
  Value KeyT = F.tuple(Key);
  const Value *V = Tables[Pred]->lookup(KeyT);
  return V ? *V : D.Lat->bot();
}

std::vector<std::vector<Value>> ParallelSolver::tuples(PredId Pred) const {
  const PredicateDecl &D = P.predicate(Pred);
  std::vector<std::vector<Value>> Out;
  const Table &T = *Tables[Pred];
  Out.reserve(T.size());
  for (const Table::Row &R : T.rows()) {
    std::span<const Value> Key = F.tupleElems(R.Key);
    std::vector<Value> Tup(Key.begin(), Key.end());
    if (!D.isRelational())
      Tup.push_back(R.Lat);
    Out.push_back(std::move(Tup));
  }
  return Out;
}
