//===- parallel/RoundExecutor.cpp - Parallel semi-naive rounds ------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "parallel/RoundExecutor.h"

#include "fixpoint/Plan.h"
#include "support/Hashing.h"
#include "support/SmallVector.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>

using namespace flix;

/// One buffered derivation: cell (Pred, Key) gains lattice value Lat.
struct RoundExecutor::Deriv {
  PredId Pred;
  Value Key; ///< interned key tuple
  Value Lat;
};

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

//===----------------------------------------------------------------------===//
// Worker-local evaluation context
//===----------------------------------------------------------------------===//

/// Per-worker evaluation state: the parallel engine policy of the shared
/// plan executor (fixpoint/Plan.h). It differs from the sequential
/// Solver's in three ways: tables are read through const access paths
/// only (the snapshot is immutable during an eval phase), derived heads
/// are buffered instead of joined in place, and the abort check consults
/// a shared atomic flag so one worker's timeout stops all of them.
struct RoundExecutor::WorkerCtx {
  /// A derivation for the recording merge: the head cell content, the
  /// plan that matched (plans are not replaced within a round), the
  /// premise stack at the match and its negated keys — the arguments of
  /// Solver::recordDerivation.
  struct Recorded {
    Deriv D;
    const plan::RulePlan *Pl;
    SmallVector<CellRef, 4> Premises;
    Solver::NegKeyList NegKeys;
  };

  /// A captured continuation of one in-flight rule evaluation: re-run the
  /// scan at plan step Pos over row range [Begin, End) — ids from *Rows
  /// (an index bucket, immutable during the phase) or, when Rows is null,
  /// raw table ids — under the bound-env and premise-stack prefix that
  /// was live when the owning worker decided to split. The plan is not
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
    SmallVector<CellRef, 8> Premises;
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

  RoundExecutor &Ex;
  unsigned Id;

  std::vector<Value> Env;
  std::vector<uint8_t> Bound;
  /// Premise rows of the open match frames (recording merge only).
  SmallVector<CellRef, 8> PremStack;
  const Task *Cur = nullptr;

  SpawnArena Arena;

  /// Plain derivations, pre-sharded by hash(pred, key) so the sharded
  /// merge can compact each shard without cross-shard synchronization.
  std::vector<std::vector<Deriv>> Buffers;
  /// Derivations for the recording merge, in derivation order.
  std::vector<Recorded> RecordBuf;

  /// Persistent per-worker plan executor (cursor storage survives across
  /// tasks, so steady-state evaluation allocates nothing).
  plan::PlanExecutor<WorkerCtx> Exec{*this};

  /// This worker's counters for the running round, folded into the
  /// solver's stats by the coordinator after the round barrier.
  SolveStats Stats;

  WorkerCtx(RoundExecutor &Ex, unsigned Id) : Ex(Ex), Id(Id) {
    Buffers.resize(NumMergeShards);
  }

  Solver &sol() { return *Ex.S; }

  bool checkAbort() {
    if (Ex.AbortFlag.load(std::memory_order_relaxed))
      return true;
    if (sol().DL.expired()) {
      Ex.AbortFlag.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  //===--------------------------------------------------------------------===//
  // PlanExecutor engine policy (Plan.h): snapshot reads, buffered writes,
  // sub-task spilling, premise capture for the recording merge.
  //===--------------------------------------------------------------------===//

  std::vector<Value> &env() { return Env; }
  std::vector<uint8_t> &bound() { return Bound; }
  ValueFactory &factory() { return sol().F; }
  Table &table(PredId P) { return *sol().Tables[P]; }
  bool checkRow() { return checkAbort(); }

  Value callExtern(FnId Fn, std::span<const Value> Args) {
    Solver &S = sol();
    return plan::dispatchExtern(S.P, S.Opts.UseVm, S.Memo.get(), Fn, Args,
                                Stats.VmCalls, Stats.InterpFallbacks);
  }

  /// Buckets are immutable during an eval phase, so the returned pointer
  /// is a stable spill target. A miss means Solver::prepareIndexes and the
  /// plan compiler disagreed on a mask — counted, fatal in debug builds,
  /// and answered with a full-scan fallback in release builds.
  const Table::Bucket *probeBucket(const plan::Step &St,
                                   std::span<const Value> Proj) {
    if (const Table::Bucket *Bucket =
            sol().Tables[St.Pred]->probeExisting(St.Mask, Proj))
      return Bucket;
    ++Stats.IndexFallbacks;
    assert(false && "probeExisting miss: plan mask not pre-built by "
                    "Solver::prepareIndexes");
    return nullptr;
  }

  uint32_t maybeSpill(const plan::RulePlan &Pl, uint32_t StepIdx,
                      const std::vector<uint32_t> *Rows, uint32_t Begin,
                      uint32_t End);

  void onRow(PredId Pred, uint32_t RowId) {
    if (Ex.Record)
      PremStack.push_back({Pred, RowId});
  }
  void popRow() {
    if (Ex.Record)
      PremStack.pop_back();
  }

  void onDerived(const plan::RulePlan &Pl, Value KeyT, Value LatVal) {
    ++Stats.RuleFirings;
    // x ⊔ ⊥ = x can never change a cell, so don't ship ⊥ derivations
    // through the merge (the sequential Table::join drops them too).
    if (!Pl.Head.Relational &&
        LatVal == sol().P.predicate(Pl.Head.Pred).Lat->bot())
      return;
    Deriv D{Pl.Head.Pred, KeyT, LatVal};
    if (!Ex.Record) {
      size_t Sh = hashValues(static_cast<uint64_t>(D.Pred), KeyT.hash()) &
                  (NumMergeShards - 1);
      Buffers[Sh].push_back(D);
      return;
    }
    Recorded &R = RecordBuf.emplace_back();
    R.D = D;
    R.Pl = &Pl;
    for (CellRef C : PremStack)
      R.Premises.push_back(C);
    sol().negatedKeys(Pl.RuleIdx, Env, R.NegKeys);
  }

  /// Driver rows of the running task (only reachable from runTask: spawned
  /// continuations never re-enter a Driver step from the top).
  const std::vector<uint32_t> *driverRows(uint32_t &Begin, uint32_t &End) {
    Begin = Cur->Begin;
    End = Cur->End;
    return Cur->Rows;
  }

  void runTask(const Task &T) {
    const plan::RulePlan &Pl = sol().Plans->plan(T.RuleIdx, T.Driver);
    Env.assign(Pl.NumVars, Value());
    Bound.assign(Pl.NumVars, 0);
    PremStack.clear();
    Cur = &T;
    Exec.run(Pl);
    Cur = nullptr;
  }

  // Executes a spawned continuation: restore the captured prefix and
  // resume the split scan at its plan step. Runs on whichever worker took
  // or stole the payload. Cur stays null; plan resumption never re-enters
  // the Driver step.
  void runSpawned(const SubTask &T) {
    Env = T.Env;
    Bound = T.Bound;
    PremStack = T.Premises;
    Exec.runFrom(sol().Plans->plan(T.RuleIdx, T.Driver), T.Pos, T.Rows,
                 T.Begin, T.End);
  }

  void compactShard(size_t Sh, std::vector<Deriv> &Out);
  void joinPred(PredId Pred, const std::vector<Deriv> &Pending);
};

// Intra-rule spilling: splits the scan [Begin, End) at plan step
// \p StepIdx into spawned sub-tasks of SpillThreshold rows each, keeping
// the tail inline. Returns the start of the inline remainder (== Begin
// when the range is below the threshold, spilling is disabled, or the
// arena is full).
uint32_t RoundExecutor::WorkerCtx::maybeSpill(
    const plan::RulePlan &Pl, uint32_t StepIdx,
    const std::vector<uint32_t> *Rows, uint32_t Begin, uint32_t End) {
  uint32_t Thresh = sol().Opts.SpillThreshold;
  if (Thresh == 0)
    return Begin;
  // No point fanning out work that will only observe the abort flag.
  if (Ex.AbortFlag.load(std::memory_order_relaxed))
    return Begin;
  uint64_t Fanout = 0;
  uint32_t B = Begin;
  while (End - B > Thresh) {
    SubTask *T = Arena.alloc();
    if (!T)
      break; // arena full; iterate the rest inline
    T->RuleIdx = Pl.RuleIdx;
    T->Driver = Pl.Driver;
    T->Pos = StepIdx;
    T->Rows = Rows;
    T->Begin = B;
    T->End = B + Thresh;
    T->Env = Env;
    T->Bound = Bound;
    T->Premises = PremStack;
    size_t Slot = Arena.publish(T);
    Ex.Pool->spawn(Id,
                   SpawnPayloadBit | (size_t(Id) << SpawnWorkerShift) | Slot);
    ++Stats.SpawnedSubtasks;
    ++Fanout;
    B += Thresh;
  }
  Stats.MaxFanout = std::max(Stats.MaxFanout, Fanout);
  return B;
}

// Sharded merge, phase A: fold all workers' buffered derivations for
// shard \p Sh into one derivation per cell via ⊔. Shards partition the
// cell space, so tasks write disjoint outputs.
void RoundExecutor::WorkerCtx::compactShard(size_t Sh,
                                            std::vector<Deriv> &Out) {
  std::unordered_map<CellKey, size_t, CellKeyHash> Cells;
  uint64_t Seen = 0;
  for (const std::unique_ptr<WorkerCtx> &W : Ex.Workers) {
    for (const Deriv &D : W->Buffers[Sh]) {
      // An aborted round's model is a sound under-approximation either
      // way; without this check a derivation-heavy round could overshoot
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
      E.Lat = sol().Tables[D.Pred]->lattice().lub(E.Lat, D.Lat);
      ++Stats.MergeCollisions;
    }
  }
}

// Sharded merge, phase B: join one predicate's compacted derivations into
// its head table and record the strictly-increased rows as the next
// delta. One task per predicate, so each table and NextDelta queue has a
// single writer.
void RoundExecutor::WorkerCtx::joinPred(PredId Pred,
                                        const std::vector<Deriv> &Pending) {
  Table &T = *sol().Tables[Pred];
  uint64_t Seen = 0;
  for (const Deriv &D : Pending) {
    if ((++Seen & 0x3FF) == 0 && checkAbort())
      break; // partial joins are fine: the run reports Timeout
    Table::JoinResult JR = T.join(D.Key, D.Lat);
    if (JR.Changed) {
      ++Stats.FactsDerived;
      sol().queueDelta(Pred, JR.RowId);
    }
  }
}

//===----------------------------------------------------------------------===//
// Coordinator
//===----------------------------------------------------------------------===//

RoundExecutor::RoundExecutor(Solver &Sol, unsigned NumWorkers)
    : S(&Sol), NumWorkers(std::max(1u, NumWorkers)) {
  // From here on values are interned from worker threads; flip the
  // factory into lock-sharded mode (a one-way latch, so concurrent
  // solvers sharing this factory may race to set it).
  Sol.F.enableConcurrentInterning();
  Sol.Par = this;
  Record = Sol.Opts.TrackSupport || Sol.Opts.TrackProvenance;
  size_t NumPreds = Sol.P.predicates().size();
  AllRows.resize(NumPreds);
  PendingByPred.resize(NumPreds);
  CompactedShards.resize(NumMergeShards);
  Pool = std::make_unique<ThreadPool>(this->NumWorkers);
  Workers.reserve(this->NumWorkers);
  for (unsigned W = 0; W < this->NumWorkers; ++W)
    Workers.push_back(std::make_unique<WorkerCtx>(*this, W));
}

RoundExecutor::~RoundExecutor() = default;

void RoundExecutor::bind(Solver &Sol) {
  S = &Sol;
  Sol.Par = this;
  Record = Sol.Opts.TrackSupport || Sol.Opts.TrackProvenance;
  Sol.prepareIndexes();
}

void RoundExecutor::addChunkedTasks(uint32_t RuleIdx, int32_t Driver,
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

void RoundExecutor::evalRound(const std::vector<uint32_t> &RuleIds,
                              bool Round0) {
  const Program &P = S->P;
  Tasks.clear();
  for (uint32_t RI : RuleIds) {
    const Rule &R = P.rules()[RI];
    if (Round0) {
      const BodyAtom *A =
          R.Body.empty() ? nullptr : std::get_if<BodyAtom>(&R.Body[0]);
      if (!A || A->Negated) {
        Tasks.push_back({RI, -1, 0, 0, nullptr});
        continue;
      }
      // Leading positive atom: drive it over all current rows, chunked.
      // Driver-first with the first atom is exactly left-to-right order.
      std::vector<uint32_t> &Rows = AllRows[A->Pred];
      Rows.resize(S->Tables[A->Pred]->size());
      std::iota(Rows.begin(), Rows.end(), 0u);
      addChunkedTasks(RI, 0, Rows);
      continue;
    }
    // Delta round: drive the rule through each positive body atom whose
    // predicate changed last round (§3.7).
    for (size_t BI = 0; BI < R.Body.size(); ++BI) {
      const auto *A = std::get_if<BodyAtom>(&R.Body[BI]);
      if (A && !A->Negated)
        addChunkedTasks(RI, static_cast<int32_t>(BI), S->Delta[A->Pred]);
    }
  }
  if (Tasks.empty())
    return;

  AbortFlag.store(false, std::memory_order_relaxed);
  uint64_t StealsBefore = Pool->steals();
  runEvalPhase();
  if (Record)
    runRecordingMerge();
  else
    runShardedMerge();

  SolveStats &St = S->Stats;
  St.ParallelTasks += Tasks.size();
  St.ParallelSteals += Pool->steals() - StealsBefore;
  for (const std::unique_ptr<WorkerCtx> &W : Workers) {
    St.accumulate(W->Stats);
    W->Stats = SolveStats();
  }
  if (AbortFlag.load(std::memory_order_relaxed)) {
    S->Aborted = true;
    St.St = SolveStats::Status::Timeout;
  }
}

void RoundExecutor::runEvalPhase() {
  // Recycle the spawn arenas (coordinator-only; the pool's phase mutex
  // publishes the reset to the workers).
  for (const std::unique_ptr<WorkerCtx> &W : Workers)
    W->Arena.reset();
  Pool->run(Tasks.size(), [this](size_t Payload, unsigned W) {
    if (Payload & SpawnPayloadBit) {
      unsigned Owner = static_cast<unsigned>(
          (Payload & ~SpawnPayloadBit) >> SpawnWorkerShift);
      Workers[W]->runSpawned(
          Workers[Owner]->Arena.get(Payload & SpawnSlotMask));
    } else {
      Workers[W]->runTask(Tasks[Payload]);
    }
  });
}

void RoundExecutor::runShardedMerge() {
  // Phase A: per-shard ⊔-compaction of the workers' buffers.
  Pool->run(NumMergeShards, [this](size_t Sh, unsigned W) {
    Workers[W]->compactShard(Sh, CompactedShards[Sh]);
  });
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
    Workers[W]->joinPred(MergePreds[I], PendingByPred[MergePreds[I]]);
  });
  for (PredId Pred : MergePreds)
    PendingByPred[Pred].clear();
}

// The recording merge: joins every buffered derivation single-threaded,
// in worker order, and hands each changed join to the Solver's one
// derivation recorder (Solver::recordDerivation). Every table,
// support-index and provenance write stays outside the pool phases, so
// the path is race-free by construction.
void RoundExecutor::runRecordingMerge() {
  Solver &Sol = *S;
  for (const std::unique_ptr<WorkerCtx> &W : Workers) {
    for (const WorkerCtx::Recorded &R : W->RecordBuf) {
      Table::JoinResult JR = Sol.Tables[R.D.Pred]->join(R.D.Key, R.D.Lat);
      if (!JR.Changed)
        continue;
      ++Sol.Stats.FactsDerived;
      Sol.queueDelta(R.D.Pred, JR.RowId);
      Sol.recordDerivation(*R.Pl, {R.D.Pred, JR.RowId},
                           {R.Premises.data(), R.Premises.size()},
                           {R.NegKeys.data(), R.NegKeys.size()});
    }
    W->RecordBuf.clear();
  }
}
