//===- parallel/RoundExecutor.cpp - Parallel semi-naive rounds ------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "parallel/RoundExecutor.h"

#include "fixpoint/Plan.h"
#include "support/HashIndex.h"
#include "support/Hashing.h"
#include "support/SmallVector.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace flix;

/// One buffered derivation: a match of plan Pl gives cell (Pl->Head.Pred,
/// Key) lattice value Lat. When the Solver records, the match's premise
/// rows and negated keys follow in the owning worker's Premises and
/// NegKeys, up to PremEnd and NegEnd (each begins where the previous
/// derivation's ends).
struct RoundExecutor::Deriv {
  const plan::RulePlan *Pl;
  Value Key; ///< interned key tuple
  Value Lat;
  uint32_t PremEnd, NegEnd;
};

namespace {

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

/// Per-worker evaluation state: the parallel policy of the shared plan
/// executor (fixpoint/Plan.h). It differs from the Solver's in-place
/// policy in three ways: tables are read through const access paths
/// only (the snapshot is immutable during an eval phase), derived heads
/// are buffered instead of joined in place, and the abort check consults
/// a shared atomic flag so one worker's timeout stops all of them.
struct RoundExecutor::WorkerCtx {
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
  /// Premise rows of the open match frames (recording Solvers only).
  SmallVector<CellRef, 8> PremStack;
  const Task *Cur = nullptr;

  SpawnArena Arena;

  /// This round's derivations, in derivation order, with the premise
  /// rows and negated keys of each (recording Solvers only; see Deriv).
  std::vector<Deriv> Derivs;
  std::vector<CellRef> Premises;
  Solver::NegKeyList NegKeys;
  /// Derivs ids by hash(pred, key, value): drops a repeat of a buffered
  /// derivation.
  HashIndex Buffered;

  /// Persistent per-worker plan executor (cursor storage survives across
  /// tasks, so steady-state evaluation allocates nothing).
  plan::PlanExecutor<WorkerCtx> Exec{*this};

  /// This worker's counters for the running round, folded into the
  /// solver's stats by the coordinator after the round barrier.
  SolveStats Stats;

  WorkerCtx(RoundExecutor &Ex, unsigned Id) : Ex(Ex), Id(Id) {}

  Solver &sol() { return Ex.S; }

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
  // sub-task spilling, premise capture for recording Solvers.
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

  /// Buffers a derivation for the merge unless it cannot change its
  /// cell: ⊥ (x ⊔ ⊥ = x), a value the snapshot row already holds (for a
  /// relational head: a live row), or a repeat of one this worker
  /// buffered this round. The merge would join each of those and find
  /// its cell unchanged, so dropping them is exact: no changed join, no
  /// support edge and no provenance is lost.
  void onDerived(const plan::RulePlan &Pl, Value KeyT, Value LatVal) {
    ++Stats.RuleFirings;
    PredId Pred = Pl.Head.Pred;
    const Table &T = *sol().Tables[Pred];
    if (LatVal == T.botValue())
      return;
    uint32_t Row = T.lookupRow(KeyT);
    if (Row != Table::NoRow && T.row(Row).Lat == LatVal)
      return;
    uint32_t Id = static_cast<uint32_t>(Derivs.size());
    uint64_t H =
        hashValues(static_cast<uint64_t>(Pred), KeyT.hash(), LatVal.hash());
    auto SameDeriv = [&](uint32_t I) {
      const Deriv &D = Derivs[I];
      return D.Key == KeyT && D.Lat == LatVal && D.Pl->Head.Pred == Pred;
    };
    if (Buffered.findOrInsert(H, SameDeriv, [Id] { return Id; }) != Id)
      return;
    if (Ex.Record) {
      Premises.insert(Premises.end(), PremStack.begin(), PremStack.end());
      sol().negatedKeys(Pl.RuleIdx, Env, NegKeys);
    }
    Derivs.push_back({&Pl, KeyT, LatVal, static_cast<uint32_t>(Premises.size()),
                      static_cast<uint32_t>(NegKeys.size())});
  }

  /// Empties the derivation buffer for the next round.
  void clearDerivs() {
    Derivs.clear();
    Premises.clear();
    NegKeys.clear();
    Buffered.clear();
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

//===----------------------------------------------------------------------===//
// Coordinator
//===----------------------------------------------------------------------===//

RoundExecutor::RoundExecutor(Solver &Sol, unsigned NumWorkers)
    : S(Sol), NumWorkers(NumWorkers),
      Record(Sol.Opts.TrackSupport || Sol.Opts.TrackProvenance) {
  assert(NumWorkers > 0 && "a round executor needs a worker");
  // From here on values are interned from worker threads; flip the
  // factory into lock-sharded mode (a one-way latch, so concurrent
  // solvers sharing this factory may race to set it).
  Sol.F.enableConcurrentInterning();
  AllRows.resize(Sol.P.predicates().size());
  Pool = std::make_unique<ThreadPool>(NumWorkers);
  Workers.reserve(NumWorkers);
  for (unsigned W = 0; W < NumWorkers; ++W)
    Workers.push_back(std::make_unique<WorkerCtx>(*this, W));
}

RoundExecutor::~RoundExecutor() = default;

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
  const Program &P = S.P;
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
      // Round 0 drives the leading positive atom over all current rows,
      // chunked. Its plan orders the rest of the body by cost, not left
      // to right; ⊔-confluence still gives the model of the in-place
      // Driver -1 pass.
      std::vector<uint32_t> &Rows = AllRows[A->Pred];
      Rows.resize(S.Tables[A->Pred]->size());
      std::iota(Rows.begin(), Rows.end(), 0u);
      addChunkedTasks(RI, 0, Rows);
      continue;
    }
    // Delta round: drive the rule through each positive body atom whose
    // predicate changed last round (§3.7).
    for (size_t BI = 0; BI < R.Body.size(); ++BI) {
      const auto *A = std::get_if<BodyAtom>(&R.Body[BI]);
      if (A && !A->Negated)
        addChunkedTasks(RI, static_cast<int32_t>(BI), S.Delta[A->Pred]);
    }
  }
  if (Tasks.empty())
    return;

  AbortFlag.store(false, std::memory_order_relaxed);
  uint64_t StealsBefore = Pool->steals();
  runEvalPhase();
  runMerge();

  SolveStats &St = S.Stats;
  St.ParallelTasks += Tasks.size();
  St.ParallelSteals += Pool->steals() - StealsBefore;
  for (const std::unique_ptr<WorkerCtx> &W : Workers) {
    St.accumulate(W->Stats);
    W->Stats = SolveStats();
  }
  if (AbortFlag.load(std::memory_order_relaxed)) {
    S.Aborted = true;
    St.St = SolveStats::Status::Timeout;
  }
}

void RoundExecutor::runEvalPhase() {
  // Recycle the spawn arenas and derivation buffers (coordinator-only;
  // the pool's phase mutex publishes the reset to the workers).
  for (const std::unique_ptr<WorkerCtx> &W : Workers) {
    W->Arena.reset();
    W->clearDerivs();
  }
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

// The merge, after the barrier: joins every worker's buffered
// derivations on this thread, in worker order, queues each changed row
// for the next delta and hands its derivation to the Solver's one
// recorder (Solver::recordDerivation) — the one in-place rounds call on
// their joins, so support edges and explain() agree at every thread
// count. Every table, support-index and provenance write stays
// outside the pool phases, so the merge is race-free by construction.
void RoundExecutor::runMerge() {
  uint64_t Joined = 0;
  for (const std::unique_ptr<WorkerCtx> &W : Workers) {
    uint32_t PremBegin = 0, NegBegin = 0;
    for (const Deriv &D : W->Derivs) {
      // An aborted round's model is a sound under-approximation either
      // way; without this check a derivation-heavy round could overshoot
      // the deadline by the whole merge.
      if ((++Joined & 0x3FF) == 0 && S.DL.expired()) {
        AbortFlag.store(true, std::memory_order_relaxed);
        return;
      }
      PredId Pred = D.Pl->Head.Pred;
      Table::JoinResult JR = S.Tables[Pred]->join(D.Key, D.Lat);
      if (!JR.Changed) {
        ++S.Stats.MergeCollisions;
      } else {
        ++S.Stats.FactsDerived;
        S.queueDelta(Pred, JR.RowId);
        if (Record)
          S.recordDerivation(
              *D.Pl, {Pred, JR.RowId},
              {W->Premises.data() + PremBegin, D.PremEnd - PremBegin},
              {W->NegKeys.data() + NegBegin, D.NegEnd - NegBegin});
      }
      PremBegin = D.PremEnd;
      NegBegin = D.NegEnd;
    }
  }
}
