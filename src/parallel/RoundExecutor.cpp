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
  RoundExecutor &Ex;

  std::vector<Value> Env;
  std::vector<uint8_t> Bound;
  /// Premise rows of the open match frames (recording Solvers only).
  SmallVector<CellRef, 8> PremStack;
  const Task *Cur = nullptr;

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

  explicit WorkerCtx(RoundExecutor &Ex) : Ex(Ex) {}

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
  // premise capture for recording Solvers.
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

  /// Buckets are immutable during an eval phase. A miss means
  /// Solver::prepareIndexes and the plan compiler disagreed on a mask —
  /// counted, fatal in debug builds, and answered with a full-scan
  /// fallback in release builds.
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

  /// Driver rows of the running task.
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
};

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
    Workers.push_back(std::make_unique<WorkerCtx>(*this));
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
  // Recycle the derivation buffers (coordinator-only; the pool's phase
  // mutex publishes the reset to the workers).
  for (const std::unique_ptr<WorkerCtx> &W : Workers)
    W->clearDerivs();
  Pool->run(Tasks.size(), [this](size_t Payload, unsigned W) {
    Workers[W]->runTask(Tasks[Payload]);
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
