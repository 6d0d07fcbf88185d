//===- incremental/IncrementalSolver.cpp - Batch fact updates -------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "incremental/IncrementalSolver.h"

#include "fixpoint/Plan.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace flix;

//===----------------------------------------------------------------------===//
// Construction and staging
//===----------------------------------------------------------------------===//

IncrementalSolver::IncrementalSolver(const Program &P, SolverOptions Opts)
    : P(P), Opts(Opts), F(P.factory()) {
  size_t NumPreds = P.predicates().size();
  FactStore.resize(NumPreds);
  UpdateChanged.resize(NumPreds);
  UpdateDeleted.resize(NumPreds);
  NegTombstones.resize(NumPreds);

  // Seed the fact store from the program's facts.
  for (const Fact &Fa : P.facts())
    storeAdd(Fa.Pred, keyTupleOf(Fa), Fa.LatValue);
}

IncrementalSolver::~IncrementalSolver() = default;

Value IncrementalSolver::keyTupleOf(const Fact &Fa) const {
  return F.tuple(std::span<const Value>(Fa.Key.data(), Fa.Key.size()));
}

bool IncrementalSolver::storeAdd(PredId Pred, Value KeyT, Value LatVal) {
  SmallVector<Value, 2> &Vals = FactStore[Pred][KeyT];
  if (std::find(Vals.begin(), Vals.end(), LatVal) != Vals.end())
    return false;
  Vals.push_back(LatVal);
  return true;
}

bool IncrementalSolver::storeRetract(PredId Pred, Value KeyT, Value LatVal) {
  auto It = FactStore[Pred].find(KeyT);
  if (It == FactStore[Pred].end())
    return false;
  SmallVector<Value, 2> &Vals = It->second;
  auto V = std::find(Vals.begin(), Vals.end(), LatVal);
  if (V == Vals.end())
    return false;
  *V = Vals.back();
  Vals.pop_back();
  if (Vals.empty())
    FactStore[Pred].erase(It);
  return true;
}

void IncrementalSolver::addFact(PredId Pred, std::span<const Value> Tuple) {
  assert(P.predicate(Pred).isRelational() &&
         "addFact() is for relational predicates; use addLatFact()");
  Fact Fa;
  Fa.Pred = Pred;
  for (Value V : Tuple)
    Fa.Key.push_back(V);
  Fa.LatValue = F.boolean(true);
  PendingAdds.push_back(std::move(Fa));
}

void IncrementalSolver::addLatFact(PredId Pred, std::span<const Value> Key,
                                   Value LatVal) {
  assert(!P.predicate(Pred).isRelational() &&
         "addLatFact() is for lattice predicates; use addFact()");
  Fact Fa;
  Fa.Pred = Pred;
  for (Value V : Key)
    Fa.Key.push_back(V);
  Fa.LatValue = LatVal;
  PendingAdds.push_back(std::move(Fa));
}

void IncrementalSolver::retractFact(PredId Pred,
                                    std::span<const Value> Tuple) {
  assert(P.predicate(Pred).isRelational() &&
         "retractFact() is for relational predicates");
  Fact Fa;
  Fa.Pred = Pred;
  for (Value V : Tuple)
    Fa.Key.push_back(V);
  Fa.LatValue = F.boolean(true);
  PendingRetracts.push_back(std::move(Fa));
}

void IncrementalSolver::retractLatFact(PredId Pred,
                                       std::span<const Value> Key,
                                       Value LatVal) {
  assert(!P.predicate(Pred).isRelational() &&
         "retractLatFact() is for lattice predicates");
  Fact Fa;
  Fa.Pred = Pred;
  for (Value V : Key)
    Fa.Key.push_back(V);
  Fa.LatValue = LatVal;
  PendingRetracts.push_back(std::move(Fa));
}

void IncrementalSolver::addFacts(PredId Pred,
                                 std::span<const std::vector<Value>> Rows) {
  bool Rel = P.predicate(Pred).isRelational();
  for (const std::vector<Value> &Row : Rows) {
    if (Rel) {
      addFact(Pred, std::span<const Value>(Row.data(), Row.size()));
    } else {
      assert(!Row.empty() && "lattice fact row needs key columns + value");
      addLatFact(Pred, std::span<const Value>(Row.data(), Row.size() - 1),
                 Row.back());
    }
  }
}

void IncrementalSolver::retractFacts(
    PredId Pred, std::span<const std::vector<Value>> Rows) {
  bool Rel = P.predicate(Pred).isRelational();
  for (const std::vector<Value> &Row : Rows) {
    if (Rel) {
      retractFact(Pred, std::span<const Value>(Row.data(), Row.size()));
    } else {
      assert(!Row.empty() && "lattice fact row needs key columns + value");
      retractLatFact(Pred,
                     std::span<const Value>(Row.data(), Row.size() - 1),
                     Row.back());
    }
  }
}

//===----------------------------------------------------------------------===//
// update()
//===----------------------------------------------------------------------===//

void IncrementalSolver::fullSolve(UpdateStats &U, Deadline DL) {
  // Apply staged mutations to the store only: a fresh solve loads the
  // store. Retractions first, then additions — a batch that both
  // retracts and adds the same fact leaves it present.
  for (const Fact &Fa : PendingRetracts)
    U.FactsRetracted += storeRetract(Fa.Pred, keyTupleOf(Fa), Fa.LatValue);
  PendingRetracts.clear();
  for (const Fact &Fa : PendingAdds)
    U.FactsAdded += storeAdd(Fa.Pred, keyTupleOf(Fa), Fa.LatValue);
  PendingAdds.clear();

  SolverOptions SO = Opts;
  SO.TrackSupport = true;
  // DL already folds in the configured time limit (update()); its
  // remaining budget becomes this solve's limit.
  if (DL.active())
    SO.TimeLimitSeconds = std::max(DL.remainingSeconds(), 1e-9);
  S = std::make_unique<Solver>(P, SO);
  S->Store = &FactStore;
  // The replaced solver's tables are rebuilt tombstone-free, so the
  // persistent pre-batch presence record must start empty too — this is
  // what keeps degraded recovery consistent after an aborted update.
  for (auto &Tomb : NegTombstones)
    Tomb.clear();
  S->solve();
  // Only later updates report changed rows: this solve's would all be
  // new.
  S->Changed = &UpdateChanged;
  // Every predicate's table was rebuilt from nothing.
  U.ChangedPreds.clear();
  for (PredId Pr = 0; Pr < P.predicates().size(); ++Pr)
    U.ChangedPreds.push_back(Pr);
}

void IncrementalSolver::incrementalUpdate(UpdateStats &U, Deadline DL) {
  Solver &Sol = *S;
  size_t NumPreds = P.predicates().size();

  // The inner solver's run state must be clean for re-entry. An update
  // honors DL (the tighter of TimeLimitSeconds and the caller's
  // deadline): every eval path (seed plans, and delta rounds in place or
  // on the round executor) checks it per matched row and aborts with
  // Status::Timeout. Its rounds also count against MaxIterations from
  // IterBase. Either abort makes update() mark the state Degraded, so
  // the next batch recovers via a full solve.
  Sol.Aborted = false;
  Sol.DL = DL;
  Sol.Stats.St = SolveStats::Status::Fixpoint;
  const uint64_t IterBase = Sol.Stats.Iterations;

  assert(Sol.Strata && "inner solver solved, stratification available");
  const Stratification &St = *Sol.Strata;

  // Pre-batch table sizes of the negated predicates: a touched row is
  // present "before" iff it existed below this watermark and was not
  // tombstoned at the end of the last update (NegTombstones).
  std::vector<uint32_t> PreSize(NumPreds, 0);
  for (PredId Pr = 0; Pr < NumPreds; ++Pr)
    if (Pr < St.PredNegated.size() && St.PredNegated[Pr])
      PreSize[Pr] = static_cast<uint32_t>(Sol.Tables[Pr]->size());

  //--- Phase R: retractions + over-delete closure -----------------------
  auto markDeleted = [&](PredId Pr, uint32_t Row) {
    return UpdateDeleted[Pr].insert(Row, Sol.Tables[Pr]->size());
  };

  // Over-delete one batch of marked seed cells: everything transitively
  // supported by a seed cell through the support index, which
  // over-approximates true support — sound, since re-derivation restores
  // every cell still derivable. \p Batch grows into the closure. Resets
  // every closure cell to ⊥ first (a later reset must not clobber an
  // earlier re-join), then re-joins the surviving input-fact
  // contributions of exactly those cells — O(deleted), not O(facts).
  // Runs once for the retraction seeds and once per stratum boundary for
  // negation-invalidated heads; cells land in UpdateDeleted so the re-derive
  // pass of their own (later) stratum picks them up.
  auto overDeleteBatch = [&](std::vector<CellRef> &Batch) {
    for (size_t I = 0; I < Batch.size(); ++I) {
      CellRef C = Batch[I];
      auto &Dep = Sol.Dependents[C.Pred];
      if (C.Row < Dep.size()) {
        for (CellRef D : Dep[C.Row])
          // Rows already tombstoned are logically absent — the edge is
          // stale (left from before their deletion); deleting them again
          // would only inflate the batch with no-op resets.
          if (!Sol.Tables[D.Pred]->isTombstone(D.Row) &&
              markDeleted(D.Pred, D.Row))
            Batch.push_back(D);
        // Out-edges of a deleted cell are stale; re-derivation re-records
        // the ones that still hold.
        Dep[C.Row].clear();
      }
    }
    for (CellRef C : Batch) {
      Sol.Tables[C.Pred]->resetRow(C.Row);
      ++U.CellsDeleted;
      if (Opts.TrackProvenance && C.Row < Sol.Provenance[C.Pred].size())
        Sol.setProvenance(C.Pred, C.Row, Derivation()); // back to FromFact
    }
    for (CellRef C : Batch) {
      Value KeyT = Sol.Tables[C.Pred]->row(C.Row).Key;
      auto It = FactStore[C.Pred].find(KeyT);
      if (It == FactStore[C.Pred].end())
        continue;
      for (Value LV : It->second) {
        Table::JoinResult JR = Sol.Tables[C.Pred]->join(KeyT, LV);
        if (JR.Changed)
          Sol.queueDelta(C.Pred, JR.RowId);
      }
    }
  };

  std::vector<CellRef> Retracted;
  for (const Fact &Fa : PendingRetracts) {
    Value KeyT = keyTupleOf(Fa);
    if (!storeRetract(Fa.Pred, KeyT, Fa.LatValue))
      continue;
    ++U.FactsRetracted;
    // Seed the closure with the fact's cell (if materialized): its value
    // may depend on the retracted contribution.
    uint32_t Row = Sol.Tables[Fa.Pred]->lookupRow(KeyT);
    if (Row != Table::NoRow && markDeleted(Fa.Pred, Row))
      Retracted.push_back({Fa.Pred, Row});
  }
  PendingRetracts.clear();
  overDeleteBatch(Retracted);

  //--- Phase A: additions ----------------------------------------------
  for (const Fact &Fa : PendingAdds) {
    Value KeyT = keyTupleOf(Fa);
    if (!storeAdd(Fa.Pred, KeyT, Fa.LatValue))
      continue;
    ++U.FactsAdded;
    Table::JoinResult JR = Sol.Tables[Fa.Pred]->join(KeyT, Fa.LatValue);
    if (JR.Changed) {
      Sol.queueDelta(Fa.Pred, JR.RowId);
      if (Opts.TrackProvenance) // the last increase is the fact
        Sol.setProvenance(Fa.Pred, JR.RowId, Derivation());
    }
  }
  PendingAdds.clear();

  //--- Phase D: re-derive + delta rounds, stratum by stratum ------------
  // Adaptive re-plan of the seed plans against the batch-mutated tables
  // before they run: an update stream can drift table shapes far from
  // what the initial solve planned for (a seed plan is re-costed only
  // once a predicate it reads has drifted). The delta-driven plans are
  // checked at the round boundaries of runRounds, once their driver has
  // delta rows. No evaluation is in flight; replanPlans pre-builds any
  // mask a changed plan now probes.
  plan::RunnablePlans SeedPlans;
  SeedPlans.Seeds = true;
  if (Opts.ReplanThreshold > 0)
    Sol.replanPlans(Opts.ReplanThreshold, /*CountEvents=*/true, &SeedPlans);

  // Rows that net-left a negated predicate's table this update, filled
  // at that predicate's stratum boundary (d) and consumed as insertion
  // deltas for `not P` by every higher stratum's rules (b'). Kept for
  // the whole update — several strata may negate the same predicate.
  std::vector<std::vector<uint32_t>> NegDeleted(NumPreds);

  for (uint32_t Str = 0; Str < St.numStrata() && !Sol.Aborted; ++Str) {
    // (a) Set-at-a-time re-derivation of this stratum's deleted cells
    // over the surviving database: each rule runs once, its head seed
    // plan scanning every deleted cell of its head predicate. Order is
    // irrelevant: a derivation missed because another deleted cell is
    // still ⊥ is re-fired by the delta rounds once that cell comes back.
    for (uint32_t RI : St.RulesByStratum[Str]) {
      if (Sol.Aborted)
        break;
      const std::vector<uint32_t> &Rows =
          UpdateDeleted[P.rules()[RI].Head.Pred].rows();
      if (Rows.empty())
        continue;
      Sol.evalRule(RI, plan::HeadSlot, Rows);
      ++U.SeedPlanRuns;
    }

    // (b') Negation-driven evaluation: the rows that net-left a
    // lower-stratum negated predicate are an insertion delta for its
    // negated occurrences — drive each occurrence's seed plan over them,
    // with the now-true `!P(key)` fronted. Lower strata settled before
    // their boundary ran, so the probes below read final tables.
    for (const NegUse &NU : St.NegUsesByStratum[Str]) {
      const std::vector<uint32_t> &Rows = NegDeleted[NU.Pred];
      if (Rows.empty())
        continue;
      const Rule &R = P.rules()[NU.RuleIdx];
      for (size_t BI = 0; BI < R.Body.size() && !Sol.Aborted; ++BI) {
        const auto *A = std::get_if<BodyAtom>(&R.Body[BI]);
        if (!A || !A->Negated || A->Pred != NU.Pred)
          continue;
        Sol.evalRule(NU.RuleIdx, static_cast<int>(BI), Rows);
        ++U.SeedPlanRuns;
      }
    }

    // (b) Seed this stratum's rounds with every row changed so far in
    // this update — the incremental replacement for round-0 full
    // evaluation. Re-firing rows already processed by lower strata is
    // sound (joins are idempotent) and cheap (deltas are small). The rows
    // are in UpdateChanged already, so queueing them adds none there.
    for (PredId PI = 0; PI < NumPreds; ++PI)
      for (uint32_t Row : UpdateChanged[PI].rows())
        Sol.queueDelta(PI, Row);

    // (c) The solver's round loop, restricted to this stratum's rules.
    Sol.runRounds(St.RulesByStratum[Str], IterBase);

    // (d) Stratum boundary: this stratum's negated predicates are now
    // final for the update (no higher-stratum rule writes them). Convert
    // their net presence changes into negation deltas: a key that left
    // the table feeds (b') of the higher strata; a key that (re)entered
    // it invalidates every head recorded under it in the negation
    // support index, which the shared over-delete machinery retracts (and
    // the head's own stratum later re-derives). Also syncs NegTombstones
    // so the next update reconstructs pre-batch presence correctly.
    std::vector<CellRef> NegSeeds;
    for (PredId Pr = 0; Pr < NumPreds && !Sol.Aborted; ++Pr) {
      if (Pr >= St.PredNegated.size() || !St.PredNegated[Pr] ||
          St.PredStratum[Pr] != Str)
        continue;
      Table &T = *Sol.Tables[Pr];
      auto &Tomb = NegTombstones[Pr];
      auto visit = [&](uint32_t Row) {
        bool Before = Row < PreSize[Pr] && !Tomb.count(Row);
        bool Now = !T.isTombstone(Row);
        // Sync the tombstone record even when presence did not net-flip
        // (e.g. a row appended and deleted within this update).
        if (Now)
          Tomb.erase(Row);
        else
          Tomb.insert(Row);
        if (Before == Now)
          return;
        if (!Now) {
          NegDeleted[Pr].push_back(Row);
          return;
        }
        // Net insert: consume the key's negation support entry. Heads
        // already tombstoned, or already deleted this update (a Phase R
        // revival carries a fact-only value until its own stratum runs,
        // and facts never depend on a negation), need no second pass.
        auto It = Sol.NegDependents[Pr].find(T.row(Row).Key);
        if (It == Sol.NegDependents[Pr].end())
          return;
        for (CellRef D : It->second)
          if (!Sol.Tables[D.Pred]->isTombstone(D.Row) &&
              markDeleted(D.Pred, D.Row))
            NegSeeds.push_back(D);
        Sol.eraseNegSupport(Pr, It);
      };
      // Only touched rows can have flipped presence: every insertion or
      // revival goes through a changed join (-> UpdateChanged) and every
      // deletion through the over-delete reset (-> UpdateDeleted).
      for (uint32_t Row : UpdateChanged[Pr].rows())
        visit(Row);
      for (uint32_t Row : UpdateDeleted[Pr].rows())
        if (!UpdateChanged[Pr].contains(Row))
          visit(Row);
    }
    if (!NegSeeds.empty())
      overDeleteBatch(NegSeeds);
  }

  for (PredId Pr = 0; Pr < NumPreds; ++Pr)
    for (uint32_t Row : UpdateDeleted[Pr].rows())
      if (!Sol.Tables[Pr]->isTombstone(Row))
        ++U.CellsRederived;

  // Snapshot-read hook: the predicates this update touched (changed rows
  // or deletions — a tombstoned-and-not-revived cell changes the model
  // too). Everything else is untouched and snapshot readers can keep
  // sharing their copies of it.
  for (PredId Pr = 0; Pr < NumPreds; ++Pr)
    if (!UpdateChanged[Pr].rows().empty() ||
        !UpdateDeleted[Pr].rows().empty())
      U.ChangedPreds.push_back(Pr);
}

UpdateStats IncrementalSolver::update(Deadline DL) {
  UpdateStats U;
  auto Start = std::chrono::steady_clock::now();
  // The configured time limit bounds every update, full solve or not; a
  // caller's deadline that expires sooner wins.
  if (Opts.TimeLimitSeconds > 0 &&
      DL.remainingSeconds() > Opts.TimeLimitSeconds)
    DL = Deadline::after(Opts.TimeLimitSeconds);

  // Negation no longer forces a full solve: negation-touching batches
  // run stratum-local DRed inside incrementalUpdate(). Only the first
  // solve and degraded recovery rebuild from scratch.
  bool NeedFull = !SolvedOnce || Degraded;
  for (PredId Pr = 0; Pr < UpdateChanged.size(); ++Pr) {
    UpdateChanged[Pr].clear();
    UpdateDeleted[Pr].clear();
  }
  // The inner solver's stats before this update; zero when a full solve
  // replaces the solver, whose whole run is then this update's work.
  SolveStats Before;
  if (NeedFull) {
    U.FullResolve = SolvedOnce;
    if (U.FullResolve)
      ++Lifetime.DegradedRecoveries;
    fullSolve(U, DL);
    SolvedOnce = true;
  } else {
    Before = S->Stats;
    // An update with nothing staged is trivial: the model is already the
    // fixpoint.
    if (!PendingAdds.empty() || !PendingRetracts.empty())
      incrementalUpdate(U, DL);
  }
  S->sampleStats();
  static_cast<SolveStats &>(U) = S->Stats.since(Before);
  U.accumulate(Lifetime);
  Degraded = !U.ok();
  U.Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  return U;
}
