//===- fixpoint/Solver.cpp - Naive and semi-naive solvers -----------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Solver.h"

#include "fixpoint/Plan.h"
#include "parallel/RoundExecutor.h"

#include <algorithm>
#include <cassert>

using namespace flix;

/// The Solver's in-place policy for the shared plan executor (rounds
/// without a round executor, and the incremental engine's seed plans):
/// joins with immediate delta updates, live buckets read up to their
/// probe-time size (recursive derivations grow buckets mid-iteration).
/// When the solver records support or provenance it keeps the
/// executor's premise stack and hands each changed join to
/// recordDerivation. See the engine concept in fixpoint/Plan.h.
struct Solver::PlanEngine {
  Solver &S;
  const bool Record; ///< the solver tracks support or provenance
  /// Premise rows of the open match frames, in step order (Record only).
  SmallVector<CellRef, 8> PremStack;

  explicit PlanEngine(Solver &S)
      : S(S), Record(S.Opts.TrackSupport || S.Opts.TrackProvenance) {}

  std::vector<Value> &env() { return S.Env; }
  std::vector<uint8_t> &bound() { return S.Bound; }
  ValueFactory &factory() { return S.F; }
  Table &table(PredId P) { return *S.Tables[P]; }
  bool checkRow() { return S.checkDeadline(); }
  Value callExtern(FnId Fn, std::span<const Value> Args) {
    return plan::dispatchExtern(S.P, S.Opts.UseVm, S.Memo.get(), Fn, Args,
                                S.Stats.VmCalls, S.Stats.InterpFallbacks);
  }
  const Table::Bucket *probeBucket(const plan::Step &St,
                                   std::span<const Value> Proj) {
    // Derivations made while the cursor is open may join rows into this
    // table and grow the bucket in place; buckets never move, and the
    // cursor stops at the size captured here.
    return &S.Tables[St.Pred]->probe(St.Mask, Proj);
  }
  void onRow(PredId Pred, uint32_t RowId) {
    if (Record)
      PremStack.push_back({Pred, RowId});
  }
  void popRow() {
    if (Record)
      PremStack.pop_back();
  }
  void onDerived(const plan::RulePlan &Pl, Value KeyT, Value LatVal) {
    ++S.Stats.RuleFirings;
    Table::JoinResult JR = S.Tables[Pl.Head.Pred]->join(KeyT, LatVal);
    if (!JR.Changed)
      return;
    ++S.Stats.FactsDerived;
    S.queueDelta(Pl.Head.Pred, JR.RowId);
    if (!Record)
      return;
    NegKeyList NegKeys;
    S.negatedKeys(Pl.RuleIdx, S.Env, NegKeys);
    S.recordDerivation(Pl, {Pl.Head.Pred, JR.RowId},
                       {PremStack.data(), PremStack.size()},
                       {NegKeys.data(), NegKeys.size()});
  }
  const std::vector<uint32_t> *driverRows(uint32_t &Begin, uint32_t &End) {
    Begin = 0;
    End = static_cast<uint32_t>(S.CurDriverRows->size());
    return S.CurDriverRows;
  }

  /// Kept for the solver's lifetime so cursor storage is reused across
  /// runs; the sequential engine never nests plan runs.
  plan::PlanExecutor<PlanEngine> Exec{*this};
};

Solver::Solver(const Program &P, SolverOptions Opts)
    : P(P), Opts(Opts), F(P.factory()),
      RelLattice(std::make_unique<BoolLattice>(F)) {
  Tables.reserve(P.predicates().size());
  for (const PredicateDecl &D : P.predicates()) {
    // Key arity > 63 is rejected by Program::validate() at solve() start
    // (a diagnostic, not an assert), so constructing the table is fine.
    const Lattice &L = D.isRelational() ? *RelLattice : *D.Lat;
    Tables.push_back(std::make_unique<Table>(D.keyArity(), L, F));
  }
  // Seed plans serve only the incremental engine's re-derive and `not P`
  // insertion deltas, which need the support index anyway.
  Plans = std::make_unique<plan::PlanLibrary>(P, P.rules(), Opts.UseIndexes,
                                              /*Seeds=*/Opts.TrackSupport);
  if (Opts.CostBasedPlans)
    PlanStats = std::make_unique<plan::StatsCollector>(
        P, P.rules(), /*Seeds=*/Opts.TrackSupport);
  Engine = std::make_unique<PlanEngine>(*this);
  if (Opts.EnableMemo)
    Memo = std::make_unique<plan::ExternMemo>();
  Delta.resize(P.predicates().size());
  NextDelta.resize(P.predicates().size());
  if (Opts.TrackProvenance)
    Provenance.resize(P.predicates().size());
  if (Opts.TrackSupport) {
    Dependents.resize(P.predicates().size());
    NegDependents.resize(P.predicates().size());
  }
  for (auto [Pred, Mask] : P.indexHints())
    if (Opts.UseIndexes)
      Tables[Pred]->prepareIndex(Mask);
  if (Opts.NumThreads > 0)
    Exec = std::make_unique<RoundExecutor>(*this, Opts.NumThreads);
}

Solver::~Solver() = default;

//===----------------------------------------------------------------------===//
// Rule evaluation
//===----------------------------------------------------------------------===//

bool Solver::checkDeadline() {
  // Checked once per driver/scan row (not sampled every 4096 ops as it
  // used to be): a single huge join can no longer overshoot the time
  // limit by more than one row's worth of work. See support/Deadline.h.
  if (Aborted)
    return true;
  if (DL.expired()) {
    Aborted = true;
    Stats.St = SolveStats::Status::Timeout;
  }
  return Aborted;
}

void Solver::runPlan(const plan::RulePlan &Pl) { Engine->Exec.run(Pl); }

void Solver::evalRound(const std::vector<uint32_t> &RuleIds, bool Round0) {
  if (Exec) {
    Exec->evalRound(RuleIds, Round0);
    return;
  }
  bool FullPass = Round0 || Opts.Strat == Strategy::Naive;
  for (uint32_t RI : RuleIds) {
    if (FullPass) {
      if (Aborted)
        return;
      evalRule(RI, -1, {});
      continue;
    }
    const Rule &R = P.rules()[RI];
    for (size_t BI = 0; BI < R.Body.size() && !Aborted; ++BI) {
      const auto *A = std::get_if<BodyAtom>(&R.Body[BI]);
      if (!A || A->Negated || Delta[A->Pred].empty())
        continue;
      evalRule(RI, static_cast<int>(BI), Delta[A->Pred]);
    }
  }
}

void Solver::evalRule(uint32_t RI, int Driver,
                      const std::vector<uint32_t> &DriverRows) {
  const plan::RulePlan &Pl = Plans->plan(RI, Driver);
  Env.assign(Pl.NumVars, Value());
  Bound.assign(Pl.NumVars, 0);
  CurDriverRows = &DriverRows;
  runPlan(Pl);
  CurDriverRows = nullptr;
}

namespace {
/// Heap bytes of a vector's buffer.
template <class T> size_t bufferBytes(const std::vector<T> &V) {
  return V.capacity() * sizeof(T);
}

/// Heap bytes of a SmallVector that spilled its inline storage.
template <class T, unsigned N> size_t spillBytes(const SmallVector<T, N> &V) {
  return V.capacity() > N ? V.capacity() * sizeof(T) : 0;
}

/// Estimated bytes of one negation support entry besides its edge list's
/// spill: key, inline edge list and hash-node overhead.
constexpr size_t NegEntryBytes =
    sizeof(Value) + sizeof(SmallVector<CellRef, 2>) + 16;

/// Grows the per-row vector \p Rows to hold row \p Row, keeping \p Bytes
/// (which counts its buffer) current.
template <class T>
void growToRow(std::vector<T> &Rows, uint32_t Row, size_t &Bytes) {
  if (Row < Rows.size())
    return;
  Bytes -= bufferBytes(Rows);
  Rows.resize(size_t(Row) + 1);
  Bytes += bufferBytes(Rows);
}

/// Sorted-unique insertion into one support-index edge list, keeping
/// \p Bytes current. Long update streams re-fire the same (premise, head)
/// pairs every cycle, and without full dedup the lists grow without
/// bound. Lists are tiny (median 1-2 edges), so ordered insertion beats a
/// hash set.
void insertEdge(SmallVector<CellRef, 2> &Out, CellRef Head, size_t &Bytes) {
  auto It = std::lower_bound(Out.begin(), Out.end(), Head);
  if (It != Out.end() && *It == Head)
    return;
  size_t Idx = static_cast<size_t>(It - Out.begin());
  Bytes -= spillBytes(Out);
  Out.push_back(Head); // may reallocate; reposition via the index
  Bytes += spillBytes(Out);
  std::rotate(Out.begin() + Idx, Out.end() - 1, Out.end());
}
} // namespace

void Solver::addSupportEdge(CellRef Prem, CellRef Head) {
  auto &Rows = Dependents[Prem.Pred];
  growToRow(Rows, Prem.Row, AuxBytes);
  insertEdge(Rows[Prem.Row], Head, AuxBytes);
}

void Solver::addNegSupportEdge(PredId NegPred, Value KeyT, CellRef Head) {
  auto [It, New] = NegDependents[NegPred].try_emplace(KeyT);
  if (New)
    AuxBytes += NegEntryBytes;
  insertEdge(It->second, Head, AuxBytes);
}

void Solver::eraseNegSupport(PredId NegPred, NegSupportMap::iterator It) {
  AuxBytes -= NegEntryBytes + spillBytes(It->second);
  NegDependents[NegPred].erase(It);
}

void Solver::setProvenance(PredId Pred, uint32_t Row, Derivation D) {
  std::vector<Derivation> &Rows = Provenance[Pred];
  growToRow(Rows, Row, AuxBytes);
  // Moving keeps a spilled premise buffer, so its bytes move with it.
  AuxBytes += spillBytes(D.Premises);
  AuxBytes -= spillBytes(Rows[Row].Premises);
  Rows[Row] = std::move(D);
}

void Solver::negatedKeys(uint32_t RI, const std::vector<Value> &Env,
                         NegKeyList &Out) const {
  if (!Opts.TrackSupport)
    return;
  for (const BodyElem &E : P.rules()[RI].Body) {
    const auto *A = std::get_if<BodyAtom>(&E);
    if (!A || !A->Negated)
      continue;
    unsigned KA = P.predicate(A->Pred).keyArity();
    SmallVector<Value, 4> Key;
    for (unsigned I = 0; I < KA; ++I) {
      const Term &Tm = A->Terms[I];
      Key.push_back(Tm.isVar() ? Env[Tm.Variable] : Tm.Constant);
    }
    // Keyed by the interned tuple: the key usually has no row.
    Out.push_back({A->Pred, F.tuple(std::span<const Value>(Key.data(),
                                                           Key.size()))});
  }
}

void Solver::recordDerivation(const plan::RulePlan &Pl, CellRef Head,
                              std::span<const CellRef> Premises,
                              std::span<const NegKey> NegKeys) {
  assert(Premises.size() == Pl.PremiseSlots.size() &&
         "one premise row per positive body atom");
  if (Opts.TrackSupport) {
    // One support edge per premise row of this (changed) join: premise
    // row -> head cell. The head cell's value is the lub of its recorded
    // derivations' contributions, so retracting any premise of any
    // recorded derivation must (and does) over-delete the cell. The
    // derivation also depends on each `!P(key)` holding, so record
    // key -> head in the negation index: if that key later (re)enters P's
    // table the incremental engine over-deletes the head.
    for (CellRef Prem : Premises)
      addSupportEdge(Prem, Head);
    for (const auto &[NegPred, KeyT] : NegKeys)
      addNegSupportEdge(NegPred, KeyT, Head);
  }
  if (!Opts.TrackProvenance)
    return;
  Derivation D;
  D.RuleIndex = Pl.RuleIdx;
  D.Premises.resize(Premises.size());
  for (size_t K = 0; K < Premises.size(); ++K) {
    // The premise's current value: its value at match time or a lub above
    // it, so the derivation stays valid since rules are monotone.
    const Table::Row &Row = Tables[Premises[K].Pred]->row(Premises[K].Row);
    D.Premises[Pl.PremiseSlots[K]] = {Premises[K].Pred, Row.Key, Row.Lat};
  }
  setProvenance(Head.Pred, Head.Row, std::move(D));
}

size_t Solver::supportEdgeCount() const {
  size_t Count = 0;
  for (const auto &Rows : Dependents)
    for (const auto &Out : Rows)
      Count += Out.size();
  return Count;
}

size_t Solver::negSupportEdgeCount() const {
  size_t Count = 0;
  for (const auto &Keys : NegDependents)
    for (const auto &[KeyT, Out] : Keys)
      Count += Out.size();
  return Count;
}

//===----------------------------------------------------------------------===//
// Driver loops
//===----------------------------------------------------------------------===//

size_t Solver::memoryFootprint() const {
  size_t Bytes = F.memoryBytes() + AuxBytes;
  for (const auto &T : Tables)
    Bytes += T->memoryBytes();
  if (Memo)
    Bytes += Memo->memoryBytes();
  return Bytes;
}

size_t Solver::recountMemoryBytes() const {
  size_t Bytes = memoryFootprint() - AuxBytes;
  // Provenance: one Derivation per recorded row, plus premise vectors
  // that spilled their inline storage.
  for (const auto &Rows : Provenance) {
    Bytes += bufferBytes(Rows);
    for (const Derivation &D : Rows)
      Bytes += spillBytes(D.Premises);
  }
  // Support index: per-premise edge lists.
  for (const auto &Rows : Dependents) {
    Bytes += bufferBytes(Rows);
    for (const auto &Out : Rows)
      Bytes += spillBytes(Out);
  }
  // Negation support index: map entries plus spilled edge storage.
  for (const auto &Keys : NegDependents)
    for (const auto &[KeyT, Out] : Keys)
      Bytes += NegEntryBytes + spillBytes(Out);
  return Bytes;
}

void Solver::sampleStats() {
  Stats.MemoryBytes = memoryFootprint();
  Stats.PlanSteps = Plans->totalSteps();
  Stats.CostBasedPlans = Plans->costBasedPlans();
  if (Memo) {
    Stats.MemoHits = Memo->hits();
    Stats.MemoMisses = Memo->misses();
  }
  Stats.VmInlineCacheHits = P.vmIcHits() - IcHitsAtStart;
}

void Solver::replanPlans(double Threshold, bool CountEvents,
                         const plan::RunnablePlans *Only) {
  if (!Opts.CostBasedPlans)
    return;
  // Live-row counts decide which plans are due; the full snapshot (index
  // statistics, static column samples) is taken only if one is.
  std::vector<double> LiveRows(Tables.size());
  for (size_t I = 0; I < Tables.size(); ++I)
    LiveRows[I] = static_cast<double>(Tables[I]->liveSize());
  plan::StatsVec St;
  plan::PlanLibrary::ReplanResult R =
      Plans->replan(LiveRows, Threshold, Only, [&]() -> const plan::StatsVec & {
        PlanStats->gather({Tables.data(), Tables.size()}, St);
        return St;
      });
  if (CountEvents) {
    Stats.PlanChecks += R.Checked;
    Stats.ReplanEvents += R.Replanned;
    Stats.EstimatedVsActualRows += R.RowsDivergence;
  }
  if (Exec && R.Replanned)
    prepareIndexes();
}

void Solver::prepareIndexes() {
  std::vector<std::vector<uint64_t>> MasksByPred(Tables.size());
  Plans->wantedIndexes(MasksByPred);
  for (PredId Pred = 0; Pred < MasksByPred.size(); ++Pred)
    for (uint64_t Mask : MasksByPred[Pred])
      Tables[Pred]->prepareIndex(Mask);
}

bool Solver::promoteDelta() {
  bool AnyDelta = false;
  for (size_t PI = 0; PI < NextDelta.size(); ++PI) {
    std::vector<uint32_t> &D = Delta[PI];
    NextDelta[PI].moveTo(D);
    std::sort(D.begin(), D.end());
    AnyDelta |= !D.empty();
  }
  return AnyDelta;
}

void Solver::runRounds(const std::vector<uint32_t> &RuleIds,
                       uint64_t IterBase) {
  while (!Aborted && promoteDelta()) {
    if (Opts.MaxIterations &&
        Stats.Iterations - IterBase >= Opts.MaxIterations) {
      Aborted = true;
      Stats.St = SolveStats::Status::IterationLimit;
      return;
    }
    // Adaptive re-plan at the round boundary: single-threaded here, and
    // no evaluation is in flight, so swapping plans is safe. Only the
    // plans that can run from here are checked: those driven by an atom
    // with delta rows this round, and the Driver -1 plans while a round 0
    // or a naive in-place pass is ahead; of those, only the ones whose
    // inputs drifted run the order search. In-place rounds probe via
    // Table::probe (lazy index build); the round executor gets any newly
    // wanted mask pre-built by replanPlans.
    plan::RunnablePlans Next;
    Next.Plain = Solving || (!Exec && Opts.Strat == Strategy::Naive);
    Next.Delta = Delta;
    if (Opts.ReplanThreshold > 0)
      replanPlans(Opts.ReplanThreshold, /*CountEvents=*/true, &Next);
    evalRound(RuleIds, /*Round0=*/false);
    ++Stats.Iterations;
  }
}

void Solver::loadFacts() {
  if (!Store) {
    for (const Fact &Fa : P.facts())
      Tables[Fa.Pred]->join(
          F.tuple(std::span<const Value>(Fa.Key.data(), Fa.Key.size())),
          Fa.LatValue);
    return;
  }
  for (PredId Pred = 0; Pred < Store->size(); ++Pred)
    for (const auto &[KeyT, Vals] : (*Store)[Pred])
      for (Value LatVal : Vals)
        Tables[Pred]->join(KeyT, LatVal);
}

SolveStats Solver::solve() {
  assert(!Solved && "solve() may be called once");
  Solved = true;

  auto Start = std::chrono::steady_clock::now();
  DL = Deadline::after(Opts.TimeLimitSeconds);
  IcHitsAtStart = P.vmIcHits();

  auto finish = [&]() {
    Stats.Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
    sampleStats();
    return Stats;
  };

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
  Strata = std::move(SR.Strat);
  const Stratification &St = *Strata;

  loadFacts();
  // Initial cost-based order choice: plans were compiled against empty
  // tables, so the first useful statistics exist only now. Threshold 1.0
  // adopts any strict improvement; not counted as an adaptive replan.
  replanPlans(1.0, /*CountEvents=*/false, /*Only=*/nullptr);
  // The round executor probes read-only, so the indexes its plans want
  // must exist before round 0; fact loading maintained none of them.
  if (Exec)
    prepareIndexes();

  // Per stratum, round 0 evaluates every rule over the whole database;
  // the round loop then runs to the stratum's fixpoint.
  Solving = true;
  for (uint32_t S = 0; S < St.numStrata() && !Aborted; ++S) {
    const std::vector<uint32_t> &RuleIds = St.RulesByStratum[S];
    if (RuleIds.empty())
      continue;
    evalRound(RuleIds, /*Round0=*/true);
    ++Stats.Iterations;
    runRounds(RuleIds, /*IterBase=*/0);
  }
  Solving = false;

  return finish();
}

//===----------------------------------------------------------------------===//
// Query API
//===----------------------------------------------------------------------===//

bool Solver::contains(PredId Pred, std::span<const Value> Tuple) const {
  assert(P.predicate(Pred).isRelational() && "contains() is for relations");
  return Tables[Pred]->lookup(Tuple) != nullptr;
}

Value Solver::latValue(PredId Pred, std::span<const Value> Key) const {
  const PredicateDecl &D = P.predicate(Pred);
  assert(!D.isRelational() && "latValue() is for lattice predicates");
  const Value *V = Tables[Pred]->lookup(Key);
  return V ? *V : D.Lat->bot();
}

const Derivation *Solver::explain(PredId Pred,
                                  std::span<const Value> Key) const {
  if (!Opts.TrackProvenance)
    return nullptr;
  uint32_t Row = Tables[Pred]->lookupRow(Key);
  if (Row == Table::NoRow)
    return nullptr;
  // Rows no rule ever increased came straight from the input facts.
  static const Derivation FactDerivation;
  if (Row >= Provenance[Pred].size())
    return &FactDerivation;
  return &Provenance[Pred][Row];
}

void Solver::renderExplanation(std::string &Out, PredId Pred,
                               std::span<const Value> Key, unsigned Depth,
                               unsigned Indent) const {
  const PredicateDecl &D = P.predicate(Pred);
  Out.append(Indent, ' ');
  Out += D.Name;
  Out += '(';
  for (size_t I = 0; I < Key.size(); ++I) {
    if (I)
      Out += ", ";
    Out += F.toString(Key[I]);
  }
  Out += ')';
  uint32_t Row = Tables[Pred]->lookupRow(Key);
  if (Row == Table::NoRow) {
    Out += " [absent]\n";
    return;
  }
  if (!D.isRelational()) {
    Out += " = ";
    Out += F.toString(Tables[Pred]->row(Row).Lat);
  }
  const Derivation *Der = Row < Provenance[Pred].size()
                              ? &Provenance[Pred][Row]
                              : nullptr;
  if (!Der || Der->RuleIndex == Derivation::FromFact) {
    Out += "   <- fact\n";
    return;
  }
  Out += "   <- rule #" + std::to_string(Der->RuleIndex) + "\n";
  if (Depth == 0) {
    if (!Der->Premises.empty()) {
      Out.append(Indent + 2, ' ');
      Out += "...\n";
    }
    return;
  }
  for (const Derivation::Premise &Pr : Der->Premises)
    renderExplanation(Out, Pr.Pred, F.tupleElems(Pr.Key), Depth - 1,
                      Indent + 2);
}

std::string Solver::explainString(PredId Pred, std::span<const Value> Key,
                                  unsigned Depth) const {
  if (!Opts.TrackProvenance)
    return "(provenance not tracked; set "
           "SolverOptions::TrackProvenance)\n";
  std::string Out;
  renderExplanation(Out, Pred, Key, Depth, 0);
  return Out;
}

std::vector<std::vector<Value>> Solver::tuples(PredId Pred) const {
  const PredicateDecl &D = P.predicate(Pred);
  std::vector<std::vector<Value>> Out;
  const Table &T = *Tables[Pred];
  Out.reserve(T.liveSize());
  for (const Table::Row &R : T.rows()) {
    if (R.Lat == T.botValue())
      continue; // tombstoned (logically absent)
    std::span<const Value> Key = F.tupleElems(R.Key);
    std::vector<Value> Tup(Key.begin(), Key.end());
    if (!D.isRelational())
      Tup.push_back(R.Lat);
    Out.push_back(std::move(Tup));
  }
  return Out;
}
