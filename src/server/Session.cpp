//===- server/Session.cpp - One named database of the daemon --------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "server/Session.h"

#include <algorithm>
#include <chrono>

using namespace flix;
using namespace flix::server;

namespace {

/// Serializes one runtime Value for a query reply. Scalar kinds map to
/// their JSON counterparts; compound values (tags, tuples, sets) use the
/// factory's canonical rendering, which round-trips for enum tags (the
/// fact-column format is the rendered `Enum.Case`).
Json valueToJson(const ValueFactory &F, Value V) {
  switch (V.kind()) {
  case ValueKind::Int:
    return Json::integer(V.asInt());
  case ValueKind::Bool:
    return Json::boolean(V.asBool());
  case ValueKind::Str:
    return Json::str(F.strings().text(V.asStr()));
  default:
    return Json::str(F.toString(V));
  }
}

/// Parses one typed fact column from its JSON wire form. Mirrors flixc's
/// text fact-file column format: Int/Str/Bool as the native JSON type,
/// enums as `"Enum.Case"` strings. With \p Unknown set (point queries),
/// strings and tags are looked up instead of interned; one never interned
/// sets *Unknown, since no stored cell can contain it.
bool jsonToColumn(ValueFactory &F, const Type &T, const Json &J, Value &Out,
                  std::string &Err, bool *Unknown = nullptr) {
  switch (T.K) {
  case Type::Kind::Int:
    if (!J.isInt()) {
      Err = "expected a JSON integer";
      return false;
    }
    Out = F.integer(J.Int);
    return true;
  case Type::Kind::Str:
    if (!J.isStr()) {
      Err = "expected a JSON string";
      return false;
    }
    if (Unknown) {
      uint32_t Id = F.strings().lookup(J.Str);
      *Unknown |= Id == StringInterner::NotInterned;
      Out = F.string(Symbol{Id});
      return true;
    }
    Out = F.string(J.Str);
    return true;
  case Type::Kind::Bool:
    if (!J.isBool()) {
      Err = "expected a JSON boolean";
      return false;
    }
    Out = F.boolean(J.B);
    return true;
  case Type::Kind::Enum:
    if (!J.isStr() || J.Str.rfind(T.EnumName + ".", 0) != 0) {
      Err = "expected a " + T.EnumName + " tag string (\"Enum.Case\")";
      return false;
    }
    if (Unknown) {
      uint32_t Id = F.strings().lookup(J.Str);
      if (Id == StringInterner::NotInterned ||
          !F.findTag(Symbol{Id}, F.unit(), Out))
        *Unknown = true;
      return true;
    }
    Out = F.tag(J.Str);
    return true;
  default:
    Err = "unsupported column type " + T.str() + " on the wire";
    return false;
  }
}

} // namespace

Session::Session(std::string Name, Options O)
    : DbName(std::move(Name)), Opt(std::move(O)) {}

Session::~Session() = default;

bool Session::load(const std::string &Source, Deadline DL, ErrCode &Code,
                   std::string &Err) {
  Compiler = std::make_unique<FlixCompiler>(F);
  // Honor the daemon's --no-vm flag in every database this server
  // compiles.
  Compiler->setUseVm(Opt.Solve.UseVm);
  if (!Compiler->compile(Source, DbName + ".flix")) {
    Code = ErrCode::CompileError;
    Err = Compiler->diagnostics();
    return false;
  }
  IS = std::make_unique<IncrementalSolver>(Compiler->program(), Opt.Solve);
  // Queries intern key tuples while the leader solves; flip the factory
  // to lock-sharded interning before the session is ever shared.
  F.enableConcurrentInterning();

  // The initial solve is exclusive (the session is unpublished), so the
  // request deadline can directly bound it; the solver takes the tighter
  // of it and the configured per-batch budget.
  UpdateStats U = IS->update(DL);
  if (!U.ok()) {
    Code = U.St == SolveStats::Status::Timeout ? ErrCode::DeadlineExceeded
                                               : ErrCode::SolveError;
    Err = U.Error.empty() ? "initial solve did not reach a fixpoint"
                          : U.Error;
    return false;
  }
  if (Compiler->interp().hasError()) {
    Code = ErrCode::SolveError;
    Err = Compiler->interp().error();
    return false;
  }
  publishSnapshot(U, 1);
  std::lock_guard<std::mutex> Lk(Mu);
  AppliedGen = 1;
  NextGen = 2;
  UpdateBatches = 1;
  TotalUpdateSeconds += U.Seconds;
  LastUpdate = std::move(U);
  return true;
}

bool Session::parseRows(const std::string &PredName, const Json &Rows,
                        std::vector<Fact> &Out, ErrCode &Code,
                        std::string &Err) {
  auto Pid = Compiler->predicate(PredName);
  if (!Pid) {
    Code = ErrCode::NoSuchPred;
    Err = "no predicate named '" + PredName + "'";
    return false;
  }
  const auto &Preds = Compiler->checkedModule().Preds;
  auto InfoIt = Preds.find(PredName);
  if (InfoIt == Preds.end()) {
    Code = ErrCode::NoSuchPred;
    Err = "no predicate named '" + PredName + "'";
    return false;
  }
  const PredInfo &Info = InfoIt->second;
  bool IsLat = Info.Decl && Info.Decl->IsLat;
  size_t Arity = Info.AttrTypes.size();
  size_t KeyArity = IsLat ? Arity - 1 : Arity;

  if (!Rows.isArr()) {
    Code = ErrCode::BadRequest;
    Err = "'rows' must be an array of row arrays";
    return false;
  }
  Out.reserve(Rows.Arr.size());
  for (size_t RI = 0; RI < Rows.Arr.size(); ++RI) {
    const Json &RowJ = Rows.Arr[RI];
    if (!RowJ.isArr() || RowJ.Arr.size() != Arity) {
      Code = ErrCode::BadFact;
      Err = "row " + std::to_string(RI) + ": expected an array of " +
            std::to_string(Arity) + " columns";
      return false;
    }
    Fact Fa;
    Fa.Pred = *Pid;
    Fa.LatValue = F.boolean(true);
    for (size_t CI = 0; CI < Arity; ++CI) {
      Value V;
      std::string ColErr;
      if (!jsonToColumn(F, Info.AttrTypes[CI], RowJ.Arr[CI], V, ColErr)) {
        Code = ErrCode::BadFact;
        Err = "row " + std::to_string(RI) + ", column " +
              std::to_string(CI + 1) + " of " + PredName + ": " + ColErr;
        return false;
      }
      if (CI < KeyArity)
        Fa.Key.push_back(V);
      else
        Fa.LatValue = V;
    }
    Out.push_back(std::move(Fa));
  }
  return true;
}

Session::GenOutcome Session::commitBatch(const std::vector<Fact> &Adds,
                                         const std::vector<Fact> &Rets,
                                         uint64_t Gen, UpdateStats &UOut) {
  GenOutcome O;
  const Program &Prog = Compiler->program();
  for (const Fact &Fa : Rets) {
    std::span<const Value> Key(Fa.Key.data(), Fa.Key.size());
    if (Prog.predicate(Fa.Pred).isRelational())
      IS->retractFact(Fa.Pred, Key);
    else
      IS->retractLatFact(Fa.Pred, Key, Fa.LatValue);
  }
  for (const Fact &Fa : Adds) {
    std::span<const Value> Key(Fa.Key.data(), Fa.Key.size());
    if (Prog.predicate(Fa.Pred).isRelational())
      IS->addFact(Fa.Pred, Key);
    else
      IS->addLatFact(Fa.Pred, Key, Fa.LatValue);
  }

  UOut = IS->update();
  O.Seconds = UOut.Seconds;
  O.FullResolve = UOut.FullResolve;
  if (!UOut.ok()) {
    O.Ok = false;
    O.Code = UOut.St == SolveStats::Status::Timeout
                 ? ErrCode::DeadlineExceeded
                 : ErrCode::SolveError;
    O.Error = UOut.Error.empty()
                  ? std::string(UOut.St == SolveStats::Status::Timeout
                                    ? "update cancelled by the per-batch "
                                      "time limit; the next batch will "
                                      "recover with a full solve"
                                    : "update did not reach a fixpoint")
                  : UOut.Error;
  } else if (Compiler->interp().hasError()) {
    O.Ok = false;
    O.Code = ErrCode::SolveError;
    O.Error = Compiler->interp().error();
  }
  // Publish even for failed batches: a cancelled update leaves a sound
  // under-approximation, and keeping Generation monotone with AppliedGen
  // is what lets waiters and queries reason about time.
  publishSnapshot(UOut, Gen);
  return O;
}

void Session::publishSnapshot(const UpdateStats &U, uint64_t Gen) {
  std::shared_ptr<const DbSnapshot> Old = snapshot();
  auto NewSnap = std::make_shared<DbSnapshot>();
  NewSnap->Generation = Gen;
  size_t NumPreds = Compiler->program().predicates().size();
  // A full solve replaced the inner solver, and with it every row id the
  // overlays are keyed by: re-capture every predicate.
  NewSnap->Rebases = Old ? Old->Rebases : 0;
  if (!Old || U.FullResolve) {
    for (size_t I = 0; I < NumPreds; ++I)
      NewSnap->Preds.push_back(PredSnapshot::capture(IS->table(PredId(I))));
  } else {
    NewSnap->Preds = Old->Preds;
    for (PredId Pr : U.ChangedPreds) {
      std::span<const uint32_t> Changed = IS->changedRows(Pr);
      std::span<const uint32_t> Deleted = IS->deletedRows(Pr);
      Touched.assign(Changed.begin(), Changed.end());
      Touched.insert(Touched.end(), Deleted.begin(), Deleted.end());
      std::sort(Touched.begin(), Touched.end());
      Touched.erase(std::unique(Touched.begin(), Touched.end()),
                    Touched.end());
      const PredSnapshot &Prev = *Old->Preds[Pr];
      if (Prev.wantsRebase(Touched.size())) {
        NewSnap->Preds[Pr] = PredSnapshot::capture(IS->table(Pr));
        ++NewSnap->Rebases;
      } else {
        NewSnap->Preds[Pr] = Prev.advance(IS->table(Pr), Touched);
      }
    }
  }
  std::lock_guard<std::mutex> Lk(SnapMu);
  Snap = std::move(NewSnap);
}

std::shared_ptr<const DbSnapshot> Session::snapshot() const {
  std::lock_guard<std::mutex> Lk(SnapMu);
  return Snap;
}

Session::ApplyResult Session::applyFacts(const std::string &PredName,
                                         const Json &Rows, bool Retract,
                                         Deadline DL) {
  ApplyResult Res;
  std::vector<Fact> Parsed;
  {
    ErrCode Code = ErrCode::BadRequest;
    std::string Err;
    if (!parseRows(PredName, Rows, Parsed, Code, Err)) {
      Res.Ok = false;
      Res.Code = Code;
      Res.Error = std::move(Err);
      return Res;
    }
  }
  Res.StagedRows = Parsed.size();

  std::unique_lock<std::mutex> Lk(Mu);
  if (StagedRows + Parsed.size() > Opt.MaxPendingFacts) {
    ++OverloadRejections;
    Res.Ok = false;
    Res.Code = ErrCode::Overloaded;
    Res.Error = "staged rows (" + std::to_string(StagedRows) + " + " +
                std::to_string(Parsed.size()) +
                ") would exceed max_pending_facts (" +
                std::to_string(Opt.MaxPendingFacts) + ")";
    return Res;
  }
  ++MutationRequests;
  RowsStagedTotal += Parsed.size();
  StagedRows += Parsed.size();
  ++StagedRequests;
  std::vector<Fact> &Dest = Retract ? StagedRetracts : StagedAdds;
  Dest.insert(Dest.end(), std::make_move_iterator(Parsed.begin()),
              std::make_move_iterator(Parsed.end()));
  const uint64_t MyGen = NextGen;
  Res.Generation = MyGen;

  if (!LeaderActive) {
    // Group-commit leader: drain every staged batch, including work that
    // arrives while an update runs. Leadership hand-off happens entirely
    // under Mu, so exactly one thread ever touches the solver.
    LeaderActive = true;
    while (!StagedAdds.empty() || !StagedRetracts.empty()) {
      std::vector<Fact> Adds, Rets;
      Adds.swap(StagedAdds);
      Rets.swap(StagedRetracts);
      uint64_t BatchRequests = StagedRequests;
      StagedRequests = 0;
      StagedRows = 0;
      uint64_t Gen = NextGen++;
      Lk.unlock();
      UpdateStats U;
      GenOutcome O = commitBatch(Adds, Rets, Gen, U);
      O.Requests = BatchRequests;
      Lk.lock();
      AppliedGen = Gen;
      ++UpdateBatches;
      TotalUpdateSeconds += O.Seconds;
      LastUpdate = std::move(U);
      Outcomes[Gen] = std::move(O);
      if (Outcomes.size() > 2048) {
        for (auto It = Outcomes.begin(); It != Outcomes.end();)
          It = It->first + 1024 < Gen ? Outcomes.erase(It) : std::next(It);
      }
      CV.notify_all();
    }
    LeaderActive = false;
  } else {
    // Follower: wait for the leader to commit our generation, bounded by
    // the request deadline. On expiry the rows STAY staged — they will
    // commit with the in-flight or next batch; only the wait gives up.
    while (AppliedGen < MyGen) {
      if (!DL.active()) {
        CV.wait(Lk);
        continue;
      }
      double Rem = DL.remainingSeconds();
      if (Rem <= 0) {
        ++DeadlineExpiredWaits;
        Res.Ok = false;
        Res.Code = ErrCode::DeadlineExceeded;
        Res.Error = "deadline expired waiting for generation " +
                    std::to_string(MyGen) +
                    " to commit; the staged rows will still be applied";
        return Res;
      }
      CV.wait_for(Lk, std::chrono::duration<double>(Rem));
    }
  }

  auto It = Outcomes.find(MyGen);
  if (It != Outcomes.end()) {
    const GenOutcome &O = It->second;
    Res.BatchSeconds = O.Seconds;
    Res.FullResolve = O.FullResolve;
    Res.Coalesced = O.Requests > 1;
    if (!O.Ok) {
      Res.Ok = false;
      Res.Code = O.Code;
      Res.Error = O.Error;
    }
  }
  return Res;
}

Session::QueryReply Session::query(const std::string &PredName,
                                   const Json *Key, int64_t Limit) {
  QueryReply R;
  auto Pid = Compiler->predicate(PredName);
  if (!Pid) {
    R.Ok = false;
    R.Code = ErrCode::NoSuchPred;
    R.Error = "no predicate named '" + PredName + "'";
    return R;
  }
  const PredicateDecl &Decl = Compiler->program().predicate(*Pid);
  Queries.fetch_add(1, std::memory_order_relaxed);

  std::shared_ptr<const DbSnapshot> S = snapshot();
  const PredSnapshot &PS = *S->Preds[*Pid];
  Json Fields = Json::object();
  Fields.set("pred", Json::str(PredName));
  Fields.set("generation", Json::integer(int64_t(S->Generation)));

  if (Key) {
    if (!Key->isArr() || Key->Arr.size() != Decl.keyArity()) {
      R.Ok = false;
      R.Code = ErrCode::BadRequest;
      R.Error = "'key' must be an array of " +
                std::to_string(Decl.keyArity()) + " key column values";
      return R;
    }
    const PredInfo &Info = Compiler->checkedModule().Preds.at(PredName);
    SmallVector<Value, 4> KeyVals;
    bool Unknown = false;
    for (size_t I = 0; I < Key->Arr.size(); ++I) {
      Value V;
      std::string ColErr;
      if (!jsonToColumn(F, Info.AttrTypes[I], Key->Arr[I], V, ColErr,
                        &Unknown)) {
        R.Ok = false;
        R.Code = ErrCode::BadFact;
        R.Error = "key column " + std::to_string(I + 1) + " of " +
                  PredName + ": " + ColErr;
        return R;
      }
      KeyVals.push_back(V);
    }
    const Table::Row *Row =
        Unknown ? nullptr
                : PS.find(F, std::span<const Value>(KeyVals.data(),
                                                    KeyVals.size()));
    Fields.set("found", Json::boolean(Row != nullptr));
    if (Row && !Decl.isRelational())
      Fields.set("value", valueToJson(F, Row->Lat));
  } else {
    Json RowsJ = Json::array();
    PS.forEachLive([&](const Table::Row &Row) {
      if (Limit > 0 && int64_t(RowsJ.Arr.size()) >= Limit)
        return false;
      Json RowJ = Json::array();
      for (Value K : F.tupleElems(Row.Key))
        RowJ.Arr.push_back(valueToJson(F, K));
      if (!Decl.isRelational())
        RowJ.Arr.push_back(valueToJson(F, Row.Lat));
      RowsJ.Arr.push_back(std::move(RowJ));
      return true;
    });
    Fields.set("count", Json::integer(int64_t(PS.liveCount())));
    Fields.set("rows", std::move(RowsJ));
  }
  R.Fields = std::move(Fields);
  return R;
}

Json Session::statsJson() {
  std::lock_guard<std::mutex> Lk(Mu);
  Json S = Json::object();
  S.set("db", Json::str(DbName));
  S.set("generation", Json::integer(int64_t(AppliedGen)));
  S.set("mutation_requests", Json::integer(int64_t(MutationRequests)));
  S.set("update_batches", Json::integer(int64_t(UpdateBatches)));
  S.set("coalesced_requests",
        Json::integer(int64_t(MutationRequests > UpdateBatches
                                  ? MutationRequests - UpdateBatches
                                  : 0)));
  S.set("rows_staged_total", Json::integer(int64_t(RowsStagedTotal)));
  S.set("pending_rows", Json::integer(int64_t(StagedRows)));
  S.set("queries",
        Json::integer(int64_t(Queries.load(std::memory_order_relaxed))));
  S.set("overload_rejections", Json::integer(int64_t(OverloadRejections)));
  S.set("deadline_expired_waits",
        Json::integer(int64_t(DeadlineExpiredWaits)));
  S.set("update_seconds_total", Json::number(TotalUpdateSeconds));
  // Live value-arena size (the last update's MemoryBytes includes it as
  // of that update): point queries intern nothing, so it moves only with
  // loads and mutations.
  S.set("value_arena_bytes", Json::integer(int64_t(F.memoryBytes())));
  // Snapshot maintenance: re-bases forced by the overlay bound so far, and
  // the rows the published snapshot carries on top of its bases.
  std::shared_ptr<const DbSnapshot> Cur = snapshot();
  uint64_t OverlayRows = 0;
  for (const auto &PS : Cur->Preds)
    OverlayRows += PS->overlaySize();
  S.set("snapshot_rebases", Json::integer(int64_t(Cur->Rebases)));
  S.set("snapshot_overlay_rows", Json::integer(int64_t(OverlayRows)));
  // The last update's stats: every registry row, flat.
  S.set("full_resolve", Json::boolean(LastUpdate.FullResolve));
  forEachStat(LastUpdate, [&](const StatInfo &I, auto V) {
    if constexpr (std::is_floating_point_v<decltype(V)>)
      S.set(I.Key, Json::number(V));
    else
      S.set(I.Key, Json::integer(int64_t(V)));
  });
  return S;
}
