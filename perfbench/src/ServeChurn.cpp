//===- perfbench/src/ServeChurn.cpp - In-process flixd churn workload -----===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// Workload serve_churn: flixd driven in-process by one closed-loop caller
// that calls Server::handleLine directly -- no start(), no sockets and no
// second client, so no group-commit coalescing and no scheduler noise.
//
// Set-up is one load_program request. Its source is the gen/kill program
// of bench/table2_ifds.cpp's VM ablation (a FLIX-defined two-point
// lattice Out and !Kill under stratified negation) with the facts of a
// generated 128-procedure ICFG written inline, so set-up runs the front
// end over tens of KB of source, then the initial solve and the first
// snapshot.
//
// Each cycle sends one mutation request (update_p50_ms, update_p90_ms):
// an Edge or Gen retracted or re-added, or a Kill retracted or re-added,
// staged the way bench/streaming_negation.cpp stages its churn. Four
// point queries on Out follow (query_p50_ms). Every reply is checked: the
// mutation's status, and each queried answer against an imperative
// gen/kill reachability over the current fact set. Every CheckEvery
// mutations a checkpoint compares a scan of Out with that reference,
// solves the current fact set with a fresh Solver
// (solve_p50_ms: what a non-incremental server would pay per change) and
// reads the `stats` verb, whose fallback counters must stay 0.
//
// The traced run adds a replica of the server's write path built from
// public functions: decodeRequest, a Session the benchmark owns, and a
// standalone IncrementalSolver replaying the same mutation stream. Its
// incremental-versus-server split is an estimate until spans inside the
// library exist.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Samples.h"

#include "parallel/Dispatch.h"
#include "server/Server.h"
#include "workload/IcfgWorkload.h"

#include <deque>
#include <memory>
#include <random>
#include <set>
#include <unordered_map>

using namespace flix;
using namespace flix::server;

namespace perfbench {
namespace {

const char *RulesSource = R"flix(
enum R { case Bot, case Reach }

def leq(a: R, b: R): Bool = match (a, b) with {
  case (R.Bot, _) => true
  case (R.Reach, R.Reach) => true
  case _ => false
}
def lub(a: R, b: R): R = match (a, b) with {
  case (R.Bot, x) => x
  case (x, R.Bot) => x
  case _ => R.Reach
}
def glb(a: R, b: R): R = match (a, b) with {
  case (R.Reach, x) => x
  case (x, R.Reach) => x
  case _ => R.Bot
}
let R<> = (R.Bot, R.Reach, leq, lub, glb);

def step(t: R): R = match t with {
  case R.Reach => R.Reach
  case R.Bot => R.Bot
}

rel Edge(n: Int, m: Int);
rel Gen(n: Int, d: Int);
rel Kill(n: Int, d: Int);
lat Out(n: Int, d: Int, R<>);

Out(n, d, R.Reach) :- Gen(n, d).
Out(m, d, step(t)) :- Out(n, d, t), Edge(n, m), !Kill(m, d).
)flix";

using Pair = std::pair<int, int>;

enum RelKind { EdgeRel, GenRel, KillRel };
const char *const RelNames[] = {"Edge", "Gen", "Kill"};

struct Mutation {
  RelKind Rel;
  bool Retract;
  Pair Row;
};

/// The seeded mutation stream over the instance's input facts. Each
/// mutation retracts one generated fact of a relation, or re-adds the
/// oldest retracted one once Window are out, so the fact set never moves
/// more than Window facts per relation from the generated instance and
/// the work per update stays stationary over a run of any length.
class Churn {
public:
  static constexpr size_t Window = 8;

  Churn(const IcfgProgram &G, uint64_t Seed) : Rng(Seed) {
    Rels[EdgeRel].Orig = G.CfgEdges;
    for (int N = 0; N < G.NumNodes; ++N) {
      for (int D : G.Flows[N].Gen)
        Rels[GenRel].Orig.push_back({N, D});
      for (int D : G.Flows[N].Kill)
        Rels[KillRel].Orig.push_back({N, D});
    }
    for (Relation &R : Rels) {
      std::sort(R.Orig.begin(), R.Orig.end());
      R.Orig.erase(std::unique(R.Orig.begin(), R.Orig.end()), R.Orig.end());
      R.Present.insert(R.Orig.begin(), R.Orig.end());
    }
  }

  /// Edge, Gen, Kill, Edge, ... (relations without facts are skipped).
  Mutation next() {
    static const RelKind Order[] = {EdgeRel, GenRel, KillRel, EdgeRel};
    RelKind K;
    do
      K = Order[Count++ % 4];
    while (Rels[K].Orig.empty());
    Relation &R = Rels[K];
    if (R.Out.size() >= Window || R.Present.empty()) {
      Pair Row = R.Out.front();
      R.Out.pop_front();
      R.Present.insert(Row);
      return {K, false, Row};
    }
    Pair Row;
    do
      Row = R.Orig[Rng() % R.Orig.size()];
    while (!R.Present.count(Row));
    R.Present.erase(Row);
    R.Out.push_back(Row);
    return {K, true, Row};
  }

  const std::vector<Pair> &original(RelKind K) const { return Rels[K].Orig; }
  const std::set<Pair> &present(RelKind K) const { return Rels[K].Present; }

private:
  struct Relation {
    std::vector<Pair> Orig;
    std::set<Pair> Present;
    std::deque<Pair> Out;
  };
  Relation Rels[3];
  std::mt19937_64 Rng;
  uint64_t Count = 0;
};

/// The imperative reference: Out(n, d) holds iff n is a Gen(n, d) source
/// or is reachable from one along Edge through nodes that do not kill d.
class Reachability {
public:
  Reachability(int NumNodes, int NumFacts)
      : NumNodes(NumNodes), NumFacts(NumFacts) {}

  void reset(const Churn &C) {
    Succ.assign(size_t(NumNodes), {});
    for (auto [A, B] : C.present(EdgeRel))
      Succ[size_t(A)].push_back(B);
    Sources.assign(size_t(NumFacts), {});
    for (auto [N, D] : C.present(GenRel))
      Sources[size_t(D)].push_back(N);
    Kills.clear();
    for (auto [N, D] : C.present(KillRel))
      Kills.insert(packKey(N, D));
    Cache.clear();
  }

  void apply(const Mutation &M) {
    Cache.clear();
    auto [A, B] = M.Row;
    auto toggle = [&](std::vector<int> &V, int X) {
      if (!M.Retract) {
        V.push_back(X);
        return;
      }
      auto It = std::find(V.begin(), V.end(), X);
      if (It != V.end())
        V.erase(It);
    };
    if (M.Rel == EdgeRel)
      toggle(Succ[size_t(A)], B);
    else if (M.Rel == GenRel)
      toggle(Sources[size_t(B)], A);
    else if (M.Retract)
      Kills.erase(packKey(A, B));
    else
      Kills.insert(packKey(A, B));
  }

  bool holds(int N, int D) {
    return N >= 0 && N < NumNodes && D >= 0 && D < NumFacts &&
           reach(D)[size_t(N)];
  }

  /// A cell that holds, drawn at random: a random fact, then a random
  /// node it reaches. Empty when the facts drawn hold nowhere.
  std::optional<Pair> presentCell(std::mt19937_64 &Rng) {
    for (int Try = 0; Try < 8; ++Try) {
      int D = int(Rng() % uint64_t(NumFacts));
      const std::vector<char> &Seen = reach(D);
      size_t Held = size_t(std::count(Seen.begin(), Seen.end(), 1));
      if (Held == 0)
        continue;
      size_t K = Rng() % Held;
      for (int N = 0; N < NumNodes; ++N)
        if (Seen[size_t(N)] && K-- == 0)
          return Pair{N, D};
    }
    return std::nullopt;
  }

  PairDigest digest() {
    PairDigest Dg;
    for (int D = 0; D < NumFacts; ++D) {
      const std::vector<char> &Seen = reach(D);
      for (int N = 0; N < NumNodes; ++N)
        if (Seen[size_t(N)])
          Dg.add(N, D);
    }
    return Dg;
  }

private:
  const std::vector<char> &reach(int D) {
    auto It = Cache.find(D);
    if (It != Cache.end())
      return It->second;
    std::vector<char> Seen(size_t(NumNodes), 0);
    std::vector<int> Work;
    for (int N : Sources[size_t(D)])
      if (!Seen[size_t(N)]) {
        Seen[size_t(N)] = 1;
        Work.push_back(N);
      }
    while (!Work.empty()) {
      int N = Work.back();
      Work.pop_back();
      for (int M : Succ[size_t(N)])
        if (!Seen[size_t(M)] && !Kills.count(packKey(M, D))) {
          Seen[size_t(M)] = 1;
          Work.push_back(M);
        }
    }
    return Cache.emplace(D, std::move(Seen)).first->second;
  }

  int NumNodes, NumFacts;
  std::vector<std::vector<int>> Succ, Sources;
  std::unordered_set<uint64_t> Kills;
  std::unordered_map<int, std::vector<char>> Cache;
};

Json pairJson(Pair P) {
  Json J = Json::array();
  J.Arr.push_back(Json::integer(P.first));
  J.Arr.push_back(Json::integer(P.second));
  return J;
}

Json request(const char *Op, int64_t Id) {
  Json Req = Json::object();
  Req.set("op", Json::str(Op));
  Req.set("db", Json::str("g"));
  Req.set("id", Json::integer(Id));
  return Req;
}

std::string mutationLine(const Mutation &M, int64_t Id) {
  Json Rows = Json::array();
  Rows.Arr.push_back(pairJson(M.Row));
  Json Req = request(M.Retract ? "retract_facts" : "add_facts", Id);
  Req.set("pred", Json::str(RelNames[M.Rel]));
  Req.set("rows", std::move(Rows));
  return writeJson(Req);
}

std::string queryLine(Pair Key, int64_t Id) {
  Json Req = request("query", Id);
  Req.set("pred", Json::str("Out"));
  Req.set("key", pairJson(Key));
  return writeJson(Req);
}

/// Parses a reply; empty unless it parsed and carries "ok": true.
std::optional<Json> okReply(const std::string &Reply) {
  Json J;
  std::string Err;
  if (!parseJson(Reply, J, Err))
    return std::nullopt;
  const Json *Ok = J.get("ok");
  if (!Ok || !Ok->isBool() || !Ok->B)
    return std::nullopt;
  return J;
}

int64_t intField(const Json *Obj, const char *Name) {
  const Json *F = Obj ? Obj->get(Name) : nullptr;
  return F && F->isInt() ? F->Int : -1;
}

class ServeWorkload {
public:
  static constexpr unsigned Threads = 1;

  explicit ServeWorkload(const RunConfig &C)
      : Icfg(renameIcfg(C.Tiny ? generateIcfg(BaseInstanceSeed, 8, 8, 16, 2)
                               : generateIcfg(BaseInstanceSeed, 128, 14, 256, 3),
                        C.Seed)),
        Seed(C.Seed), Replay(C.Tiny ? 40 : 400), Stream(Icfg, C.Seed),
        Ref(Icfg.NumNodes, Icfg.NumFacts),
        QRng(C.Seed * 0x9e3779b97f4a7c15ULL + 3) {
    Source = RulesSource;
    for (RelKind K : {EdgeRel, GenRel, KillRel})
      for (auto [A, B] : Stream.original(K))
        Source += std::string(RelNames[K]) + "(" + std::to_string(A) + ", " +
                  std::to_string(B) + ").\n";
    Json Load = request("load_program", 0);
    Load.set("source", Json::str(Source));
    LoadLine = writeJson(Load);
    Ref.reset(Stream);
  }

  /// One set-up: a fresh server and the load_program request. It replaces
  /// the server the cycles use and starts a new mutation stream from the
  /// instance's facts, drawn from the seed and the set-up's index. The
  /// incremental engine keeps a row for every cell it ever derived, so a
  /// server's memory grows with the mutations it has applied; restarting
  /// after a fixed number keeps the peak a function of the inputs.
  double setup(Tracer &Tr, Result &R) {
    auto Fresh = std::make_unique<Server>(ServerOptions());
    double T0 = now();
    std::string Reply;
    {
      auto Sp = Tr.span("server.load_program", 0);
      Reply = Fresh->handleLine(LoadLine);
    }
    double Seconds = now() - T0;
    ++R.Attempted;
    if (!okReply(Reply))
      R.fail("set-up: load_program failed: " + Reply.substr(0, 300));
    Srv = std::move(Fresh);
    Stream = Churn(Icfg, Seed + 0x9e3779b97f4a7c15ULL * Setups++);
    Ref.reset(Stream);
    return Seconds;
  }

  void cycle(Tracer &Tr, Samples &S, Result &R) {
    Mutation M = Stream.next();
    Ref.apply(M);
    int64_t Id = NextId++;
    std::string Line = mutationLine(M, Id);
    std::string Reply;
    double T0 = now();
    {
      auto Sp = Tr.span("server.handle_line", Id);
      Reply = Srv->handleLine(Line);
    }
    S.Update.add((now() - T0) * 1e3);
    ++R.Attempted;
    if (!okReply(Reply))
      R.fail("mutation " + Line + " failed: " + Reply.substr(0, 300));
    for (int Q = 0; Q < QueriesPerMutation; ++Q)
      query(Tr, S, R);
    if (++Mutations % CheckEvery == 0)
      checkpoint(Tr, S, R);
  }

  static const Series &primary(const Samples &S) { return S.Update; }

  void reportLayers(Result &R, const Samples &S, Tracer &Tr) {
    // Front end: the whole source, and the rules alone; the difference is
    // the inline facts.
    std::vector<double> CompileMs, RulesMs;
    std::unique_ptr<Instance> Inst;
    for (int I = 0; I < 3; ++I) {
      Inst = std::make_unique<Instance>();
      double T0 = now();
      {
        auto Sp = Tr.span("lang.compile");
        if (!Inst->C.compile(Source, "serve.flix"))
          fatal("serve source failed to compile:\n" + Inst->C.diagnostics());
      }
      CompileMs.push_back((now() - T0) * 1e3);
      Instance Rules;
      T0 = now();
      if (!Rules.C.compile(RulesSource, "rules.flix"))
        fatal("rules failed to compile:\n" + Rules.C.diagnostics());
      RulesMs.push_back((now() - T0) * 1e3);
    }
    R.add("lang.compile_ms", median(CompileMs), "ms", CompileMs.size());
    R.add("lang.source_kb", double(Source.size()) / 1024, "KB");
    R.add("lang.fact_load_ms",
          std::max(0.0, median(CompileMs) - median(RulesMs)), "ms",
          CompileMs.size());
    replayWritePath(R, *Inst, Tr);

    double SolveS = S.Solve.p50() / 1e3;
    addSolveLayerMetrics(R, FirstSolve, SolveS, S.SolveCpu.p50() / 1e3);
    std::vector<double> RefS;
    for (int I = 0; I < 9; ++I) {
      double T0 = now();
      Ref.reset(Stream);
      (void)Ref.digest();
      RefS.push_back(now() - T0);
    }
    R.add("fixpoint.vs_imperative", ratio(SolveS, median(RefS)), "x");
    R.add("server.reply_bytes", ratio(ReplyBytes, double(Replies)), "bytes",
          Replies);
    R.add("server.coalesced_requests", double(LastCoalesced), "count");
    R.note("solver", "IncrementalSolver behind Server::handleLine");
    R.note("icfg_nodes", std::to_string(Icfg.NumNodes));
    R.note("source_bytes", std::to_string(Source.size()));
  }

private:
  static constexpr int QueriesPerMutation = 4;
  static constexpr uint64_t CheckEvery = 32;

  struct Instance {
    ValueFactory F;
    FlixCompiler C{F};
  };

  void query(Tracer &Tr, Samples &S, Result &R) {
    // Half the keys are cells the reference holds, half are random
    // (mostly absent); the run record keeps the share found present.
    std::optional<Pair> Held;
    if (QRng() % 2)
      Held = Ref.presentCell(QRng);
    Pair Key = Held ? *Held
                    : Pair{int(QRng() % Icfg.NumNodes),
                           int(QRng() % Icfg.NumFacts)};
    int64_t Id = NextId++;
    std::string Line = queryLine(Key, Id);
    std::string Reply;
    double T0 = now();
    {
      auto Sp = Tr.span("server.handle_line", Id);
      Reply = Srv->handleLine(Line);
    }
    S.Query.add((now() - T0) * 1e3);
    ReplyBytes += double(Reply.size());
    ++Replies;
    ++R.Attempted;
    auto Ck = Tr.span("harness.check");
    bool Expect = Ref.holds(Key.first, Key.second);
    PresentQueries += Expect;
    std::optional<Json> J = okReply(Reply);
    const Json *Found = J ? J->get("found") : nullptr;
    bool Ok = Found && Found->isBool() && Found->B == Expect;
    if (Ok && Expect) {
      const Json *V = J->get("value");
      Ok = V && V->isStr() && V->Str == "R.Reach";
    }
    if (!Ok)
      R.fail("query " + Line + " replied " + Reply.substr(0, 300) +
             ", reference says " + (Expect ? "present" : "absent"));
  }

  void checkpoint(Tracer &Tr, Samples &S, Result &R) {
    R.note("query_present_share",
           std::to_string(ratio(double(PresentQueries), double(Replies))));
    PairDigest Expect;
    {
      auto Sp = Tr.span("reference.reachability");
      Expect = Ref.digest();
    }

    // A scan of Out through the protocol.
    {
      int64_t Id = NextId++;
      Json Req = request("query", Id);
      Req.set("pred", Json::str("Out"));
      std::string Reply;
      {
        auto Sp = Tr.span("server.handle_line", Id);
        Reply = Srv->handleLine(writeJson(Req));
      }
      ++R.Attempted;
      auto Ck = Tr.span("harness.check");
      PairDigest Got;
      std::optional<Json> J = okReply(Reply);
      const Json *Rows = J ? J->get("rows") : nullptr;
      for (size_t I = 0; Rows && I < Rows->Arr.size(); ++I) {
        const Json &Row = Rows->Arr[I];
        if (Row.Arr.size() == 3 && Row.Arr[2].isStr() &&
            Row.Arr[2].Str == "R.Reach")
          Got.add(Row.Arr[0].Int, Row.Arr[1].Int);
      }
      if (!(Got == Expect))
        R.fail("scan of Out differs from the reference");
    }

    // A fresh Solver over the current fact set.
    {
      Instance Fresh;
      int Build = Tr.begin("harness.program");
      if (!Fresh.C.compile(RulesSource, "rules.flix"))
        fatal("rules failed to compile:\n" + Fresh.C.diagnostics());
      for (RelKind K : {EdgeRel, GenRel, KillRel})
        for (auto [A, B] : Stream.present(K)) {
          Value Row[2] = {Fresh.F.integer(A), Fresh.F.integer(B)};
          Fresh.C.addFact(RelNames[K], Row);
        }
      Tr.end(Build);
      PredId Out = *Fresh.C.predicate("Out");
      double W0 = now(), C0 = cpuNow();
      int Sp = Tr.begin("fixpoint.solve");
      solveWith(Fresh.C.program(), SolverOptions(),
                [&](const auto &Sv, const SolveStats &St) {
                  Tr.end(Sp);
                  S.SolveCpu.add((cpuNow() - C0) * 1e3);
                  S.Solve.add((now() - W0) * 1e3);
                  if (!HaveFirstSolve) {
                    FirstSolve = St;
                    HaveFirstSolve = true;
                  }
                  ++R.Attempted;
                  auto Ck = Tr.span("harness.check");
                  if (!St.ok() || Fresh.C.interp().hasError() ||
                      St.InterpFallbacks ||
                      !(digestTable(Fresh.F, Sv.table(Out)) == Expect))
                    R.fail("fresh solve differs from the reference");
                  return 0;
                });
    }

    // The stats verb: no fallbacks, and nothing coalesced with one caller.
    {
      int64_t Id = NextId++;
      std::string Reply;
      {
        auto Sp = Tr.span("server.handle_line", Id);
        Reply = Srv->handleLine(writeJson(request("stats", Id)));
      }
      ++R.Attempted;
      std::optional<Json> J = okReply(Reply);
      const Json *Db = J ? J->get("db") : nullptr;
      LastCoalesced = intField(Db, "coalesced_requests");
      if (intField(Db, "negation_fallbacks") != 0 ||
          intField(Db, "interp_fallbacks") != 0 || LastCoalesced != 0)
        R.fail("stats: fallbacks or coalescing in " + Reply.substr(0, 300));
    }
  }

  /// The traced run's replica of the write path: decodeRequest, a Session
  /// the benchmark owns, and a standalone IncrementalSolver over \p Inst
  /// replaying the first Replay mutations of the same stream.
  void replayWritePath(Result &R, Instance &Inst, Tracer &Tr) {
    IncrementalSolver IS(Inst.C.program(), SolverOptions());
    UpdateStats Initial;
    {
      auto Sp = Tr.span("incremental.initial_solve");
      Initial = IS.update();
    }
    R.add("incremental.initial_solve_ms", Initial.Seconds * 1e3, "ms");
    Session Sess("replica", Session::Options());
    {
      ErrCode Code = ErrCode::CompileError;
      std::string Err;
      auto Sp = Tr.span("server.session_load");
      if (!Sess.load(Source, Deadline(), Code, Err))
        fatal("replica session failed to load: " + Err);
    }
    PredId Preds[3] = {*Inst.C.predicate("Edge"), *Inst.C.predicate("Gen"),
                       *Inst.C.predicate("Kill")};
    Churn Again(Icfg, Seed);
    std::vector<double> DecodeMutUs, DecodeQueryUs, ApplyMs, QueryUs;
    UpdateCounts Counts;
    for (size_t I = 0; I < Replay; ++I) {
      Mutation M = Again.next();
      std::string Line = mutationLine(M, int64_t(I));
      ErrCode Code = ErrCode::BadRequest;
      std::string Err;
      std::optional<Request> Req;
      double T0 = now();
      {
        auto Sp = Tr.span("server.decode", int64_t(I));
        Req = decodeRequest(Line, Code, Err);
      }
      DecodeMutUs.push_back((now() - T0) * 1e6);
      ++R.Attempted;
      if (!Req) {
        R.fail("replica: decodeRequest rejected " + Line + ": " + Err);
        continue;
      }
      Session::ApplyResult Applied;
      T0 = now();
      {
        auto Sp = Tr.span("server.apply", int64_t(I));
        Applied = Sess.applyFacts(RelNames[M.Rel], *Req->Raw.get("rows"),
                                  M.Retract, Deadline());
      }
      ApplyMs.push_back((now() - T0) * 1e3);
      if (!Applied.Ok)
        R.fail("replica: applyFacts failed: " + Applied.Error);

      Value Row[2] = {Inst.F.integer(M.Row.first),
                      Inst.F.integer(M.Row.second)};
      if (M.Retract)
        IS.retractFact(Preds[M.Rel], Row);
      else
        IS.addFact(Preds[M.Rel], Row);
      UpdateStats U;
      {
        auto Sp = Tr.span("incremental.update", int64_t(I));
        U = IS.update();
      }
      Counts.record(U);
      ++R.Attempted;
      if (!U.ok() || U.NegationFallbacks || U.InterpFallbacks)
        R.fail("replica: standalone update failed");

      std::string QLine = queryLine(M.Row, int64_t(I));
      T0 = now();
      {
        auto Sp = Tr.span("server.decode", int64_t(I));
        Req = decodeRequest(QLine, Code, Err);
      }
      DecodeQueryUs.push_back((now() - T0) * 1e6);
      ++R.Attempted;
      if (!Req) {
        R.fail("replica: decodeRequest rejected " + QLine + ": " + Err);
        continue;
      }
      Session::QueryReply Q;
      T0 = now();
      {
        auto Sp = Tr.span("server.query", int64_t(I));
        Q = Sess.query("Out", Req->Raw.get("key"), 0);
      }
      QueryUs.push_back((now() - T0) * 1e6);
      if (!Q.Ok)
        R.fail("replica: query failed: " + Q.Error);
    }
    // The standalone solver must end on the replayed stream's reference.
    Reachability Check(Icfg.NumNodes, Icfg.NumFacts);
    Check.reset(Again);
    ++R.Attempted;
    if (!(digestTable(Inst.F, IS.table(*Inst.C.predicate("Out"))) ==
          Check.digest()))
      R.fail("replica: standalone solver differs from the reference");

    Counts.report(R);
    R.add("server.decode_us.mutation", median(DecodeMutUs), "us",
          DecodeMutUs.size());
    R.add("server.decode_us.query", median(DecodeQueryUs), "us",
          DecodeQueryUs.size());
    R.add("server.apply_ms", median(ApplyMs), "ms", ApplyMs.size());
    R.add("server.commit_overhead_ms", median(ApplyMs) - median(Counts.Ms),
          "ms", ApplyMs.size());
    R.add("server.changed_preds",
          ratio(double(Counts.ChangedPreds), Counts.counted()), "count");
    R.add("server.query_us", median(QueryUs), "us", QueryUs.size());

    Value Bot = Inst.F.tag("R.Bot"), Reach = Inst.F.tag("R.Reach");
    std::vector<std::vector<Value>> Pairs = {
        {Bot, Bot}, {Bot, Reach}, {Reach, Bot}, {Reach, Reach}};
    double Ns = vmNsPerCall(Inst.C, {{"leq", Pairs},
                                     {"lub", Pairs},
                                     {"step", {{Bot}, {Reach}}}});
    R.add("vm.ns_per_call", Ns, "ns");
    double VmCallsPerUpdate = ratio(double(Counts.VmCalls), Counts.counted());
    R.add("vm.share",
          ratio(VmCallsPerUpdate * Ns * 1e-6, median(Counts.Ms)), "ratio");
  }

  IcfgProgram Icfg;
  uint64_t Seed;
  uint64_t Setups = 0; ///< set-ups so far; the first stream uses Seed
  size_t Replay; ///< mutations the traced run's replica replays
  Churn Stream;
  Reachability Ref;
  std::mt19937_64 QRng;
  std::string Source, LoadLine;
  std::unique_ptr<Server> Srv;
  int64_t NextId = 1;
  uint64_t Mutations = 0;
  double ReplyBytes = 0;
  size_t Replies = 0; ///< point queries sent
  size_t PresentQueries = 0; ///< of which the reference holds
  int64_t LastCoalesced = 0;
  SolveStats FirstSolve;
  bool HaveFirstSolve = false;
};

} // namespace

Result runServeChurn(const RunConfig &C) {
  return runWorkload<ServeWorkload>(C, /*SetupEvery=*/2000);
}

} // namespace perfbench
