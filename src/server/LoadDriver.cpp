//===- server/LoadDriver.cpp - Concurrent flixd load driver ---------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "server/LoadDriver.h"

#include "server/Client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace flix;
using namespace flix::server;

const char *flix::server::benchProgramSource() {
  return R"flix(
def leq(e1: Int, e2: Int): Bool = e1 >= e2
def lub(e1: Int, e2: Int): Int = if (e1 <= e2) e1 else e2
def glb(e1: Int, e2: Int): Int = if (e1 >= e2) e1 else e2
let Int<> = (99999999, 0, leq, lub, glb);

rel Edge(x: Int, y: Int, c: Int);
lat Dist(x: Int, Int<>);

Dist(0, 0).
Dist(y, d + c) :- Dist(x, d), Edge(x, y, c).
)flix";
}

namespace {

/// xorshift64* — deterministic, cheap, and good enough to spread keys.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed ? Seed : 0x9e3779b97f4a7c15ULL) {}
  uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545F4914F6CDD1DULL;
  }
  uint64_t below(uint64_t N) { return next() % N; }
};

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

struct WorkerStats {
  uint64_t Mutations = 0;
  uint64_t Queries = 0;
  uint64_t Rows = 0;
  uint64_t Errors = 0;
  uint64_t DeadlineExceeded = 0;
  uint64_t Overloaded = 0;
  std::vector<double> MutationMs;
  std::vector<double> QueryMs;
  std::string FirstError;
};

bool connectClient(const LoadOptions &O, Client &C, std::string &Err) {
  if (!O.UnixPath.empty())
    return C.connectUnix(O.UnixPath, Err);
  return C.connectTcp(O.Host, O.Port, Err);
}

/// One edge row within the bounded random graph. Edges always point
/// "forward" (x < y) with node 0 as the source, so every added edge can
/// extend shortest paths and every retract can shrink them.
Json edgeRow(Rng &R, unsigned KeySpace) {
  uint64_t X = R.below(KeySpace - 1);
  uint64_t Y = X + 1 + R.below(KeySpace - X - 1);
  uint64_t C = 1 + R.below(9);
  Json Row = Json::array();
  Row.Arr.push_back(Json::integer(int64_t(X)));
  Row.Arr.push_back(Json::integer(int64_t(Y)));
  Row.Arr.push_back(Json::integer(int64_t(C)));
  return Row;
}

void workerMain(const LoadOptions &O, unsigned Id,
                std::atomic<bool> &StopFlag, WorkerStats &WS) {
  Client C;
  std::string Err;
  if (!connectClient(O, C, Err)) {
    WS.FirstError = Err;
    ++WS.Errors;
    return;
  }
  // Distinct streams per worker; the retract stream replays the add
  // stream one step behind, so every retracted row was added earlier by
  // this same worker and the graph stays bounded.
  Rng AddRng(O.Seed * 1000003 + Id);
  Rng RetractRng(O.Seed * 1000003 + Id);
  Rng MixRng(O.Seed * 7919 + Id + 1);
  uint64_t PendingAdds = 0;

  while (!StopFlag.load(std::memory_order_acquire)) {
    bool DoQuery =
        double(MixRng.below(1u << 20)) / double(1u << 20) < O.QueryRatio;
    Json Req = Json::object();
    if (O.DeadlineMs > 0)
      Req.set("deadline_ms", Json::number(O.DeadlineMs));
    bool IsMutation = !DoQuery;
    if (DoQuery) {
      Req.set("op", Json::str("query"));
      Req.set("db", Json::str(O.Db));
      Req.set("pred", Json::str("Dist"));
      Json Key = Json::array();
      Key.Arr.push_back(Json::integer(int64_t(MixRng.below(O.KeySpace))));
      Req.set("key", std::move(Key));
    } else {
      // Alternate adds and retracts once enough adds are in flight;
      // the retract stream lags the add stream, keeping total edges
      // roughly KeySpace-proportional.
      bool Retract = PendingAdds > O.KeySpace && MixRng.below(2) == 0;
      Rng &Stream = Retract ? RetractRng : AddRng;
      Json Rows = Json::array();
      for (unsigned I = 0; I < O.RowsPerRequest; ++I)
        Rows.Arr.push_back(edgeRow(Stream, O.KeySpace));
      if (Retract)
        PendingAdds -= O.RowsPerRequest;
      else
        PendingAdds += O.RowsPerRequest;
      Req.set("op",
              Json::str(Retract ? "retract_facts" : "add_facts"));
      Req.set("db", Json::str(O.Db));
      Req.set("pred", Json::str("Edge"));
      Req.set("rows", std::move(Rows));
    }

    Clock::time_point T0 = Clock::now();
    Json Reply;
    if (!C.call(Req, Reply, Err)) {
      if (WS.FirstError.empty())
        WS.FirstError = Err;
      ++WS.Errors;
      return; // transport broken; stop this worker
    }
    double Ms = msSince(T0);
    const Json *Ok = Reply.get("ok");
    if (!Ok || !Ok->isBool() || !Ok->B) {
      const Json *CodeJ = Reply.get("code");
      std::string Code = CodeJ && CodeJ->isStr() ? CodeJ->Str : "";
      if (Code == "deadline_exceeded")
        ++WS.DeadlineExceeded;
      else if (Code == "overloaded")
        ++WS.Overloaded;
      else {
        ++WS.Errors;
        if (WS.FirstError.empty()) {
          const Json *ErrJ = Reply.get("error");
          WS.FirstError =
              Code + ": " +
              (ErrJ && ErrJ->isStr() ? ErrJ->Str : std::string("?"));
        }
      }
      continue;
    }
    if (IsMutation) {
      ++WS.Mutations;
      WS.Rows += O.RowsPerRequest;
      WS.MutationMs.push_back(Ms);
    } else {
      ++WS.Queries;
      WS.QueryMs.push_back(Ms);
    }
  }
}

double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  size_t Idx = size_t(P * double(V.size() - 1));
  std::nth_element(V.begin(), V.begin() + Idx, V.end());
  return V[Idx];
}

} // namespace

Json LoadReport::toJson() const {
  Json J = Json::object();
  J.set("ok", Json::boolean(Ok));
  if (!Ok)
    J.set("error", Json::str(Error));
  J.set("clients", Json::integer(int64_t(Clients)));
  J.set("seconds", Json::number(Seconds));
  J.set("mutation_requests", Json::integer(int64_t(MutationRequests)));
  J.set("query_requests", Json::integer(int64_t(QueryRequests)));
  J.set("rows_sent", Json::integer(int64_t(RowsSent)));
  J.set("errors", Json::integer(int64_t(Errors)));
  J.set("deadline_exceeded", Json::integer(int64_t(DeadlineExceeded)));
  J.set("overloaded", Json::integer(int64_t(Overloaded)));
  J.set("update_batches", Json::integer(int64_t(UpdateBatches)));
  J.set("coalesced_requests",
        Json::integer(int64_t(CoalescedRequests)));
  forEachStat(Engine, [&](const StatInfo &I, auto V) {
    if (I.Kind == StatKind::Gauge)
      J.set(I.Key, Json::integer(int64_t(V)));
  });
  J.set("final_generation", Json::integer(int64_t(FinalGeneration)));
  J.set("mutations_per_sec", Json::number(MutationsPerSec));
  J.set("rows_per_sec", Json::number(RowsPerSec));
  J.set("queries_per_sec", Json::number(QueriesPerSec));
  J.set("mutation_p50_ms", Json::number(MutationP50Ms));
  J.set("mutation_p99_ms", Json::number(MutationP99Ms));
  J.set("query_p50_ms", Json::number(QueryP50Ms));
  J.set("query_p99_ms", Json::number(QueryP99Ms));
  return J;
}

LoadReport flix::server::runLoad(const LoadOptions &O) {
  LoadReport Rep;
  Rep.Clients = O.Clients;

  Client Ctl;
  std::string Err;
  if (!connectClient(O, Ctl, Err)) {
    Rep.Error = "control connection: " + Err;
    return Rep;
  }
  if (O.LoadProgram) {
    Json Req = Json::object();
    Req.set("op", Json::str("load_program"));
    Req.set("db", Json::str(O.Db));
    Req.set("source", Json::str(benchProgramSource()));
    Req.set("replace", Json::boolean(true));
    Json Reply;
    if (!Ctl.call(Req, Reply, Err)) {
      Rep.Error = "load_program: " + Err;
      return Rep;
    }
    const Json *Ok = Reply.get("ok");
    if (!Ok || !Ok->isBool() || !Ok->B) {
      const Json *ErrJ = Reply.get("error");
      Rep.Error = "load_program rejected: " +
                  (ErrJ && ErrJ->isStr() ? ErrJ->Str : std::string("?"));
      return Rep;
    }
  }

  std::atomic<bool> StopFlag{false};
  std::vector<WorkerStats> Stats(O.Clients);
  std::vector<std::thread> Threads;
  Threads.reserve(O.Clients);
  Clock::time_point T0 = Clock::now();
  for (unsigned I = 0; I < O.Clients; ++I)
    Threads.emplace_back(workerMain, std::cref(O), I, std::ref(StopFlag),
                         std::ref(Stats[I]));
  std::this_thread::sleep_for(std::chrono::duration<double>(O.Seconds));
  StopFlag.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  Rep.Seconds =
      std::chrono::duration<double>(Clock::now() - T0).count();

  std::vector<double> MutMs, QryMs;
  for (WorkerStats &WS : Stats) {
    Rep.MutationRequests += WS.Mutations;
    Rep.QueryRequests += WS.Queries;
    Rep.RowsSent += WS.Rows;
    Rep.Errors += WS.Errors;
    Rep.DeadlineExceeded += WS.DeadlineExceeded;
    Rep.Overloaded += WS.Overloaded;
    MutMs.insert(MutMs.end(), WS.MutationMs.begin(), WS.MutationMs.end());
    QryMs.insert(QryMs.end(), WS.QueryMs.begin(), WS.QueryMs.end());
    if (Rep.Error.empty() && !WS.FirstError.empty())
      Rep.Error = WS.FirstError;
  }
  if (Rep.Seconds > 0) {
    Rep.MutationsPerSec = double(Rep.MutationRequests) / Rep.Seconds;
    Rep.RowsPerSec = double(Rep.RowsSent) / Rep.Seconds;
    Rep.QueriesPerSec = double(Rep.QueryRequests) / Rep.Seconds;
  }
  Rep.MutationP50Ms = percentile(MutMs, 0.50);
  Rep.MutationP99Ms = percentile(MutMs, 0.99);
  Rep.QueryP50Ms = percentile(QryMs, 0.50);
  Rep.QueryP99Ms = percentile(QryMs, 0.99);

  // Final server-side stats: coalescing and every registry row.
  {
    Json Req = Json::object();
    Req.set("op", Json::str("stats"));
    Req.set("db", Json::str(O.Db));
    Json Reply;
    if (Ctl.call(Req, Reply, Err)) {
      if (const Json *DbJ = Reply.get("db")) {
        auto getInt = [&](const char *Name) -> uint64_t {
          const Json *J = DbJ->get(Name);
          return J && J->isInt() && J->Int >= 0 ? uint64_t(J->Int) : 0;
        };
        Rep.UpdateBatches = getInt("update_batches");
        Rep.CoalescedRequests = getInt("coalesced_requests");
        Rep.FinalGeneration = getInt("generation");
        forEachStat(Rep.Engine, [&](const StatInfo &I, auto &V) {
          using T = std::remove_reference_t<decltype(V)>;
          if (const Json *J = DbJ->get(I.Key); J && J->isNum())
            V = J->isInt() ? T(J->Int) : T(J->Dbl);
        });
      }
    }
  }

  Rep.Ok = Rep.Error.empty();
  return Rep;
}
