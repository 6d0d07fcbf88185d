//===- tests/ServerProtocolTest.cpp - flixd server tests ------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// The server subsystem's test suite (DESIGN.md S14), in four layers:
//
//   1. JSON codec round-trips and strictness (truncated input, depth
//      bombs, int64 exactness, escape handling).
//   2. Request decoding: op mapping, id echo, deadline_ms semantics
//      (non-positive deadlines are expired on arrival).
//   3. handleLine() request-core behavior without sockets: structured
//      errors for malformed requests, compile errors, bad facts,
//      admission rejection, deadline-exceeded replies; load / mutate /
//      query / stats round-trips.
//   4. Loopback socket tests against a real listening server — framing,
//      oversized-line handling, shutdown — capped by the concurrency
//      test: 8 client threads mixing updates and queries, then a
//      differential check of the server's Dist lattice against a
//      from-scratch Solver::solve() on the server's own final Edge set
//      (the ISSUE's zero-divergence acceptance gate; run under TSan in
//      CI's server-smoke job).
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/LoadDriver.h"
#include "server/Server.h"

#include "fixpoint/Solver.h"
#include "lang/Compiler.h"

#include "gtest/gtest.h"

#include <map>
#include <random>
#include <set>
#include <thread>

using namespace flix;
using namespace flix::server;

//===----------------------------------------------------------------------===//
// 1. JSON codec
//===----------------------------------------------------------------------===//

namespace {

Json parseOk(const std::string &Text) {
  Json J;
  std::string Err;
  EXPECT_TRUE(parseJson(Text, J, Err)) << Text << ": " << Err;
  return J;
}

std::string parseErr(const std::string &Text) {
  Json J;
  std::string Err;
  EXPECT_FALSE(parseJson(Text, J, Err)) << Text;
  return Err;
}

} // namespace

TEST(ServerJson, ScalarRoundTrips) {
  EXPECT_EQ(writeJson(parseOk("null")), "null");
  EXPECT_EQ(writeJson(parseOk("true")), "true");
  EXPECT_EQ(writeJson(parseOk("false")), "false");
  EXPECT_EQ(writeJson(parseOk("0")), "0");
  EXPECT_EQ(writeJson(parseOk("-42")), "-42");
  EXPECT_EQ(writeJson(parseOk("\"hi\"")), "\"hi\"");
  EXPECT_EQ(writeJson(parseOk("[1,2,3]")), "[1,2,3]");
  EXPECT_EQ(writeJson(parseOk("{\"a\":1,\"b\":[true,null]}")),
            "{\"a\":1,\"b\":[true,null]}");
}

TEST(ServerJson, Int64Exact) {
  Json J = parseOk("9223372036854775807");
  ASSERT_TRUE(J.isInt());
  EXPECT_EQ(J.Int, INT64_MAX);
  EXPECT_EQ(writeJson(J), "9223372036854775807");
  J = parseOk("-9223372036854775808");
  ASSERT_TRUE(J.isInt());
  EXPECT_EQ(J.Int, INT64_MIN);
  // Beyond int64: still a number, degraded to double.
  J = parseOk("99223372036854775807");
  EXPECT_FALSE(J.isInt());
  EXPECT_TRUE(J.isNum());
}

TEST(ServerJson, StringEscapes) {
  Json J = parseOk(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(J.isStr());
  EXPECT_EQ(J.Str, "a\"b\\c\nd\teA");
  // Control characters are escaped on the way out.
  EXPECT_EQ(writeJson(Json::str("x\ny\x01")), "\"x\\ny\\u0001\"");
  // Non-ASCII \u escapes become UTF-8.
  EXPECT_EQ(parseOk(R"("é")").Str, "\xc3\xa9");
}

TEST(ServerJson, ObjectOrderPreservedAndGet) {
  Json J = parseOk("{\"z\":1,\"a\":2}");
  ASSERT_TRUE(J.isObj());
  EXPECT_EQ(J.Obj[0].first, "z");
  ASSERT_NE(J.get("a"), nullptr);
  EXPECT_EQ(J.get("a")->Int, 2);
  EXPECT_EQ(J.get("missing"), nullptr);
}

TEST(ServerJson, RejectsMalformed) {
  EXPECT_NE(parseErr(""), "");
  EXPECT_NE(parseErr("{\"op\": \"pi"), ""); // truncated string
  EXPECT_NE(parseErr("{\"op\": }"), "");
  EXPECT_NE(parseErr("[1, 2"), "");
  EXPECT_NE(parseErr("1 2"), "");          // trailing garbage
  EXPECT_NE(parseErr("{\"a\":1,}"), "");
  EXPECT_NE(parseErr("\"raw\x01control\""), "");
  EXPECT_NE(parseErr("nulll"), "");
}

TEST(ServerJson, DepthBombRejected) {
  std::string Bomb(5000, '[');
  std::string Err = parseErr(Bomb);
  EXPECT_NE(Err.find("nesting"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// 2. Request decoding
//===----------------------------------------------------------------------===//

TEST(ServerProtocol, DecodesOps) {
  ErrCode Code;
  std::string Err;
  auto R = decodeRequest("{\"op\":\"ping\",\"id\":7}", Code, Err);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->Operation, Op::Ping);
  ASSERT_TRUE(R->Id.isInt());
  EXPECT_EQ(R->Id.Int, 7);
  EXPECT_FALSE(R->DL.active());
}

TEST(ServerProtocol, UnknownAndMissingOp) {
  ErrCode Code;
  std::string Err;
  EXPECT_FALSE(decodeRequest("{\"op\":\"fly\"}", Code, Err).has_value());
  EXPECT_EQ(Code, ErrCode::UnknownOp);
  EXPECT_FALSE(decodeRequest("{\"id\":1}", Code, Err).has_value());
  EXPECT_EQ(Code, ErrCode::BadRequest);
  EXPECT_FALSE(decodeRequest("[1,2]", Code, Err).has_value());
  EXPECT_EQ(Code, ErrCode::BadRequest);
  EXPECT_FALSE(decodeRequest("{\"op\"", Code, Err).has_value());
  EXPECT_EQ(Code, ErrCode::ParseError);
}

TEST(ServerProtocol, NonPositiveDeadlineExpiresOnArrival) {
  ErrCode Code;
  std::string Err;
  auto R =
      decodeRequest("{\"op\":\"query\",\"deadline_ms\":0}", Code, Err);
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(R->DL.active());
  EXPECT_TRUE(R->DL.expired());
  R = decodeRequest("{\"op\":\"query\",\"deadline_ms\":-5}", Code, Err);
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(R->DL.expired());
  // A generous deadline is active but pending.
  R = decodeRequest("{\"op\":\"query\",\"deadline_ms\":60000}", Code,
                    Err);
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(R->DL.active());
  EXPECT_FALSE(R->DL.expired());
}

//===----------------------------------------------------------------------===//
// 3. handleLine request core (no sockets)
//===----------------------------------------------------------------------===//

namespace {

/// Sends one request line through the core and parses the reply.
Json roundTrip(Server &S, const std::string &Line) {
  return parseOk(S.handleLine(Line));
}

bool replyOk(const Json &Reply) {
  const Json *Ok = Reply.get("ok");
  return Ok && Ok->isBool() && Ok->B;
}

std::string replyCode(const Json &Reply) {
  const Json *Code = Reply.get("code");
  return Code && Code->isStr() ? Code->Str : "";
}

const char *kPathProgram = R"(
rel Edge(x: Int, y: Int);
rel Path(x: Int, y: Int);
Path(x, y) :- Edge(x, y).
Path(x, z) :- Path(x, y), Edge(y, z).
Edge(1, 2).
Edge(2, 3).
)";

std::string loadLine(const std::string &Db, const char *Source) {
  Json Req = Json::object();
  Req.set("op", Json::str("load_program"));
  Req.set("db", Json::str(Db));
  Req.set("source", Json::str(Source));
  return writeJson(Req);
}

} // namespace

TEST(ServerCore, MalformedAndUnknownRequests) {
  Server S(ServerOptions{});
  Json R = roundTrip(S, "{\"op\": \"pi");
  EXPECT_FALSE(replyOk(R));
  EXPECT_EQ(replyCode(R), "parse_error");

  R = roundTrip(S, "{\"op\":\"conjure\",\"id\":9}");
  EXPECT_FALSE(replyOk(R));
  EXPECT_EQ(replyCode(R), "unknown_op");
  ASSERT_NE(R.get("id"), nullptr); // id echoed even on errors
  EXPECT_EQ(R.get("id")->Int, 9);

  R = roundTrip(S, "42");
  EXPECT_EQ(replyCode(R), "bad_request");
}

TEST(ServerCore, OversizedLine) {
  ServerOptions O;
  O.MaxLineBytes = 64;
  Server S(O);
  std::string Long = "{\"op\":\"ping\",\"pad\":\"" +
                     std::string(200, 'x') + "\"}";
  Json R = roundTrip(S, Long);
  EXPECT_FALSE(replyOk(R));
  EXPECT_EQ(replyCode(R), "line_too_long");
}

TEST(ServerCore, LoadQueryMutateRoundTrip) {
  Server S(ServerOptions{});
  Json R = roundTrip(S, loadLine("g", kPathProgram));
  ASSERT_TRUE(replyOk(R)) << writeJson(R);

  // Scan: transitive closure of the two seeded edges.
  R = roundTrip(S, "{\"op\":\"query\",\"db\":\"g\",\"pred\":\"Path\"}");
  ASSERT_TRUE(replyOk(R)) << writeJson(R);
  ASSERT_NE(R.get("count"), nullptr);
  EXPECT_EQ(R.get("count")->Int, 3);
  EXPECT_EQ(R.get("generation")->Int, 1);

  // Point lookup on a relational predicate: found flag, no value field.
  R = roundTrip(
      S,
      "{\"op\":\"query\",\"db\":\"g\",\"pred\":\"Path\",\"key\":[1,3]}");
  ASSERT_TRUE(replyOk(R));
  EXPECT_TRUE(R.get("found")->B);
  EXPECT_EQ(R.get("value"), nullptr);

  // Extend the graph; the closure must grow through the new edge.
  R = roundTrip(S, "{\"op\":\"add_facts\",\"db\":\"g\",\"pred\":"
                   "\"Edge\",\"rows\":[[3,4]]}");
  ASSERT_TRUE(replyOk(R)) << writeJson(R);
  EXPECT_EQ(R.get("generation")->Int, 2);
  R = roundTrip(
      S,
      "{\"op\":\"query\",\"db\":\"g\",\"pred\":\"Path\",\"key\":[1,4]}");
  EXPECT_TRUE(R.get("found")->B);

  // Retract it again; the derived rows must disappear.
  R = roundTrip(S, "{\"op\":\"retract_facts\",\"db\":\"g\",\"pred\":"
                   "\"Edge\",\"rows\":[[3,4]]}");
  ASSERT_TRUE(replyOk(R));
  R = roundTrip(
      S,
      "{\"op\":\"query\",\"db\":\"g\",\"pred\":\"Path\",\"key\":[1,4]}");
  EXPECT_FALSE(R.get("found")->B);

  // Limit caps a scan.
  R = roundTrip(
      S,
      "{\"op\":\"query\",\"db\":\"g\",\"pred\":\"Path\",\"limit\":1}");
  EXPECT_EQ(R.get("rows")->Arr.size(), 1u);
  EXPECT_EQ(R.get("count")->Int, 3);
}

TEST(ServerCore, LatticeQueryCarriesValue) {
  Server S(ServerOptions{});
  ASSERT_TRUE(replyOk(roundTrip(S, loadLine("sp", benchProgramSource()))));
  Json R = roundTrip(S, "{\"op\":\"add_facts\",\"db\":\"sp\",\"pred\":"
                        "\"Edge\",\"rows\":[[0,1,4],[1,2,3]]}");
  ASSERT_TRUE(replyOk(R)) << writeJson(R);
  R = roundTrip(
      S,
      "{\"op\":\"query\",\"db\":\"sp\",\"pred\":\"Dist\",\"key\":[2]}");
  ASSERT_TRUE(replyOk(R));
  ASSERT_TRUE(R.get("found")->B);
  EXPECT_EQ(R.get("value")->Int, 7);
}

TEST(ServerCore, StructuredErrors) {
  Server S(ServerOptions{});
  // No database yet.
  Json R =
      roundTrip(S, "{\"op\":\"query\",\"db\":\"g\",\"pred\":\"Path\"}");
  EXPECT_EQ(replyCode(R), "no_such_db");

  // Compile errors carry diagnostics.
  R = roundTrip(S, loadLine("bad", "rel Edge(x: Int"));
  EXPECT_EQ(replyCode(R), "compile_error");
  EXPECT_NE(R.get("error")->Str, "");

  ASSERT_TRUE(replyOk(roundTrip(S, loadLine("g", kPathProgram))));

  // Duplicate load without replace.
  R = roundTrip(S, loadLine("g", kPathProgram));
  EXPECT_EQ(replyCode(R), "db_exists");

  // Unknown predicate.
  R = roundTrip(S, "{\"op\":\"query\",\"db\":\"g\",\"pred\":\"Nope\"}");
  EXPECT_EQ(replyCode(R), "no_such_pred");

  // Bad fact shapes: wrong arity, wrong column type.
  R = roundTrip(S, "{\"op\":\"add_facts\",\"db\":\"g\",\"pred\":"
                   "\"Edge\",\"rows\":[[1]]}");
  EXPECT_EQ(replyCode(R), "bad_fact");
  R = roundTrip(S, "{\"op\":\"add_facts\",\"db\":\"g\",\"pred\":"
                   "\"Edge\",\"rows\":[[1,\"two\"]]}");
  EXPECT_EQ(replyCode(R), "bad_fact");
  R = roundTrip(S, "{\"op\":\"add_facts\",\"db\":\"g\",\"pred\":"
                   "\"Edge\",\"rows\":7}");
  EXPECT_EQ(replyCode(R), "bad_request");

  // Bad key shape on query.
  R = roundTrip(
      S, "{\"op\":\"query\",\"db\":\"g\",\"pred\":\"Path\",\"key\":[1]}");
  EXPECT_EQ(replyCode(R), "bad_request");
}

TEST(ServerCore, DeadlineExpiredOnArrival) {
  Server S(ServerOptions{});
  ASSERT_TRUE(replyOk(roundTrip(S, loadLine("g", kPathProgram))));
  Json R = roundTrip(S, "{\"op\":\"query\",\"db\":\"g\",\"pred\":"
                        "\"Path\",\"deadline_ms\":0,\"id\":3}");
  EXPECT_FALSE(replyOk(R));
  EXPECT_EQ(replyCode(R), "deadline_exceeded");
  EXPECT_EQ(R.get("id")->Int, 3);
}

TEST(ServerCore, AdmissionRejectsStagedRowsBeyondBound) {
  ServerOptions O;
  O.MaxPendingFactsPerDb = 4;
  Server S(O);
  ASSERT_TRUE(replyOk(roundTrip(S, loadLine("g", kPathProgram))));
  Json R = roundTrip(S, "{\"op\":\"add_facts\",\"db\":\"g\",\"pred\":"
                        "\"Edge\",\"rows\":[[1,2],[2,3],[3,4],[4,5],"
                        "[5,6]]}");
  EXPECT_FALSE(replyOk(R));
  EXPECT_EQ(replyCode(R), "overloaded");
  // Within the bound passes.
  R = roundTrip(S, "{\"op\":\"add_facts\",\"db\":\"g\",\"pred\":"
                   "\"Edge\",\"rows\":[[3,4]]}");
  EXPECT_TRUE(replyOk(R)) << writeJson(R);
}

TEST(ServerCore, AdmissionRejectsInflightBeyondBound) {
  ServerOptions O;
  O.MaxInflight = 0; // degenerate: every governed request is overload
  Server S(O);
  Json R = roundTrip(S, "{\"op\":\"list_dbs\"}");
  EXPECT_EQ(replyCode(R), "overloaded");
  // Ping is exempt so health checks still answer.
  EXPECT_TRUE(replyOk(roundTrip(S, "{\"op\":\"ping\"}")));
}

TEST(ServerCore, StatsListAndDrop) {
  Server S(ServerOptions{});
  ASSERT_TRUE(replyOk(roundTrip(S, loadLine("g", kPathProgram))));
  ASSERT_TRUE(replyOk(roundTrip(
      S, "{\"op\":\"add_facts\",\"db\":\"g\",\"pred\":\"Edge\","
         "\"rows\":[[5,6]]}")));

  Json R = roundTrip(S, "{\"op\":\"stats\",\"db\":\"g\"}");
  ASSERT_TRUE(replyOk(R)) << writeJson(R);
  const Json *Db = R.get("db");
  ASSERT_NE(Db, nullptr);
  EXPECT_EQ(Db->get("generation")->Int, 2);
  EXPECT_EQ(Db->get("mutation_requests")->Int, 1);
  EXPECT_EQ(Db->get("update_batches")->Int, 2); // initial solve + batch
  ASSERT_NE(Db->get("negation_fallbacks"), nullptr);
  EXPECT_EQ(Db->get("negation_fallbacks")->Int, 0);
  ASSERT_NE(Db->get("degraded_recoveries"), nullptr);
  EXPECT_EQ(Db->get("degraded_recoveries")->Int, 0);

  // Global stats: server block plus one entry per db.
  R = roundTrip(S, "{\"op\":\"stats\"}");
  ASSERT_TRUE(replyOk(R));
  ASSERT_NE(R.get("server"), nullptr);
  EXPECT_GE(R.get("server")->get("requests_total")->Int, 3);
  EXPECT_EQ(R.get("dbs")->Arr.size(), 1u);

  R = roundTrip(S, "{\"op\":\"list_dbs\"}");
  ASSERT_TRUE(replyOk(R));
  ASSERT_EQ(R.get("dbs")->Arr.size(), 1u);
  EXPECT_EQ(R.get("dbs")->Arr[0].Str, "g");

  ASSERT_TRUE(replyOk(roundTrip(S, "{\"op\":\"drop_db\",\"db\":\"g\"}")));
  R = roundTrip(S, "{\"op\":\"query\",\"db\":\"g\",\"pred\":\"Path\"}");
  EXPECT_EQ(replyCode(R), "no_such_db");
}

TEST(ServerProtocol, StatsBlockCarriesEveryRegistryKey) {
  // The db block renders the last update flat: every solve and update
  // counter of the stats registry (fixpoint/Stats.h), by its JSON key.
  Server S(ServerOptions{});
  ASSERT_TRUE(replyOk(roundTrip(S, loadLine("g", kPathProgram))));
  Json R = roundTrip(S, "{\"op\":\"stats\",\"db\":\"g\"}");
  ASSERT_TRUE(replyOk(R)) << writeJson(R);
  const Json *Db = R.get("db");
  ASSERT_NE(Db, nullptr);
  UpdateStats Rows;
  forEachStat(Rows, [&](const StatInfo &I, auto) {
    EXPECT_NE(Db->get(I.Key), nullptr) << I.Key;
  });
  EXPECT_NE(Db->get("full_resolve"), nullptr);
}

TEST(ServerCore, AbsentKeyQueriesInternNothing) {
  // Point queries look keys up without interning them — neither the key
  // tuple nor a string or enum column value the session never saw — so a
  // long stream of absent-key queries leaves the value arena unchanged.
  const char *Program = R"(
enum Color { case Red, case Green }
rel Edge(x: Int, y: Int);
rel Path(x: Int, y: Int);
rel Named(s: Str, x: Int);
rel Paint(c: Color, x: Int);
Path(x, y) :- Edge(x, y).
Path(x, z) :- Path(x, y), Edge(y, z).
Edge(1, 2).
Edge(2, 3).
Named("one", 1).
Paint(Color.Red, 1).
)";
  Server S(ServerOptions{});
  ASSERT_TRUE(replyOk(roundTrip(S, loadLine("m", Program))));
  auto query = [&](const std::string &Pred, const std::string &Key) {
    return roundTrip(S, "{\"op\":\"query\",\"db\":\"m\",\"pred\":\"" +
                            Pred + "\",\"key\":" + Key + "}");
  };
  auto arenaBytes = [&] {
    Json R = roundTrip(S, "{\"op\":\"stats\",\"db\":\"m\"}");
    const Json *B = R.get("db")->get("value_arena_bytes");
    EXPECT_NE(B, nullptr);
    return B ? B->Int : -1;
  };
  // Warm up: present keys of every column type.
  ASSERT_TRUE(query("Path", "[1,3]").get("found")->B);
  ASSERT_TRUE(query("Named", "[\"one\",1]").get("found")->B);
  ASSERT_TRUE(query("Paint", "[\"Color.Red\",1]").get("found")->B);

  int64_t Before = arenaBytes();
  for (int I = 0; I < 10000; ++I) {
    std::string N = std::to_string(I);
    std::string PathKey = "[";
    PathKey += std::to_string(1000 + I);
    PathKey += ",-";
    PathKey += N;
    PathKey += "]";
    Json R = query("Path", PathKey);
    ASSERT_TRUE(replyOk(R)) << writeJson(R);
    EXPECT_FALSE(R.get("found")->B);
    EXPECT_FALSE(query("Named", "[\"name" + N + "\",1]").get("found")->B);
    EXPECT_FALSE(query("Paint", "[\"Color.Hue" + N + "\",1]")
                     .get("found")
                     ->B);
  }
  EXPECT_EQ(arenaBytes(), Before);
  // A never-seen value of a known column still answers correctly.
  EXPECT_FALSE(query("Paint", "[\"Color.Green\",1]").get("found")->B);
}

namespace {

/// A shortest-paths program whose derived predicates read a `!`-negated
/// atom, plus a gate that, once opened, makes one batch run for seconds
/// (Heavy joins Spin with itself three times: 600^3 matched rows) — long
/// enough for a one-second per-batch time limit to cancel it, while every
/// other batch takes milliseconds.
const char *kChurnProgram = R"(
def leq(e1: Int, e2: Int): Bool = e1 >= e2
def lub(e1: Int, e2: Int): Int = if (e1 <= e2) e1 else e2
def glb(e1: Int, e2: Int): Int = if (e1 >= e2) e1 else e2
let Int<> = (99999999, 0, leq, lub, glb);

rel Edge(x: Int, y: Int, c: Int);
rel Blocked(x: Int);
rel Open(x: Int, y: Int);
lat Dist(x: Int, Int<>);
rel Gate(g: Int);
rel Spin(x: Int);
rel Heavy(x: Int);

Dist(0, 0).
Dist(y, d + c) :- Dist(x, d), Edge(x, y, c), !Blocked(y).
Open(x, y) :- Edge(x, y, c), !Blocked(x).
Heavy(x) :- Gate(g), Spin(x), Spin(y), Spin(z).
)";

/// Renders Int columns as the JSON array the wire uses for them.
std::string intRow(std::span<const Value> Cols) {
  Json J = Json::array();
  for (Value V : Cols)
    J.Arr.push_back(Json::integer(V.asInt()));
  return writeJson(J);
}

} // namespace

TEST(ServerCore, SnapshotsTrackChurnAcrossRebases) {
  // A published snapshot is a shared base plus an overlay of the rows
  // each update changed or over-deleted, re-based when the overlay
  // outgrows its bound. Under random add/retract churn, after every
  // commit: the snapshot reads exactly like a fresh capture of the live
  // table, point queries (present, deleted and never-seen keys) and scans
  // (with and without limit) answer the live table's rows, values, count
  // and order, and the model equals a from-scratch solve. One batch is
  // cancelled by the per-batch time limit; the next recovers with a full
  // solve, which renumbers every row.
  constexpr int Nodes = 40;
  std::string Source = kChurnProgram;
  for (int I = 0; I < 600; ++I)
    Source += "Spin(" + std::to_string(I) + ").\n";
  ServerOptions Opt;
  Opt.Solve.TimeLimitSeconds = 1.0;
  Server S(Opt);
  ASSERT_TRUE(replyOk(roundTrip(S, loadLine("c", Source.c_str()))));
  std::shared_ptr<Session> Sess = S.findDb("c");
  ASSERT_NE(Sess, nullptr);
  const Program &Prog = Sess->program();
  auto predId = [&](const char *Name) {
    std::optional<PredId> P = Prog.findPredicate(Name);
    EXPECT_TRUE(P.has_value()) << Name;
    return P.value_or(0);
  };

  std::set<std::array<int, 3>> Edges;
  std::set<int> Blocked;
  // Churn and probe sampling draw from separate streams, so the churn
  // does not depend on how far the cancelled batch got.
  std::mt19937_64 Rng(2027), ProbeRng(7);
  auto mutate = [&](const char *Op, const char *Pred,
                    const std::vector<std::vector<int>> &Rows) {
    Json Req = Json::object();
    Req.set("op", Json::str(Op));
    Req.set("db", Json::str("c"));
    Req.set("pred", Json::str(Pred));
    Json RowsJ = Json::array();
    for (const std::vector<int> &Row : Rows) {
      Json RowJ = Json::array();
      for (int V : Row)
        RowJ.Arr.push_back(Json::integer(V));
      RowsJ.Arr.push_back(std::move(RowJ));
    }
    Req.set("rows", std::move(RowsJ));
    return roundTrip(S, writeJson(Req));
  };
  auto query = [&](const std::string &Pred, const std::string *Key,
                   int64_t Limit) {
    std::string Line = "{\"op\":\"query\",\"db\":\"c\",\"pred\":\"" + Pred +
                       "\"";
    if (Key)
      Line += ",\"key\":" + *Key;
    if (Limit)
      Line += ",\"limit\":" + std::to_string(Limit);
    Json R = roundTrip(S, Line + "}");
    EXPECT_TRUE(replyOk(R)) << writeJson(R);
    return R;
  };

  // Keys ever served per predicate, so deleted cells keep being probed.
  std::map<std::string, std::set<std::string>> SeenKeys;
  auto checkSnapshot = [&](bool Fixpoint) {
    std::shared_ptr<const DbSnapshot> Snap = Sess->snapshot();
    uint64_t OverlayRows = 0;
    for (const auto &PS : Snap->Preds) {
      OverlayRows += PS->overlaySize();
      EXPECT_FALSE(PS->wantsRebase(0)) << "overlay beyond the re-base bound";
    }
    for (const char *Name : {"Edge", "Blocked", "Open", "Dist", "Heavy"}) {
      SCOPED_TRACE(Name);
      PredId Pid = predId(Name);
      const Table &T = Sess->solver().table(Pid);
      bool IsLat = !Prog.predicate(Pid).isRelational();

      // Structure: the published snapshot against a fresh capture.
      const PredSnapshot &Pub = *Snap->Preds[Pid];
      auto Fresh = PredSnapshot::capture(T);
      std::vector<std::pair<Value, Value>> PubRows, FreshRows;
      Pub.forEachLive([&](const Table::Row &R) {
        PubRows.emplace_back(R.Key, R.Lat);
        return true;
      });
      Fresh->forEachLive([&](const Table::Row &R) {
        FreshRows.emplace_back(R.Key, R.Lat);
        return true;
      });
      EXPECT_EQ(PubRows, FreshRows);
      EXPECT_EQ(Pub.liveCount(), Fresh->liveCount());

      // Wire: scans and point queries against the live table.
      std::vector<std::string> Expected;
      std::map<std::string, std::string> Live; ///< key -> value ("" rel)
      for (uint32_t Id = 0; Id < T.size(); ++Id) {
        if (T.isTombstone(Id))
          continue;
        std::string Key = intRow(T.rowKey(Id));
        std::vector<Value> Full(T.rowKey(Id).begin(), T.rowKey(Id).end());
        if (IsLat)
          Full.push_back(T.row(Id).Lat);
        Expected.push_back(intRow(Full));
        Live[Key] = IsLat ? writeJson(Json::integer(T.row(Id).Lat.asInt()))
                          : "";
        SeenKeys[Name].insert(Key);
      }
      Json Scan = query(Name, nullptr, 0);
      std::vector<std::string> Got;
      for (const Json &Row : Scan.get("rows")->Arr)
        Got.push_back(writeJson(Row));
      EXPECT_EQ(Got, Expected);
      EXPECT_EQ(Scan.get("count")->Int, int64_t(Expected.size()));
      Json Capped = query(Name, nullptr, 3);
      std::vector<std::string> Prefix;
      for (const Json &Row : Capped.get("rows")->Arr)
        Prefix.push_back(writeJson(Row));
      Expected.resize(std::min<size_t>(Expected.size(), 3));
      EXPECT_EQ(Prefix, Expected);
      EXPECT_EQ(Capped.get("count")->Int, Scan.get("count")->Int);

      std::vector<std::string> Probe(SeenKeys[Name].begin(),
                                     SeenKeys[Name].end());
      std::shuffle(Probe.begin(), Probe.end(), ProbeRng);
      Probe.resize(std::min<size_t>(Probe.size(), 40));
      std::string Absent = "[1000"; // no node is numbered 1000
      for (unsigned K = 1; K < T.keyArity(); ++K)
        Absent += ",1";
      Probe.push_back(Absent + "]");
      for (const std::string &Key : Probe) {
        Json R = query(Name, &Key, 0);
        auto It = Live.find(Key);
        EXPECT_EQ(R.get("found")->B, It != Live.end()) << Key;
        if (It != Live.end() && IsLat) {
          ASSERT_NE(R.get("value"), nullptr);
          EXPECT_EQ(writeJson(*R.get("value")), It->second) << Key;
        }
      }
    }
    Json Stats = roundTrip(S, "{\"op\":\"stats\",\"db\":\"c\"}");
    const Json *Db = Stats.get("db");
    ASSERT_NE(Db, nullptr);
    ASSERT_NE(Db->get("snapshot_overlay_rows"), nullptr);
    EXPECT_EQ(Db->get("snapshot_overlay_rows")->Int, int64_t(OverlayRows));
    if (!Fixpoint)
      return;

    // Model: a from-scratch solve over the same facts.
    std::string Src = Source;
    for (auto [X, Y, C] : Edges)
      Src += "Edge(" + std::to_string(X) + ", " + std::to_string(Y) + ", " +
             std::to_string(C) + ").\n";
    for (int X : Blocked)
      Src += "Blocked(" + std::to_string(X) + ").\n";
    ValueFactory F;
    FlixCompiler Scratch(F);
    ASSERT_TRUE(Scratch.compile(Src, "scratch.flix"))
        << Scratch.diagnostics();
    Solver Ref(Scratch.program());
    ASSERT_TRUE(Ref.solve().ok());
    for (const char *Name : {"Edge", "Blocked", "Open", "Dist"}) {
      std::set<std::string> Want, Have;
      for (const std::vector<Value> &Row :
           Ref.tuples(*Scratch.predicate(Name)))
        Want.insert(intRow(Row));
      Json Scan = query(Name, nullptr, 0);
      for (const Json &Row : Scan.get("rows")->Arr)
        Have.insert(writeJson(Row));
      EXPECT_EQ(Want, Have) << Name;
    }
  };

  checkSnapshot(true);
  for (int Commit = 0; Commit < 120; ++Commit) {
    SCOPED_TRACE("commit " + std::to_string(Commit));
    Json R;
    if (Commit == 60) {
      // Open the gate: the batch outruns the time limit and is cancelled,
      // leaving a partial (sound, not fixpoint) model published.
      R = mutate("add_facts", "Gate", {{1}});
      ASSERT_FALSE(replyOk(R)) << writeJson(R);
      EXPECT_EQ(replyCode(R), "deadline_exceeded");
      // The cancelled round's derivations reached the table before any
      // round promoted them; the snapshot must carry them all the same.
      EXPECT_GT(Sess->snapshot()->Preds[predId("Heavy")]->liveCount(), 0u);
      checkSnapshot(false);
      // Close it again: this batch recovers with a full solve.
      R = mutate("retract_facts", "Gate", {{1}});
      ASSERT_TRUE(replyOk(R)) << writeJson(R);
      EXPECT_TRUE(R.get("full_resolve")->B);
      checkSnapshot(true);
      continue;
    }
    int Kind = int(Rng() % 4);
    if (Kind == 0 || Edges.size() < 40) {
      std::vector<std::vector<int>> Rows;
      for (int K = 0; K < 6; ++K) {
        std::array<int, 3> E = {int(Rng() % Nodes), int(Rng() % Nodes),
                                int(1 + Rng() % 9)};
        if (Edges.insert(E).second)
          Rows.push_back({E[0], E[1], E[2]});
      }
      R = mutate("add_facts", "Edge", Rows);
    } else if (Kind == 1) {
      std::vector<std::vector<int>> Rows;
      for (int K = 0; K < 4 && !Edges.empty(); ++K) {
        auto It = Edges.begin();
        std::advance(It, Rng() % Edges.size());
        Rows.push_back({(*It)[0], (*It)[1], (*It)[2]});
        Edges.erase(It);
      }
      R = mutate("retract_facts", "Edge", Rows);
    } else if (Kind == 2 || Blocked.empty()) {
      int X = 1 + int(Rng() % (Nodes - 1));
      Blocked.insert(X);
      R = mutate("add_facts", "Blocked", {{X}});
    } else {
      auto It = Blocked.begin();
      std::advance(It, Rng() % Blocked.size());
      R = mutate("retract_facts", "Blocked", {{*It}});
      Blocked.erase(It);
    }
    ASSERT_TRUE(replyOk(R)) << writeJson(R);
    checkSnapshot(true);
  }

  Json Stats = roundTrip(S, "{\"op\":\"stats\",\"db\":\"c\"}");
  const Json *Db = Stats.get("db");
  ASSERT_NE(Db, nullptr);
  ASSERT_NE(Db->get("snapshot_rebases"), nullptr);
  EXPECT_GE(Db->get("snapshot_rebases")->Int, 3);
  EXPECT_EQ(Db->get("degraded_recoveries")->Int, 1);
  EXPECT_EQ(Db->get("negation_fallbacks")->Int, 0);
}

//===----------------------------------------------------------------------===//
// 4. Loopback socket tests
//===----------------------------------------------------------------------===//

namespace {

/// A started loopback server plus a connect helper; stops on scope exit.
struct LiveServer {
  Server Srv;
  explicit LiveServer(ServerOptions O = ServerOptions{}) : Srv(O) {
    std::string Err;
    Started = Srv.start(Err);
    EXPECT_TRUE(Started) << Err;
  }
  ~LiveServer() {
    Srv.stop();
    Srv.wait();
  }
  bool connect(Client &C) {
    std::string Err;
    bool Ok = C.connectTcp("127.0.0.1", Srv.port(), Err);
    EXPECT_TRUE(Ok) << Err;
    return Ok;
  }
  bool Started = false;
};

} // namespace

TEST(ServerLoopback, PingAndMalformedShareAConnection) {
  LiveServer L;
  ASSERT_TRUE(L.Started);
  Client C;
  ASSERT_TRUE(L.connect(C));
  std::string Err;
  Json Reply;

  Json Ping = Json::object();
  Ping.set("op", Json::str("ping"));
  Ping.set("id", Json::integer(1));
  ASSERT_TRUE(C.call(Ping, Reply, Err)) << Err;
  EXPECT_TRUE(replyOk(Reply));
  EXPECT_EQ(Reply.get("server")->Str, "flixd");

  // A malformed line gets a parse_error reply and the connection
  // SURVIVES (framing is still aligned on newlines).
  ASSERT_TRUE(C.callRaw("{\"op\": \"pi", Reply, Err)) << Err;
  EXPECT_EQ(replyCode(Reply), "parse_error");
  ASSERT_TRUE(C.call(Ping, Reply, Err)) << Err;
  EXPECT_TRUE(replyOk(Reply));
}

TEST(ServerLoopback, OversizedLineRepliesThenCloses) {
  ServerOptions O;
  O.MaxLineBytes = 128;
  LiveServer L(O);
  ASSERT_TRUE(L.Started);
  Client C;
  ASSERT_TRUE(L.connect(C));
  std::string Err;
  Json Reply;
  std::string Huge = "{\"op\":\"ping\",\"pad\":\"" +
                     std::string(4096, 'x') + "\"}";
  ASSERT_TRUE(C.callRaw(Huge, Reply, Err)) << Err;
  EXPECT_EQ(replyCode(Reply), "line_too_long");
  // Framing cannot resync: the server closed the connection.
  Json Ping = Json::object();
  Ping.set("op", Json::str("ping"));
  EXPECT_FALSE(C.call(Ping, Reply, Err));
}

TEST(ServerLoopback, ShutdownOpStopsTheServer) {
  LiveServer L;
  ASSERT_TRUE(L.Started);
  Client C;
  ASSERT_TRUE(L.connect(C));
  std::string Err;
  Json Reply;
  Json Req = Json::object();
  Req.set("op", Json::str("shutdown"));
  ASSERT_TRUE(C.call(Req, Reply, Err)) << Err;
  EXPECT_TRUE(replyOk(Reply));
  L.Srv.wait(); // returns: the shutdown request tore the server down
  EXPECT_TRUE(L.Srv.stopping());
  Client C2;
  std::string Err2;
  EXPECT_FALSE(C2.connectTcp("127.0.0.1", L.Srv.port(), Err2));
}

//===----------------------------------------------------------------------===//
// The concurrency + differential acceptance test: 8 clients mix updates
// and queries against a real flixd; afterwards the server's Dist model
// must exactly equal a from-scratch solve over the server's final Edge
// set.
//===----------------------------------------------------------------------===//

TEST(ServerLoopback, ConcurrentClientsMatchFromScratchSolve) {
  constexpr unsigned NumClients = 8;
  constexpr unsigned Iters = 10;
  constexpr int64_t KeySpace = 48;

  LiveServer L;
  ASSERT_TRUE(L.Started);
  {
    Client C;
    ASSERT_TRUE(L.connect(C));
    std::string Err;
    Json Reply;
    Json Load = Json::object();
    Load.set("op", Json::str("load_program"));
    Load.set("db", Json::str("g"));
    Load.set("source", Json::str(benchProgramSource()));
    ASSERT_TRUE(C.call(Load, Reply, Err)) << Err;
    ASSERT_TRUE(replyOk(Reply)) << writeJson(Reply);
  }

  // Each thread owns a disjoint x-range so its adds/retracts are
  // deterministic and non-overlapping; queries roam freely.
  std::atomic<unsigned> Failures{0};
  auto clientMain = [&](unsigned T) {
    Client C;
    std::string Err;
    if (!C.connectTcp("127.0.0.1", L.Srv.port(), Err)) {
      ++Failures;
      return;
    }
    Json Reply;
    auto mutate = [&](const char *OpName, int64_t X, int64_t C1,
                      int64_t C2) {
      Json Rows = Json::array();
      for (int64_t Yd = 1; Yd <= 2; ++Yd) {
        Json Row = Json::array();
        Row.Arr.push_back(Json::integer(X));
        Row.Arr.push_back(
            Json::integer((X + Yd * 3 + 1) % KeySpace));
        Row.Arr.push_back(Json::integer(Yd == 1 ? C1 : C2));
        Rows.Arr.push_back(std::move(Row));
      }
      Json Req = Json::object();
      Req.set("op", Json::str(OpName));
      Req.set("db", Json::str("g"));
      Req.set("pred", Json::str("Edge"));
      Req.set("rows", std::move(Rows));
      if (!C.call(Req, Reply, Err) || !replyOk(Reply))
        ++Failures;
    };
    for (unsigned I = 0; I < Iters; ++I) {
      int64_t X = int64_t(T) * (KeySpace / NumClients) +
                  int64_t(I % (KeySpace / NumClients));
      mutate("add_facts", X, 1 + int64_t(I % 7), 2 + int64_t(T % 5));
      // Retract every third batch after adding it (exact same rows).
      if (I % 3 == 2)
        mutate("retract_facts", X, 1 + int64_t(I % 7),
               2 + int64_t(T % 5));
      // Interleave snapshot queries; they must always answer.
      Json Q = Json::object();
      Q.set("op", Json::str("query"));
      Q.set("db", Json::str("g"));
      Q.set("pred", Json::str("Dist"));
      Json Key = Json::array();
      Key.Arr.push_back(Json::integer(int64_t((T * 7 + I) % KeySpace)));
      Q.set("key", std::move(Key));
      if (!C.call(Q, Reply, Err) || !replyOk(Reply))
        ++Failures;
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumClients; ++T)
    Threads.emplace_back(clientMain, T);
  for (std::thread &T : Threads)
    T.join();
  ASSERT_EQ(Failures.load(), 0u);

  // Pull the server's final Edge set and Dist model.
  Client C;
  ASSERT_TRUE(L.connect(C));
  std::string Err;
  Json Edges, Dists;
  {
    // Json::set appends without dedup — build a fresh request per pred.
    auto scan = [](const char *Pred) {
      Json Q = Json::object();
      Q.set("op", Json::str("query"));
      Q.set("db", Json::str("g"));
      Q.set("pred", Json::str(Pred));
      return Q;
    };
    ASSERT_TRUE(C.call(scan("Edge"), Edges, Err)) << Err;
    ASSERT_TRUE(replyOk(Edges));
    ASSERT_TRUE(C.call(scan("Dist"), Dists, Err)) << Err;
    ASSERT_TRUE(replyOk(Dists));
  }

  // From-scratch reference: same program, the server's Edge rows as
  // input facts, a fresh one-shot Solver.
  ValueFactory F;
  FlixCompiler Scratch(F);
  ASSERT_TRUE(Scratch.compile(benchProgramSource(), "scratch.flix"))
      << Scratch.diagnostics();
  for (const Json &Row : Edges.get("rows")->Arr) {
    ASSERT_EQ(Row.Arr.size(), 3u);
    Value T[3] = {F.integer(Row.Arr[0].Int), F.integer(Row.Arr[1].Int),
                  F.integer(Row.Arr[2].Int)};
    ASSERT_TRUE(Scratch.addFact("Edge", T));
  }
  Solver Ref(Scratch.program());
  ASSERT_TRUE(Ref.solve().ok());

  std::set<std::pair<int64_t, int64_t>> Expected, Actual;
  auto DistId = Scratch.predicate("Dist");
  ASSERT_TRUE(DistId.has_value());
  for (const auto &Row : Ref.tuples(*DistId))
    Expected.emplace(Row[0].asInt(), Row[1].asInt());
  for (const Json &Row : Dists.get("rows")->Arr) {
    ASSERT_EQ(Row.Arr.size(), 2u);
    Actual.emplace(Row.Arr[0].Int, Row.Arr[1].Int);
  }
  EXPECT_EQ(Expected, Actual)
      << "server Dist diverged from the from-scratch solve ("
      << Expected.size() << " expected rows, " << Actual.size()
      << " actual)";

  // The server's own accounting: every mutation landed, no fallbacks
  // (the program has no negation), coalescing bookkeeping consistent.
  Json Stats;
  Json Q = Json::object();
  Q.set("op", Json::str("stats"));
  Q.set("db", Json::str("g"));
  ASSERT_TRUE(C.call(Q, Stats, Err)) << Err;
  ASSERT_TRUE(replyOk(Stats));
  const Json *Db = Stats.get("db");
  ASSERT_NE(Db, nullptr);
  EXPECT_EQ(Db->get("negation_fallbacks")->Int, 0);
  EXPECT_EQ(Db->get("degraded_recoveries")->Int, 0);
  EXPECT_EQ(Db->get("pending_rows")->Int, 0);
  int64_t Mutations = Db->get("mutation_requests")->Int;
  int64_t Batches = Db->get("update_batches")->Int;
  EXPECT_EQ(Mutations,
            int64_t(NumClients * (Iters + Iters / 3)));
  EXPECT_GE(Batches, 2);        // initial solve + at least one batch
  EXPECT_LE(Batches, Mutations + 1); // coalescing never inflates
}
