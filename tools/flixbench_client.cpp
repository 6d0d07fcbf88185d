//===- tools/flixbench_client.cpp - flixd load driver CLI -----------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// Drives a running flixd with concurrent clients mixing fact updates and
// snapshot queries, then reports sustained throughput and tail latency
// (src/server/LoadDriver.h). Typical use against a daemon started with
// --port-file:
//
//   flixd --port 0 --port-file /tmp/flixd.port &
//   flixbench_client --port "$(cat /tmp/flixd.port)" --clients 8 --json
//
// Exit status is nonzero if the drive saw any hard error (transport
// failures or non-overload error replies); deadline_exceeded and
// overloaded replies are counted, not fatal — they are the server's
// documented load-shedding behavior.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/LoadDriver.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace flix;
using namespace flix::server;

static void printUsage() {
  std::fprintf(
      stderr,
      "usage: flixbench_client [options]\n"
      "\n"
      "  --port N          flixd TCP port (required unless --unix)\n"
      "  --host ADDR       flixd address (default 127.0.0.1)\n"
      "  --unix PATH       connect over a Unix-domain socket\n"
      "  --db NAME         database name (default bench)\n"
      "  --clients N       concurrent client connections (default 8)\n"
      "  --seconds S       drive duration (default 5)\n"
      "  --rows N          fact rows per mutation request (default 16)\n"
      "  --query-ratio R   fraction of requests that query (default 0.5)\n"
      "  --keyspace N      graph node bound (default 512)\n"
      "  --seed N          workload seed (default 1)\n"
      "  --deadline-ms MS  per-request deadline (default none)\n"
      "  --no-load         skip load_program (db must already exist)\n"
      "  --shutdown        send a shutdown request when done\n"
      "  --json            print the report as one JSON object\n");
}

/// Parses a decimal integer flag value, rejecting garbage, trailing
/// junk and out-of-range input (std::atoi silently mapped those to 0,
/// and `--port 99999` wrapped mod 2^16).
static long long parseIntFlag(const char *Flag, const char *Text,
                              long long Min, long long Max) {
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || V < Min || V > Max) {
    std::fprintf(
        stderr,
        "flixbench_client: %s wants an integer in [%lld, %lld], got '%s'\n",
        Flag, Min, Max, Text);
    std::exit(2);
  }
  return V;
}

/// Same discipline for floating-point flags (replaces std::atof).
static double parseFloatFlag(const char *Flag, const char *Text, double Min,
                             double Max) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || errno == ERANGE || !(V >= Min) ||
      !(V <= Max)) {
    std::fprintf(stderr,
                 "flixbench_client: %s wants a number in [%g, %g], got '%s'\n",
                 Flag, Min, Max, Text);
    std::exit(2);
  }
  return V;
}

int main(int argc, char **argv) {
  LoadOptions Opt;
  bool JsonOut = false;
  bool SendShutdown = false;

  auto needValue = [&](int &I) -> const char * {
    if (I + 1 >= argc) {
      std::fprintf(stderr, "flixbench_client: %s needs a value\n",
                   argv[I]);
      std::exit(2);
    }
    return argv[++I];
  };

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--help" || A == "-h") {
      printUsage();
      return 0;
    } else if (A == "--port") {
      Opt.Port = uint16_t(parseIntFlag("--port", needValue(I), 1, 65535));
    } else if (A == "--host") {
      Opt.Host = needValue(I);
    } else if (A == "--unix") {
      Opt.UnixPath = needValue(I);
    } else if (A == "--db") {
      Opt.Db = needValue(I);
    } else if (A == "--clients") {
      Opt.Clients =
          unsigned(parseIntFlag("--clients", needValue(I), 1, 4096));
    } else if (A == "--seconds") {
      Opt.Seconds = parseFloatFlag("--seconds", needValue(I), 0.0, 86400.0);
    } else if (A == "--rows") {
      Opt.RowsPerRequest =
          unsigned(parseIntFlag("--rows", needValue(I), 1, 1 << 20));
    } else if (A == "--query-ratio") {
      Opt.QueryRatio =
          parseFloatFlag("--query-ratio", needValue(I), 0.0, 1.0);
    } else if (A == "--keyspace") {
      Opt.KeySpace =
          unsigned(parseIntFlag("--keyspace", needValue(I), 2, 1 << 30));
    } else if (A == "--seed") {
      Opt.Seed = uint64_t(
          parseIntFlag("--seed", needValue(I), 0, (1LL << 62) - 1));
    } else if (A == "--deadline-ms") {
      Opt.DeadlineMs =
          parseFloatFlag("--deadline-ms", needValue(I), 0.0, 1e9);
    } else if (A == "--no-load") {
      Opt.LoadProgram = false;
    } else if (A == "--shutdown") {
      SendShutdown = true;
    } else if (A == "--json") {
      JsonOut = true;
    } else {
      std::fprintf(stderr, "flixbench_client: unknown option '%s'\n",
                   A.c_str());
      printUsage();
      return 2;
    }
  }
  if (Opt.Port == 0 && Opt.UnixPath.empty()) {
    std::fprintf(stderr, "flixbench_client: --port or --unix required\n");
    return 2;
  }
  if (Opt.Clients == 0 || Opt.RowsPerRequest == 0 || Opt.KeySpace < 2) {
    std::fprintf(stderr, "flixbench_client: degenerate options\n");
    return 2;
  }

  LoadReport Rep = runLoad(Opt);

  if (SendShutdown) {
    Client C;
    std::string Err;
    bool Connected = Opt.UnixPath.empty()
                         ? C.connectTcp(Opt.Host, Opt.Port, Err)
                         : C.connectUnix(Opt.UnixPath, Err);
    if (Connected) {
      Json Req = Json::object();
      Req.set("op", Json::str("shutdown"));
      Json Reply;
      C.call(Req, Reply, Err);
    }
  }

  if (JsonOut) {
    std::printf("%s\n", writeJson(Rep.toJson()).c_str());
  } else {
    std::printf("flixbench: %u clients for %.2fs against db '%s'\n",
                Rep.Clients, Rep.Seconds, Opt.Db.c_str());
    std::printf("  mutations   %8llu req (%.0f/s, %.0f rows/s)\n",
                (unsigned long long)Rep.MutationRequests,
                Rep.MutationsPerSec, Rep.RowsPerSec);
    std::printf("  queries     %8llu req (%.0f/s)\n",
                (unsigned long long)Rep.QueryRequests, Rep.QueriesPerSec);
    std::printf("  update batches %5llu (coalesced %llu requests, "
                "fallback solves: %llu degraded, %llu negation)\n",
                (unsigned long long)Rep.UpdateBatches,
                (unsigned long long)Rep.CoalescedRequests,
                (unsigned long long)Rep.Engine.DegradedRecoveries,
                (unsigned long long)Rep.Engine.NegationFallbacks);
    std::printf("  mutation latency p50 %.3fms  p99 %.3fms\n",
                Rep.MutationP50Ms, Rep.MutationP99Ms);
    std::printf("  query latency    p50 %.3fms  p99 %.3fms\n",
                Rep.QueryP50Ms, Rep.QueryP99Ms);
    std::printf("  deadline_exceeded %llu, overloaded %llu, errors %llu\n",
                (unsigned long long)Rep.DeadlineExceeded,
                (unsigned long long)Rep.Overloaded,
                (unsigned long long)Rep.Errors);
    if (!Rep.Ok)
      std::printf("  FIRST ERROR: %s\n", Rep.Error.c_str());
  }
  return Rep.Ok ? 0 : 1;
}
