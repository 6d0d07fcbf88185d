//===- tools/flixd.cpp - The FLIX fixpoint daemon -------------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// flixd: a long-lived daemon holding named FLIX databases — each a
// compiled program plus an incremental solver — behind a
// newline-delimited JSON protocol (see src/server/Protocol.h and
// DESIGN.md S14). Start it, then drive it with flixbench_client or any
// line-oriented JSON client:
//
//   flixd --port 7643 &
//   printf '%s\n' '{"op":"ping"}' | nc 127.0.0.1 7643
//
// With --port 0 the kernel picks the port; --port-file writes the bound
// port for scripts. --preload compiles a program file into a database
// before the socket opens, so clients never observe a half-loaded db.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace flix;
using namespace flix::server;

static void printUsage() {
  std::fprintf(
      stderr,
      "usage: flixd [options]\n"
      "\n"
      "  --port N              TCP port (default 7643; 0 = ephemeral)\n"
      "  --host ADDR           TCP listen address (default 127.0.0.1)\n"
      "  --unix PATH           listen on a Unix-domain socket instead\n"
      "  --port-file PATH      write the bound TCP port to PATH\n"
      "  --preload DB=FILE     load FILE as database DB before serving\n"
      "  --threads N           solver threads per update batch\n"
      "  --no-vm               interpret FLIX functions (disable the\n"
      "                        bytecode VM)\n"
      "  --no-cost-plans       freeze driver-first join orders\n"
      "  --replan-threshold X  adaptive re-plan hysteresis factor\n"
      "                        (0 disables between-round re-planning)\n"
      "  --update-time-limit S per-batch solve budget in seconds\n"
      "  --max-connections N   concurrent connection bound (default 64)\n"
      "  --max-inflight N      concurrent request bound (default 256)\n"
      "  --max-line-bytes N    request line byte bound (default 4MiB)\n"
      "  --max-pending-facts N staged-row bound per db (default 1Mi)\n");
}

/// Parses a decimal integer flag value, rejecting garbage, trailing
/// junk and out-of-range input. The std::atoi it replaces silently
/// turned all of those into 0 — and let `--port 99999` wrap mod 2^16.
static long long parseIntFlag(const char *Flag, const char *Text,
                              long long Min, long long Max) {
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || V < Min || V > Max) {
    std::fprintf(stderr,
                 "flixd: %s wants an integer in [%lld, %lld], got '%s'\n",
                 Flag, Min, Max, Text);
    std::exit(2);
  }
  return V;
}

/// Same discipline for floating-point flags (replaces std::atof).
static double parseFloatFlag(const char *Flag, const char *Text,
                             double Min) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || errno == ERANGE || !(V >= Min)) {
    std::fprintf(stderr, "flixd: %s wants a number >= %g, got '%s'\n",
                 Flag, Min, Text);
    std::exit(2);
  }
  return V;
}

int main(int argc, char **argv) {
  ServerOptions Opt;
  Opt.Port = 7643;
  std::string PortFile;
  std::vector<std::pair<std::string, std::string>> Preloads;

  auto needValue = [&](int &I) -> const char * {
    if (I + 1 >= argc) {
      std::fprintf(stderr, "flixd: %s needs a value\n", argv[I]);
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
      Opt.Port = uint16_t(parseIntFlag("--port", needValue(I), 0, 65535));
    } else if (A == "--host") {
      Opt.Host = needValue(I);
    } else if (A == "--unix") {
      Opt.UnixPath = needValue(I);
    } else if (A == "--port-file") {
      PortFile = needValue(I);
    } else if (A == "--preload") {
      std::string Spec = needValue(I);
      size_t Eq = Spec.find('=');
      if (Eq == std::string::npos) {
        std::fprintf(stderr, "flixd: --preload wants DB=FILE, got '%s'\n",
                     Spec.c_str());
        return 2;
      }
      Preloads.emplace_back(Spec.substr(0, Eq), Spec.substr(Eq + 1));
    } else if (A == "--threads") {
      Opt.Solve.NumThreads =
          unsigned(parseIntFlag("--threads", needValue(I), 0, 1024));
    } else if (A == "--no-vm") {
      Opt.Solve.UseVm = false;
    } else if (A == "--no-cost-plans") {
      Opt.Solve.CostBasedPlans = false;
    } else if (A == "--replan-threshold") {
      Opt.Solve.ReplanThreshold =
          parseFloatFlag("--replan-threshold", needValue(I), 0.0);
    } else if (A == "--update-time-limit") {
      Opt.Solve.TimeLimitSeconds =
          parseFloatFlag("--update-time-limit", needValue(I), 0.0);
    } else if (A == "--max-connections") {
      Opt.MaxConnections =
          unsigned(parseIntFlag("--max-connections", needValue(I), 1, 1 << 20));
    } else if (A == "--max-inflight") {
      Opt.MaxInflight =
          unsigned(parseIntFlag("--max-inflight", needValue(I), 1, 1 << 20));
    } else if (A == "--max-line-bytes") {
      Opt.MaxLineBytes = size_t(
          parseIntFlag("--max-line-bytes", needValue(I), 1, 1LL << 40));
    } else if (A == "--max-pending-facts") {
      Opt.MaxPendingFactsPerDb = uint64_t(
          parseIntFlag("--max-pending-facts", needValue(I), 1, 1LL << 40));
    } else {
      std::fprintf(stderr, "flixd: unknown option '%s'\n", A.c_str());
      printUsage();
      return 2;
    }
  }

  // The daemon writes replies to sockets that can vanish mid-write.
  std::signal(SIGPIPE, SIG_IGN);

  Server Srv(Opt);

  for (const auto &[Db, File] : Preloads) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "flixd: cannot read '%s'\n", File.c_str());
      return 1;
    }
    std::ostringstream Src;
    Src << In.rdbuf();
    Json Req = Json::object();
    Req.set("op", Json::str("load_program"));
    Req.set("db", Json::str(Db));
    Req.set("source", Json::str(Src.str()));
    std::string Reply = Srv.handleLine(writeJson(Req));
    Json ReplyJ;
    std::string Err;
    const Json *Ok = nullptr;
    if (parseJson(Reply, ReplyJ, Err))
      Ok = ReplyJ.get("ok");
    if (!Ok || !Ok->isBool() || !Ok->B) {
      std::fprintf(stderr, "flixd: preload of '%s' failed: %s\n",
                   Db.c_str(), Reply.c_str());
      return 1;
    }
    std::fprintf(stderr, "flixd: preloaded database '%s' from %s\n",
                 Db.c_str(), File.c_str());
  }

  std::string Err;
  if (!Srv.start(Err)) {
    std::fprintf(stderr, "flixd: %s\n", Err.c_str());
    return 1;
  }
  if (!PortFile.empty()) {
    std::ofstream Out(PortFile, std::ios::trunc);
    Out << Srv.port() << "\n";
    if (!Out) {
      std::fprintf(stderr, "flixd: cannot write port file '%s'\n",
                   PortFile.c_str());
      Srv.stop();
      Srv.wait();
      return 1;
    }
  }
  if (!Opt.UnixPath.empty())
    std::fprintf(stderr, "flixd: listening on %s\n", Opt.UnixPath.c_str());
  else
    std::fprintf(stderr, "flixd: listening on %s:%u\n", Opt.Host.c_str(),
                 unsigned(Srv.port()));
  std::fflush(stderr);

  Srv.wait();
  std::fprintf(stderr, "flixd: shut down\n");
  return 0;
}
