//===- server/LoadDriver.h - Concurrent flixd load driver -----*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A load driver for flixd, shared by the flixbench_client tool and the
/// bench/server_throughput target: N client threads (each with its own
/// connection) hammer one database with a deterministic mix of add_facts
/// / retract_facts / query requests over a bounded shortest-paths graph,
/// then the driver reports sustained throughput and tail latency — the
/// numbers BENCH_server.json records. The workload keeps the key space
/// bounded so the solve cost per batch stays roughly constant and the
/// measurement converges; mutations touch random Edge rows, queries hit
/// random Dist cells, so write coalescing and snapshot isolation are
/// both on the measured path.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_SERVER_LOADDRIVER_H
#define FLIX_SERVER_LOADDRIVER_H

#include "fixpoint/Stats.h"
#include "server/Json.h"

#include <cstdint>
#include <string>

namespace flix {
namespace server {

struct LoadOptions {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  std::string UnixPath; ///< non-empty: connect over AF_UNIX instead
  std::string Db = "bench";
  unsigned Clients = 8;
  double Seconds = 5.0;
  unsigned RowsPerRequest = 16;
  /// Fraction of requests that are queries (the rest are mutations,
  /// alternating add and retract so the database stays bounded).
  double QueryRatio = 0.5;
  /// Node-id bound of the random graph; mutation keys stay inside it.
  unsigned KeySpace = 512;
  uint64_t Seed = 1;
  double DeadlineMs = 0; ///< per-request deadline (0 = none)
  bool LoadProgram = true; ///< issue load_program for Db first
};

struct LoadReport {
  bool Ok = false;
  std::string Error;

  unsigned Clients = 0;
  double Seconds = 0; ///< measured wall time of the drive phase

  uint64_t MutationRequests = 0;
  uint64_t QueryRequests = 0;
  uint64_t RowsSent = 0;
  uint64_t Errors = 0;
  uint64_t DeadlineExceeded = 0;
  uint64_t Overloaded = 0;

  // From the server's final per-db stats.
  uint64_t UpdateBatches = 0;
  uint64_t CoalescedRequests = 0;
  uint64_t FinalGeneration = 0;
  /// Every stats-registry row of that block, read by its registry key.
  /// toJson() reports the gauges — the engine's state at the end of the
  /// run, among them the lifetime fallback counts; NegationFallbacks must
  /// stay 0 now that negation batches are patched in place.
  SolveStats Engine;

  double MutationsPerSec = 0;
  double RowsPerSec = 0;
  double QueriesPerSec = 0;
  double MutationP50Ms = 0, MutationP99Ms = 0;
  double QueryP50Ms = 0, QueryP99Ms = 0;

  Json toJson() const;
};

/// The embedded benchmark program: an Int-keyed single-source
/// shortest-paths instance (rel Edge, lat Dist over the min lattice).
const char *benchProgramSource();

/// Runs the load against a listening flixd. Blocking; spawns
/// Options.Clients threads internally.
LoadReport runLoad(const LoadOptions &O);

} // namespace server
} // namespace flix

#endif // FLIX_SERVER_LOADDRIVER_H
