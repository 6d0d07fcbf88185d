//===- server/Server.h - The flixd daemon core ----------------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flixd daemon: a registry of named Sessions behind a
/// newline-delimited JSON socket protocol (DESIGN.md S14). The class
/// splits into two layers so the protocol logic is testable without
/// sockets:
///
///   * handleLine(): the complete request core — decode, admission
///     control, dispatch to the owning Session, encode the reply. One
///     call per request line, callable from any thread.
///   * start()/wait()/stop(): the socket layer — a listener (TCP
///     loopback or Unix-domain), one thread per connection, line
///     framing with a hard per-line byte bound. `shutdown` requests and
///     stop() both close the listener and shut down every connection
///     fd, which unblocks the reader threads; wait() joins them.
///
/// Overload behavior is explicit at every layer: connections beyond
/// MaxConnections are greeted with an `overloaded` error line and
/// closed, requests beyond MaxInflight (or staging more rows than a
/// db's bound) get `overloaded` replies, and oversized request lines
/// get `line_too_long` followed by connection close (framing cannot
/// resync after an oversized line).
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_SERVER_SERVER_H
#define FLIX_SERVER_SERVER_H

#include "server/Session.h"

#include <map>
#include <set>
#include <thread>

namespace flix {
namespace server {

struct ServerOptions {
  /// TCP listen address; loopback by default — flixd is a local daemon,
  /// exposing it wider is an explicit operator decision.
  std::string Host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (see Server::port()).
  uint16_t Port = 0;
  /// Non-empty: listen on this Unix-domain socket path instead of TCP.
  std::string UnixPath;

  unsigned MaxConnections = 64;
  /// Bound on concurrently executing requests (loads, mutations,
  /// queries; ping and shutdown are exempt so health checks and
  /// operator stops work under load).
  unsigned MaxInflight = 256;
  /// Hard per-request-line byte bound; framing closes the connection
  /// after an oversized line.
  size_t MaxLineBytes = size_t(4) << 20;
  /// Per-database admission bound on staged-but-uncommitted fact rows.
  uint64_t MaxPendingFactsPerDb = uint64_t(1) << 20;

  /// Solver options for every database's IncrementalSolver; its
  /// TimeLimitSeconds is the per-update-batch solve budget (0 =
  /// unbounded).
  SolverOptions Solve;
};

class Server {
public:
  explicit Server(ServerOptions Opt);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// The request core: handles one request line, returns the serialized
  /// reply (no trailing newline). Never throws; malformed input yields
  /// an error reply. Thread-safe.
  std::string handleLine(std::string_view Line);

  /// Binds, listens and starts the accept thread. Returns false with
  /// \p Err on socket errors.
  bool start(std::string &Err);

  /// The bound TCP port (after start(); meaningful when UnixPath is
  /// empty). With Options.Port == 0 this is the kernel-assigned port.
  uint16_t port() const { return BoundPort; }

  /// Blocks until the server stops (shutdown request or stop()), then
  /// joins all threads. Call from the owning thread.
  void wait();

  /// Requests a stop: unblocks the accept and connection threads. Safe
  /// to call from any thread, including connection threads; idempotent.
  void stop();

  bool stopping() const {
    return Stopping.load(std::memory_order_acquire);
  }

  /// The loaded database \p Name, or null.
  std::shared_ptr<Session> findDb(const std::string &Name);

private:
  Json handleRequest(const Request &R);
  Json handleLoad(const Request &R);
  Json handleMutate(const Request &R, bool Retract);
  Json handleQuery(const Request &R);
  Json handleStats(const Request &R);
  void acceptLoop();
  void connectionLoop(int Fd);
  void closeListener();

  ServerOptions Opt;
  uint16_t BoundPort = 0;

  // Database registry. Loading holds the name in LoadingNames so two
  // concurrent loads of one name cannot both win.
  std::mutex RegMu;
  std::map<std::string, std::shared_ptr<Session>> Dbs;
  std::set<std::string> LoadingNames;

  // Socket state.
  std::atomic<int> ListenFd{-1};
  std::thread AcceptThread;
  std::mutex ConnMu; ///< guards ConnFds and ConnThreads
  std::vector<int> ConnFds;
  std::vector<std::thread> ConnThreads;

  std::atomic<bool> Stopping{false};
  std::mutex StopMu; ///< with StopCV: wakes wait()
  std::condition_variable StopCV;

  // Admission + observability counters.
  std::atomic<unsigned> ActiveConns{0};
  std::atomic<unsigned> Inflight{0};
  std::atomic<uint64_t> RequestsTotal{0};
  std::atomic<uint64_t> ErrorsTotal{0};
  std::atomic<uint64_t> OverloadRejections{0};
  std::atomic<uint64_t> ConnectionsTotal{0};
};

} // namespace server
} // namespace flix

#endif // FLIX_SERVER_SERVER_H
