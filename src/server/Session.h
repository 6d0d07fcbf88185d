//===- server/Session.h - One named database of the daemon ----*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Session is one named, long-lived database inside flixd: a compiled
/// FLIX Program plus an IncrementalSolver that absorbs fact batches, and
/// the machinery that makes both safe and fast under many concurrent
/// clients (DESIGN.md S14):
///
///   * Write coalescing (group commit). Mutations stage into a queue
///     under the session mutex; the first thread to find no leader
///     becomes the leader, repeatedly swapping out everything staged and
///     applying it as ONE IncrementalSolver::update() while followers
///     wait for their generation to commit. While an update runs, new
///     arrivals keep staging — so under load, batch size grows and
///     per-request update cost amortizes toward zero. Batching is the
///     throughput lever: update() cost tracks the affected cone
///     (BENCH_incremental.json), so N coalesced requests cost one cone,
///     not N.
///   * Snapshot isolation. After each commit the leader publishes an
///     immutable DbSnapshot. Predicates the update did not touch
///     (UpdateStats::ChangedPreds) are shared as they are; a touched one
///     keeps its shared base and gains the update's changed and
///     over-deleted rows in its overlay (server/Snapshot.h), so a commit
///     costs O(changed cells), not O(rows). Queries resolve the current
///     snapshot and never block on — or are blocked by — a running
///     solve.
///   * Admission control. Staged rows are bounded
///     (Options::MaxPendingFacts); beyond the bound mutations are
///     rejected with `overloaded` instead of queueing unboundedly.
///   * Deadlines. A follower stops waiting when its request deadline
///     expires (`deadline_exceeded`; its rows still commit with the
///     batch). SolverOptions::TimeLimitSeconds bounds each update()
///     itself through the solver's cancellation deadline; a cancelled
///     batch leaves the session degraded and the next batch recovers
///     via a full solve.
///
/// The leader protocol means the IncrementalSolver is only ever touched
/// by one thread at a time, with leadership handoff through the mutex —
/// no lock is held while solving, and the solver itself needs no
/// internal synchronization for server use.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_SERVER_SESSION_H
#define FLIX_SERVER_SESSION_H

#include "incremental/IncrementalSolver.h"
#include "lang/Compiler.h"
#include "server/Protocol.h"
#include "server/Snapshot.h"

#include <atomic>
#include <condition_variable>
#include <mutex>

namespace flix {
namespace server {

class Session {
public:
  struct Options {
    /// Solver options for the inner IncrementalSolver (NumThreads > 0
    /// runs its solves' and updates' rounds in parallel; requests are still
    /// serialized through the leader; TimeLimitSeconds is the per-batch
    /// solve budget, see the file comment).
    SolverOptions Solve;
    /// Admission bound: maximum staged-but-uncommitted fact rows.
    uint64_t MaxPendingFacts = uint64_t(1) << 20;
  };

  Session(std::string Name, Options Opt);
  ~Session();
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  const std::string &name() const { return DbName; }

  /// Compiles \p Source and runs the initial solve (generation 1). Must
  /// complete before the session is shared with other threads; the
  /// registry only publishes sessions whose load succeeded.
  bool load(const std::string &Source, Deadline DL, ErrCode &Code,
            std::string &Err);

  /// Outcome of one mutation request (add_facts / retract_facts).
  struct ApplyResult {
    bool Ok = true;
    ErrCode Code = ErrCode::BadRequest;
    std::string Error;
    uint64_t Generation = 0; ///< generation the rows committed in
    uint64_t StagedRows = 0; ///< rows this request contributed
    double BatchSeconds = 0; ///< wall time of the covering update()
    bool FullResolve = false;
    bool Coalesced = false; ///< batch carried other requests' rows too
  };

  /// Stages \p Rows (JSON array of row arrays) for \p PredName and
  /// blocks until the covering update commits, the deadline expires, or
  /// admission rejects the request.
  ApplyResult applyFacts(const std::string &PredName, const Json &Rows,
                         bool Retract, Deadline DL);

  /// Result of a query; Fields are merged into the ok reply.
  struct QueryReply {
    bool Ok = true;
    ErrCode Code = ErrCode::BadRequest;
    std::string Error;
    Json Fields = Json::object();
  };

  /// Point lookup (\p Key non-null: JSON array of key column values) or
  /// scan (\p Key null; \p Limit caps returned rows, 0 = all). Reads the
  /// current snapshot; never blocks on a running solve.
  QueryReply query(const std::string &PredName, const Json *Key,
                   int64_t Limit);

  /// Per-db stats object for the wire `stats` reply.
  Json statsJson();

  /// The current published snapshot.
  std::shared_ptr<const DbSnapshot> snapshot() const;

  /// The compiled program and the live solver behind the snapshots (valid
  /// after load()). Reading the solver races with a committing batch, so
  /// only callers that know no mutation is in flight may (tests do).
  const Program &program() const { return Compiler->program(); }
  const IncrementalSolver &solver() const { return *IS; }

private:
  struct GenOutcome {
    bool Ok = true;
    ErrCode Code = ErrCode::SolveError;
    std::string Error;
    double Seconds = 0;
    bool FullResolve = false;
    uint64_t Requests = 1; ///< mutation requests coalesced into the batch
  };

  /// Leader-only: applies one swapped-out batch and publishes the new
  /// snapshot. Called with the session mutex released.
  GenOutcome commitBatch(const std::vector<Fact> &Adds,
                         const std::vector<Fact> &Rets, uint64_t Gen,
                         UpdateStats &UOut);
  void publishSnapshot(const UpdateStats &U, uint64_t Gen);
  /// Parses one JSON rows array into Facts; fails with BadFact detail.
  /// (Non-const: column parsing interns Values into the session factory.)
  bool parseRows(const std::string &PredName, const Json &Rows,
                 std::vector<Fact> &Out, ErrCode &Code, std::string &Err);

  std::string DbName;
  Options Opt;
  ValueFactory F;
  std::unique_ptr<FlixCompiler> Compiler;
  std::unique_ptr<IncrementalSolver> IS;

  // Group-commit state, all under Mu.
  std::mutex Mu;
  std::condition_variable CV;
  std::vector<Fact> StagedAdds, StagedRetracts;
  uint64_t StagedRows = 0;
  uint64_t StagedRequests = 0; ///< requests contributing to the staged batch
  uint64_t NextGen = 1;        ///< generation the staged batch will commit as
  uint64_t AppliedGen = 0;
  bool LeaderActive = false;
  std::unordered_map<uint64_t, GenOutcome> Outcomes;

  // Cumulative stats (under Mu unless atomic).
  uint64_t MutationRequests = 0;
  uint64_t UpdateBatches = 0;
  uint64_t RowsStagedTotal = 0;
  uint64_t DeadlineExpiredWaits = 0;
  uint64_t OverloadRejections = 0;
  double TotalUpdateSeconds = 0;
  UpdateStats LastUpdate; ///< leader's copy; safe to read under Mu
  std::atomic<uint64_t> Queries{0};

  // Published snapshot (SnapMu orders the shared_ptr swap/copy).
  mutable std::mutex SnapMu;
  std::shared_ptr<const DbSnapshot> Snap;
  std::vector<uint32_t> Touched; ///< leader-only publishSnapshot scratch
};

} // namespace server
} // namespace flix

#endif // FLIX_SERVER_SESSION_H
