//===- parallel/ThreadPool.h - Work-stealing thread pool ------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size pool of worker threads executing *phases* of tasks. A
/// phase's tasks are the fixed payload array [0, NumTasks): the
/// coordinator cuts it into one contiguous slice per worker and releases
/// the workers. Each slice has one atomic claim cursor. A worker claims
/// tasks from its own slice with fetch_add, then from its victims'
/// slices in turn; a claim from another worker's slice is a steal.
/// Slices keep adjacent tasks (often adjacent delta rows) on one worker
/// until stealing kicks in. No task appears mid-phase, so a worker that
/// finds every slice exhausted leaves the phase at once.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_PARALLEL_THREADPOOL_H
#define FLIX_PARALLEL_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace flix {

/// A persistent pool of \p NumWorkers threads executing one phase of
/// tasks at a time. Not itself thread-safe: one coordinator thread calls
/// run(); the pool may be reused for any number of phases.
class ThreadPool {
public:
  explicit ThreadPool(unsigned NumWorkers);
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;
  ~ThreadPool();

  /// Reads Slices (fully built before any worker thread starts), not
  /// Workers — workers call this while the constructor is still pushing
  /// into the Workers vector.
  unsigned numWorkers() const { return static_cast<unsigned>(Slices.size()); }

  /// Executes Fn(Payload, WorkerIndex) once for every payload in
  /// [0, NumTasks), distributed over the workers with work stealing.
  /// Blocks the calling thread until every task has finished; the
  /// happens-before edges run through the phase start/finish mutex, so
  /// non-atomic state written by tasks is visible to the coordinator (and
  /// to all tasks of subsequent phases) without further synchronization.
  void run(size_t NumTasks, const std::function<void(size_t, unsigned)> &Fn);

  /// Total tasks claimed from another worker's slice since construction.
  uint64_t steals() const;

private:
  /// One worker's share [Next, End) of the running phase. Next is claimed
  /// by fetch_add from any worker and may overshoot End; End is written
  /// by the coordinator between phases only.
  struct alignas(64) Slice {
    std::atomic<size_t> Next{0};
    size_t End = 0;
    uint64_t Steals = 0; ///< tasks this slice's worker stole (owner-only)
  };

  void workerMain(unsigned Me);

  std::vector<Slice> Slices;
  std::vector<std::thread> Workers;

  // Phase control. Generation is bumped (under Mu) to release workers;
  // Active counts workers still inside the phase. The coordinator waits
  // for Active == 0.
  std::mutex Mu;
  std::condition_variable WakeWorkers;
  std::condition_variable PhaseDone;
  uint64_t Generation = 0;
  bool ShuttingDown = false;
  const std::function<void(size_t, unsigned)> *PhaseFn = nullptr;
  unsigned Active = 0;
};

} // namespace flix

#endif // FLIX_PARALLEL_THREADPOOL_H
