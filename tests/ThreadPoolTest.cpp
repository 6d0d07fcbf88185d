//===- tests/ThreadPoolTest.cpp - Work-stealing thread pool tests ---------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// The phase pool (parallel/ThreadPool.h): every payload of a phase runs
// exactly once on a valid worker index, empty and tiny phases return, and
// a claim from another worker's slice counts as a steal.
//
//===----------------------------------------------------------------------===//

#include "parallel/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

using namespace flix;

namespace {

/// Runs one phase of \p NumTasks payloads on \p Pool and checks that each
/// ran exactly once, on a worker index the pool owns.
void expectEachRunsOnce(ThreadPool &Pool, size_t NumTasks) {
  std::unique_ptr<std::atomic<unsigned>[]> Runs(
      new std::atomic<unsigned>[NumTasks + 1]);
  for (size_t I = 0; I <= NumTasks; ++I)
    Runs[I].store(0, std::memory_order_relaxed);
  std::atomic<unsigned> BadWorker{0};
  Pool.run(NumTasks, [&](size_t Payload, unsigned W) {
    Runs[Payload < NumTasks ? Payload : NumTasks].fetch_add(
        1, std::memory_order_relaxed);
    if (W >= Pool.numWorkers())
      BadWorker.fetch_add(1, std::memory_order_relaxed);
  });
  // Pool::run returns after every task finished, so plain reads suffice.
  for (size_t I = 0; I < NumTasks; ++I)
    ASSERT_EQ(Runs[I].load(), 1u) << "payload " << I << " of " << NumTasks;
  EXPECT_EQ(Runs[NumTasks].load(), 0u) << "payload out of range";
  EXPECT_EQ(BadWorker.load(), 0u);
}

TEST(ThreadPoolTest, EveryPayloadRunsOnceAcrossBackToBackPhases) {
  for (unsigned Workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(Workers);
    ThreadPool Pool(Workers);
    ASSERT_EQ(Pool.numWorkers(), Workers);
    for (size_t Phase = 0; Phase < 1000; ++Phase)
      ASSERT_NO_FATAL_FAILURE(expectEachRunsOnce(Pool, Phase % 97 + 1));
    if (Workers == 1) {
      EXPECT_EQ(Pool.steals(), 0u) << "a lone worker has no victim";
    }
  }
}

TEST(ThreadPoolTest, EmptyAndTinyPhases) {
  ThreadPool Pool(4);
  std::atomic<unsigned> Ran{0};
  Pool.run(0, [&](size_t, unsigned) { Ran.fetch_add(1); });
  EXPECT_EQ(Ran.load(), 0u);
  // Fewer tasks than workers leaves some slices empty; their workers
  // steal or leave the phase at once.
  for (size_t N : {1u, 2u, 3u})
    for (int Rep = 0; Rep < 50; ++Rep)
      ASSERT_NO_FATAL_FAILURE(expectEachRunsOnce(Pool, N));
}

TEST(ThreadPoolTest, BlockedSliceIsStolen) {
  // Worker 0's slice is [0, 8) of 16 tasks on 2 workers. Task 0 waits
  // until every other task has finished, so whichever worker holds it,
  // another worker must claim the rest of slice 0 — or task 0 itself was
  // claimed from slice 0 by worker 1. Either way the phase steals.
  constexpr size_t N = 16;
  ThreadPool Pool(2);
  uint64_t Before = Pool.steals();
  std::atomic<size_t> Done{0};
  std::atomic<bool> TimedOut{false};
  Pool.run(N, [&](size_t Payload, unsigned) {
    if (Payload == 0) {
      auto Deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (Done.load(std::memory_order_acquire) != N - 1) {
        if (std::chrono::steady_clock::now() > Deadline) {
          TimedOut.store(true);
          break;
        }
        std::this_thread::yield();
      }
    }
    Done.fetch_add(1, std::memory_order_acq_rel);
  });
  EXPECT_FALSE(TimedOut.load()) << "slice 0's tail was never stolen";
  EXPECT_EQ(Done.load(), N);
  EXPECT_GT(Pool.steals(), Before);
}

} // namespace
