//===- parallel/ThreadPool.cpp - Work-stealing thread pool ----------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "parallel/ThreadPool.h"

#include <cassert>

using namespace flix;

ThreadPool::ThreadPool(unsigned NumWorkers) : Slices(NumWorkers) {
  assert(NumWorkers > 0 && "a pool needs at least one worker");
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this, I] { workerMain(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ShuttingDown = true;
  }
  WakeWorkers.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::run(size_t NumTasks,
                     const std::function<void(size_t, unsigned)> &Fn) {
  if (NumTasks == 0)
    return;
  // Cut [0, NumTasks) into one contiguous slice per worker. No worker is
  // running, so plain stores are safe; the Generation bump under Mu
  // publishes them.
  unsigned W = numWorkers();
  size_t Per = NumTasks / W, Extra = NumTasks % W;
  size_t Next = 0;
  for (unsigned I = 0; I < W; ++I) {
    Slice &S = Slices[I];
    S.Next.store(Next, std::memory_order_relaxed);
    Next += Per + (I < Extra ? 1 : 0);
    S.End = Next;
  }
  assert(Next == NumTasks);

  std::unique_lock<std::mutex> Lock(Mu);
  PhaseFn = &Fn;
  Active = W;
  ++Generation;
  WakeWorkers.notify_all();
  PhaseDone.wait(Lock, [this] { return Active == 0; });
  PhaseFn = nullptr;
}

void ThreadPool::workerMain(unsigned Me) {
  uint64_t SeenGeneration = 0;
  unsigned W = numWorkers();
  for (;;) {
    const std::function<void(size_t, unsigned)> *Fn;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      WakeWorkers.wait(Lock, [&] {
        return ShuttingDown || Generation != SeenGeneration;
      });
      if (ShuttingDown)
        return;
      SeenGeneration = Generation;
      Fn = PhaseFn;
    }

    // Own slice first, then each victim's in turn. Every task is claimed
    // by exactly one fetch_add; once a cursor passes its End that slice
    // stays exhausted for the phase.
    for (unsigned Off = 0; Off < W; ++Off) {
      Slice &S = Slices[(Me + Off) % W];
      for (;;) {
        size_t Task = S.Next.fetch_add(1, std::memory_order_relaxed);
        if (Task >= S.End)
          break;
        if (Off != 0)
          ++Slices[Me].Steals;
        (*Fn)(Task, Me);
      }
    }

    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (--Active == 0)
        PhaseDone.notify_one();
    }
  }
}

uint64_t ThreadPool::steals() const {
  // Quiescent-state read: called between phases by the coordinator.
  uint64_t N = 0;
  for (const Slice &S : Slices)
    N += S.Steals;
  return N;
}
