//===- perfbench/src/Samples.h - Timed samples and the run loop -*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The raw samples behind the end-to-end metrics, the run loop every
/// workload shares, and the measuring and checking helpers more than one
/// workload uses.
///
/// Timings are summarized per window of the run, and a metric is the
/// median of its window statistics. On a machine shared with other
/// tenants, every operation slows by up to 1.6x for stretches of one to
/// several seconds; the median of per-window values passes over such
/// stretches while they cover less than half the run, yet any slowdown
/// that covers most of the run -- a change to the code, or one confined
/// to an older server or a later phase that fills most windows -- moves
/// it.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_PERFBENCH_SAMPLES_H
#define FLIX_PERFBENCH_SAMPLES_H

#include "Harness.h"

#include "incremental/IncrementalSolver.h"
#include "lang/Compiler.h"

#include <malloc.h>
#include <sched.h>
#include <thread>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

/// One kind of timed sample, summarized as it arrives: a window closes
/// once it spans WindowSeconds and holds MinPerWindow samples, keeping
/// only its median and p90, so memory stays flat however many operations
/// a run completes. With (0, 1) every sample is a window of its own.
class Series {
public:
  Series(double WindowSeconds, size_t MinPerWindow)
      : WindowSeconds(WindowSeconds), MinPerWindow(MinPerWindow) {}

  void add(double V) {
    double T = now();
    if (Cur.empty())
      CurStart = T;
    Cur.push_back(V);
    ++Count;
    if (T - CurStart >= WindowSeconds && Cur.size() >= MinPerWindow)
      close();
  }

  /// Closes the open window: as a window of its own if it is full enough
  /// or no window exists yet; otherwise its few samples are dropped.
  void finish() {
    if (!Cur.empty() && (Cur.size() >= MinPerWindow || P50.empty()))
      close();
    Cur.clear();
  }

  /// Median over the windows of their medians and of their p90s (call
  /// finish() first).
  double p50() const { return median(P50); }
  double p90() const { return median(P90); }
  size_t samples() const { return Count; }

private:
  void close() {
    P50.push_back(percentile(Cur, 0.5));
    P90.push_back(percentile(Cur, 0.9));
    Cur.clear();
  }

  double WindowSeconds;
  size_t MinPerWindow;
  double CurStart = 0;
  size_t Count = 0;
  std::vector<double> Cur, P50, P90;
};

/// Window of the update and query series: shorter than the contended
/// stretches, long enough for a precise median of sub-ms operations.
constexpr double OpWindowSeconds = 0.5;

/// Runs a fixed piece of work that shares no code with flix and returns
/// its wall time in ms: 2^17 inserts and 2^18 probes, half of them
/// misses, on a 2 MiB open-addressing hash table, then 2^15 inserts and
/// lookups in a node-based std::unordered_map that is freed again -- the
/// random access and allocation of the engine's tables and indexes. Its
/// time measures the machine's speed at the moment, whatever the code
/// under test does.
inline double calibrationKernelMs() {
  constexpr unsigned Bits = 18;
  constexpr size_t Slots = size_t(1) << Bits, Keys = Slots / 2;
  thread_local std::vector<uint64_t> Table(Slots);
  std::fill(Table.begin(), Table.end(), 0);
  auto stream = [](uint64_t Seed) {
    return [X = Seed]() mutable {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      return X | 1;
    };
  };
  auto slot = [&](uint64_t K) {
    size_t H = size_t((K * 0x9e3779b97f4a7c15ULL) >> (64 - Bits));
    while (Table[H] != 0 && Table[H] != K)
      H = (H + 1) & (Slots - 1);
    return H;
  };
  double T0 = now();
  auto Inserted = stream(0x2545f4914f6cdd1dULL);
  for (size_t I = 0; I < Keys; ++I) {
    uint64_t K = Inserted();
    Table[slot(K)] = K;
  }
  auto Hits = stream(0x2545f4914f6cdd1dULL), Misses = stream(0x5851f42dULL);
  uint64_t Found = 0;
  for (size_t I = 0; I < Keys; ++I) {
    uint64_t K = Hits();
    Found += Table[slot(K)] == K;
    K = Misses();
    Found += Table[slot(K)] == K;
  }
  std::unordered_map<uint64_t, uint64_t> Nodes;
  auto Node = stream(0x14057b7ef767814fULL);
  for (size_t I = 0; I < Keys / 4; ++I)
    Nodes.emplace(Node(), I);
  auto Again = stream(0x14057b7ef767814fULL);
  for (size_t I = 0; I < Keys / 4; ++I)
    Found += Nodes.count(Again());
  Nodes = {};
  double Ms = (now() - T0) * 1e3;
  if (Found < Keys + Keys / 4)
    fatal("calibration kernel lost keys");
  return Ms;
}

/// The calibration kernel run on \p Threads threads at once (a workload's
/// worker count, since its workers share the machine's load); returns
/// the mean time.
inline double calibrationMs(unsigned Threads) {
  std::vector<double> Ms(Threads, 0);
  std::vector<std::thread> Others;
  for (unsigned I = 1; I < Threads; ++I)
    Others.emplace_back([&Ms, I] { Ms[I] = calibrationKernelMs(); });
  Ms[0] = calibrationKernelMs();
  for (std::thread &T : Others)
    T.join();
  double Sum = 0;
  for (double M : Ms)
    Sum += M;
  return Sum / double(Threads);
}

/// The kernel time the reported timings are scaled to (see addEndToEnd).
/// Only ratios between runs matter; 6 ms is a round figure near the
/// kernel's uncontended time on the 4-vCPU Intel Xeon VM the benchmark was
/// developed on.
constexpr double NominalKernelMs = 6.0;

/// How often the run loop times the calibration kernel.
constexpr double CalibrationEverySeconds = 0.25;

struct Samples {
  Series Kernel{0, 1};      ///< ms per calibration kernel run
  Series Setup{0, 1};       ///< seconds per set-up
  Series Solve{0, 1};       ///< wall ms per full solve
  Series SolveCpu{0, 1};    ///< process CPU ms per full solve
  Series Update{OpWindowSeconds, 16}; ///< ms per update operation
  Series Query{OpWindowSeconds, 16};  ///< ms per point query

  void finish() {
    for (Series *S : {&Kernel, &Setup, &Solve, &SolveCpu, &Update, &Query})
      S->finish();
  }
};

/// The end-to-end metrics of BENCHMARK.json, with their sample counts.
/// Timings are scaled to the nominal machine speed: each median is
/// divided by Slowdown, the calibration kernel's median time over its
/// nominal time. The host's load moves every timing of a run by up to
/// 1.6x for a quarter of an hour at a time, in step with the kernel; a
/// change to flix moves the timings and not the kernel. The run record
/// keeps Slowdown, so the measured values are value x slowdown.
inline void addEndToEnd(Result &R, const Samples &S) {
  double Slowdown = S.Kernel.p50() / NominalKernelMs;
  R.note("calibration_kernel_ms", std::to_string(S.Kernel.p50()));
  R.note("slowdown", std::to_string(Slowdown));
  auto timing = [&](const char *Name, double Measured, const char *Unit,
                    const Series &From) {
    R.add(Name, Measured / Slowdown, Unit, From.samples());
  };
  timing("setup_s", S.Setup.p50(), "s", S.Setup);
  timing("solve_p50_ms", S.Solve.p50(), "ms", S.Solve);
  timing("cpu_ms_per_solve", S.SolveCpu.p50(), "ms", S.SolveCpu);
  timing("update_p50_ms", S.Update.p50(), "ms", S.Update);
  timing("update_p90_ms", S.Update.p90(), "ms", S.Update);
  timing("query_p50_ms", S.Query.p50(), "ms", S.Query);
  R.add("peak_rss_mb", peakRssMb(), "MB");
}

/// Returns freed heap memory to the system, outside timed regions, so
/// that ru_maxrss follows the live data rather than the allocator's
/// leftovers from earlier phases and worker arenas.
inline void releaseFreedMemory() { malloc_trim(0); }

/// Moves the calling thread to the next CPU of its affinity set once per
/// Period, for a single-threaded workload. The host runs each virtual CPU
/// beside a different neighbour load, and that load changes over tens of
/// seconds; a thread left on one CPU makes a whole run fast or slow, while
/// a rotating one meets a slow CPU in a minority of windows, which the
/// median passes over. Restores the original affinity when destroyed.
class CpuRotation {
public:
  static constexpr double Period = 1.0;

  explicit CpuRotation(bool Enabled) {
    CPU_ZERO(&Original);
    if (!Enabled || sched_getaffinity(0, sizeof(Original), &Original) != 0)
      return;
    for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Original))
        Cpus.push_back(Cpu);
  }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;
  ~CpuRotation() {
    if (Cpus.size() > 1)
      sched_setaffinity(0, sizeof(Original), &Original);
  }

  void tick() {
    if (Cpus.size() < 2 || now() < Next)
      return;
    Next = now() + Period;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Turn++ % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }

private:
  cpu_set_t Original;
  std::vector<int> Cpus;
  size_t Turn = 0;
  double Next = 0;
};

/// Runs one workload for the requested seconds: closed-loop cycles, with
/// a set-up before the first and then after every SetupEvery cycles. So
/// set-ups are spread through the run, not taken within one stretch of
/// the machine's load, and the state a set-up replaces has gone through
/// the same number of cycles whatever the machine's speed, which keeps
/// the peak memory a function of the inputs. The traced run spends its
/// first half untraced, as the baseline of the tracing overhead, and its
/// second half recording spans.
///
/// Workload provides setup(Tracer&, Result&) -> seconds (replacing the
/// state the cycles use with a fresh one), cycle(Tracer&, Samples&,
/// Result&), primary(const Samples&) -> the series the overhead is taken
/// on, reportLayers(Result&, const Samples&, Tracer&), and Threads, the
/// threads its operations run on (only a single-threaded workload's CPU
/// is rotated: threads a pinned thread starts inherit its one CPU).
template <typename Workload>
Result runWorkload(const RunConfig &C, int SetupEvery) {
  Result R;
  Workload W(C);
  Tracer Off, On;
  On.enable();
  R.note("workers", std::to_string(Workload::Threads));
  CpuRotation Rotation(Workload::Threads == 1);
  auto run = [&](double Seconds, Tracer &Tr, Samples &Out) {
    double End = now() + Seconds, NextKernel = 0;
    for (int I = 0; I < 2 || now() < End; ++I) {
      Rotation.tick();
      if (now() >= NextKernel) {
        Out.Kernel.add(calibrationMs(Workload::Threads));
        NextKernel = now() + CalibrationEverySeconds;
      }
      if (I % SetupEvery == 0) {
        Out.Setup.add(W.setup(Tr, R));
        releaseFreedMemory();
      }
      W.cycle(Tr, Out, R);
    }
    Out.finish();
  };
  Samples S;
  if (!C.Trace) {
    run(C.Seconds, Off, S);
    addEndToEnd(R, S);
    return R;
  }
  Samples Untraced;
  run(C.Seconds / 2, Off, Untraced);
  run(C.Seconds / 2, On, S);
  double Base = W.primary(Untraced).p50();
  R.add("trace.overhead_pct", ratio(W.primary(S).p50() - Base, Base) * 100,
        "%");
  W.reportLayers(R, S, On);
  addSelfShares(R, On);
  if (!C.SpansPath.empty() && !On.write(C.SpansPath))
    R.fail("cannot write spans to " + C.SpansPath);
  return R;
}

inline uint64_t packKey(int64_t A, int64_t B) {
  return (uint64_t(A) << 32) | uint64_t(uint32_t(B));
}

/// Order-independent digest of a set of (a, b) integer pairs: element
/// count plus a wrapping sum of mixed hashes. Compares an engine's model
/// with its reference without materializing both as sets.
struct PairDigest {
  uint64_t Count = 0;
  uint64_t Sum = 0;

  void add(int64_t A, int64_t B) {
    uint64_t X = packKey(A, B) + 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    Sum += X ^ (X >> 31);
    ++Count;
  }
  bool operator==(const PairDigest &O) const {
    return Count == O.Count && Sum == O.Sum;
  }
};

/// Digest of the live cells of a predicate with two Int key columns
/// (tombstoned rows, left by the incremental engine, are skipped).
inline PairDigest digestTable(const flix::ValueFactory &F,
                              const flix::Table &T) {
  PairDigest D;
  for (const flix::Table::Row &Row : T.rows()) {
    if (Row.Lat == T.botValue())
      continue;
    std::span<const flix::Value> K = F.tupleElems(Row.Key);
    D.add(K[0].asInt(), K[1].asInt());
  }
  return D;
}

/// Times Batches batches of Batch point lookups Pred(a, b) on a solved
/// model (one query sample per batch: batch time / Batch) and checks
/// every answer against \p RefSet.
template <typename SolverT>
void timePointQueries(const SolverT &Sv, flix::ValueFactory &F,
                      flix::PredId Pred,
                      const std::vector<std::pair<int, int>> &Keys,
                      size_t &Next, const std::unordered_set<uint64_t> &RefSet,
                      Tracer &Tr, Samples &S, Result &R) {
  constexpr int Batches = 32, Batch = 256;
  for (int B = 0; B < Batches; ++B) {
    bool Got[Batch];
    const std::pair<int, int> *K = &Keys[Next];
    Next = (Next + Batch) % Keys.size();
    double T0 = now();
    {
      auto Sp = Tr.span("fixpoint.query");
      for (int I = 0; I < Batch; ++I)
        Got[I] = Sv.contains(Pred,
                             {F.integer(K[I].first), F.integer(K[I].second)});
    }
    S.Query.add((now() - T0) * 1e3 / Batch);
    for (int I = 0; I < Batch; ++I) {
      ++R.Attempted;
      if (Got[I] != bool(RefSet.count(packKey(K[I].first, K[I].second))))
        R.fail("query (" + std::to_string(K[I].first) + ", " +
               std::to_string(K[I].second) + ") differs from the reference");
    }
  }
}

/// Incremental-engine counters of a run. Latencies cover every update;
/// the counts cover the first FirstUpdates updates only, whose inputs are
/// a function of the seed alone, so they repeat exactly across runs.
struct UpdateCounts {
  static constexpr size_t FirstUpdates = 16;
  size_t Seen = 0;
  uint64_t Firings = 0, CellsDeleted = 0, CellsRederived = 0,
           ChangedPreds = 0, VmCalls = 0;
  std::vector<double> Ms; ///< engine-reported ms of every update

  void record(const flix::UpdateStats &U) {
    Ms.push_back(U.Seconds * 1e3);
    if (Seen++ >= FirstUpdates)
      return;
    Firings += U.RuleFirings;
    CellsDeleted += U.CellsDeleted;
    CellsRederived += U.CellsRederived;
    ChangedPreds += U.ChangedPreds.size();
    VmCalls += U.VmCalls;
  }
  double counted() const { return double(std::min(Seen, FirstUpdates)); }
  void report(Result &R) const {
    R.add("incremental.update_p50_ms", median(Ms), "ms", Ms.size());
    R.add("incremental.update_p90_ms", percentile(Ms, 0.9), "ms", Ms.size());
    R.add("incremental.firings_per_update", ratio(double(Firings), counted()),
          "count");
    R.add("incremental.cells_deleted", double(CellsDeleted), "count");
    R.add("incremental.cells_rederived", double(CellsRederived), "count");
    R.add("incremental.rederive_ratio",
          ratio(double(CellsRederived), double(CellsDeleted)), "ratio");
  }
};

/// A compiled FLIX def and argument tuples to call it with.
struct VmProbe {
  std::string Def;
  std::vector<std::vector<flix::Value>> Args;
};

/// Mean ns per vm::Vm::call over the probed defs, each called Calls times
/// with its argument tuples in turn.
inline double vmNsPerCall(flix::FlixCompiler &C,
                          const std::vector<VmProbe> &Probes) {
  constexpr size_t Calls = 20000;
  double Total = 0;
  size_t Defs = 0;
  uint64_t Sink = 0;
  for (const VmProbe &P : Probes) {
    std::optional<uint32_t> Ix = C.vmFunctionIndex(P.Def);
    if (!Ix || !C.vm() || P.Args.empty())
      continue;
    double T0 = now();
    for (size_t I = 0; I < Calls; ++I)
      Sink += C.vm()->call(*Ix, P.Args[I % P.Args.size()]).rawBits();
    Total += (now() - T0) * 1e9 / Calls;
    ++Defs;
  }
  // Keeps the calls observable; the sum itself is meaningless.
  if (Sink == 1)
    std::fputc(' ', stderr);
  return ratio(Total, double(Defs));
}

} // namespace perfbench

#endif // FLIX_PERFBENCH_SAMPLES_H
