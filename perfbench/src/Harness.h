//===- perfbench/src/Harness.h - Shared benchmark plumbing -----*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: wall and CPU
/// clocks, sample summaries, the metric sink that becomes the result
/// line, and the span recorder of the traced run.
///
/// A workload runs a closed loop of timed operations for the requested
/// number of seconds, with set-ups repeated through it, and checks every
/// output against an independent reference. It reports through a Result: op counts, failures, and
/// either its end-to-end metrics (untraced run) or its per-layer
/// metrics (traced run).
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_PERFBENCH_HARNESS_H
#define FLIX_PERFBENCH_HARNESS_H

#include "fixpoint/Solver.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <sys/resource.h>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in seconds.
inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+sys CPU time in seconds (all threads).
inline double cpuNow() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         double(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this process in MB (ru_maxrss is in KiB).
inline double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

/// Nearest-rank percentile \p P in [0, 1] of \p Xs (0 when empty).
inline double percentile(std::vector<double> Xs, double P) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t I = size_t(P * double(Xs.size() - 1) + 0.5);
  return Xs[std::min(I, Xs.size() - 1)];
}

inline double median(const std::vector<double> &Xs) {
  return percentile(Xs, 0.5);
}

inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Ends the run without a result line: for broken inputs or harness
/// bugs, never for a wrong answer (that is a failed operation).
[[noreturn]] inline void fatal(const std::string &Why) {
  std::fprintf(stderr, "flix_perfbench: %s\n", Why.c_str());
  std::exit(1);
}

/// Command-line settings of one run.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny inputs for the correctness self-test (not for timing).
  bool Tiny = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string SpansPath;
};

/// One traced call into a layer: name, start and end (seconds on the
/// steady clock), the index of the enclosing span (-1 at top level) and
/// the serve workload's request id (-1 elsewhere).
struct Span {
  const char *Name;
  double Start, End;
  int Parent;
  int64_t Request;
};

/// In-memory span recorder of the traced run. Disabled, every call is a
/// branch on one flag. Spans nest through RAII scopes on one thread.
class Tracer {
public:
  class Scope {
  public:
    Scope(Tracer *T, int Idx) : T(T), Idx(Idx) {}
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() {
      if (T)
        T->end(Idx);
    }

  private:
    Tracer *T;
    int Idx;
  };

  void enable() { On = true; }

  [[nodiscard]] Scope span(const char *Name, int64_t Request = -1) {
    return On ? Scope(this, begin(Name, Request)) : Scope(nullptr, -1);
  }

  /// Unscoped form for spans that end mid-block: begin() returns the
  /// span's index (-1 when disabled) for the matching end().
  int begin(const char *Name, int64_t Request = -1) {
    if (!On)
      return -1;
    int Idx = int(Spans.size());
    Spans.push_back({Name, now(), 0, Cur, Request});
    Cur = Idx;
    return Idx;
  }
  void end(int Idx) {
    if (Idx < 0)
      return;
    Spans[size_t(Idx)].End = now();
    Cur = Spans[size_t(Idx)].Parent;
  }

  /// Self time per span name, in seconds: each span's duration minus
  /// the time its direct children cover.
  std::map<std::string, double> selfSeconds() const {
    std::vector<double> ChildTime(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildTime[size_t(S.Parent)] += S.End - S.Start;
    std::map<std::string, double> Out;
    for (size_t I = 0; I < Spans.size(); ++I)
      Out[Spans[I].Name] += Spans[I].End - Spans[I].Start - ChildTime[I];
    return Out;
  }

  /// Writes one JSON object per span (JSON lines). Returns false if the
  /// file cannot be written.
  bool write(const std::string &Path) const {
    std::FILE *Out = std::fopen(Path.c_str(), "w");
    if (!Out)
      return false;
    double T0 = Spans.empty() ? 0 : Spans.front().Start;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(Out,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %d, \"request\": %lld}\n",
                   I, S.Name, (S.Start - T0) * 1e6, (S.End - T0) * 1e6,
                   S.Parent, (long long)S.Request);
    }
    return std::fclose(Out) == 0;
  }

private:
  bool On = false;
  int Cur = -1;
  std::vector<Span> Spans;
};

/// Everything a workload reports. Metrics keep insertion order.
struct Result {
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
    size_t Samples;
  };

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Human-readable reasons for the first few failures.
  std::vector<std::string> Failures;
  std::vector<Metric> Metrics;
  /// Extra run-record fields (worker count, input sizes, ...).
  std::vector<std::pair<std::string, std::string>> Record;

  void add(std::string Name, double Value, std::string Unit,
           size_t Samples = 1) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit), Samples});
  }
  /// Sets a run-record field; a later note replaces an earlier value.
  void note(std::string Key, std::string Value) {
    for (auto &[K, V] : Record)
      if (K == Key) {
        V = std::move(Value);
        return;
      }
    Record.emplace_back(std::move(Key), std::move(Value));
  }
  /// Counts one failed operation with its reason.
  void fail(std::string Why) {
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(std::move(Why));
  }
};

/// The solve-engine counters of one solve, in the per-layer metric names
/// of BENCHMARK.json; \p SolveSeconds and \p CpuSeconds are the medians
/// the ratios are taken over.
inline void addSolveLayerMetrics(Result &R, const flix::SolveStats &St,
                                 double SolveSeconds, double CpuSeconds) {
  double Calls = double(St.MemoHits + St.MemoMisses);
  R.add("fixpoint.firings", double(St.RuleFirings), "count");
  R.add("fixpoint.facts_derived", double(St.FactsDerived), "count");
  R.add("fixpoint.derive_ratio",
        ratio(double(St.FactsDerived), double(St.RuleFirings)), "ratio");
  R.add("fixpoint.rounds", double(St.Iterations), "count");
  R.add("fixpoint.memo_hit_ratio", ratio(double(St.MemoHits), Calls),
        "ratio");
  R.add("fixpoint.ns_per_firing",
        ratio(SolveSeconds * 1e9, double(St.RuleFirings)), "ns");
  R.add("fixpoint.memory_mb", double(St.MemoryBytes) / (1024.0 * 1024.0),
        "MB");
  R.add("plan.replan_events", double(St.ReplanEvents), "count");
  R.add("plan.cost_based_plans", double(St.CostBasedPlans), "count");
  R.add("vm.calls", double(St.VmCalls), "count");
  R.add("vm.ic_hit_ratio",
        ratio(double(St.VmInlineCacheHits), double(St.VmCalls)), "ratio");
  R.add("vm.interp_fallbacks", double(St.InterpFallbacks), "count");
  R.add("parallel.tasks", double(St.ParallelTasks), "count");
  R.add("parallel.steal_ratio",
        ratio(double(St.ParallelSteals), double(St.ParallelTasks)), "ratio");
  R.add("parallel.merge_collisions", double(St.MergeCollisions), "count");
  R.add("parallel.spawned_subtasks", double(St.SpawnedSubtasks), "count");
  R.add("parallel.busy_cores", ratio(CpuSeconds, SolveSeconds), "cores");
  R.add("parallel.index_fallbacks", double(St.IndexFallbacks), "count");
}

/// Self-time shares of the traced run per layer, where a span counts for
/// the layer its name starts with ("lang.compile" for lang). The
/// reference solvers and the harness's own checks are shares too, so the
/// shares sum to 1.
inline void addSelfShares(Result &R, const Tracer &T) {
  static const char *Layers[] = {"lang",        "fixpoint", "parallel",
                                 "incremental", "server",   "reference",
                                 "harness"};
  std::map<std::string, double> Self = T.selfSeconds();
  double Total = 0;
  for (const auto &[Name, S] : Self)
    Total += S;
  for (const char *L : Layers) {
    double Sum = 0;
    std::string Prefix = std::string(L) + ".";
    for (const auto &[Name, S] : Self)
      if (Name.rfind(Prefix, 0) == 0)
        Sum += S;
    R.add(std::string("self_share.") + L, ratio(Sum, Total), "ratio");
  }
}

/// Workload entry points (one translation unit each).
Result runIfdsTrivial(const RunConfig &C);
Result runSuSourcePar2(const RunConfig &C);
Result runServeChurn(const RunConfig &C);

} // namespace perfbench

#endif // FLIX_PERFBENCH_HARNESS_H
