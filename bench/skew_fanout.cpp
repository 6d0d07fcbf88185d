//===- bench/skew_fanout.cpp - Hub skew across thread counts --------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// Measures the round executor (DESIGN.md §11) on a deliberately skewed
// workload: transitive closure over a star graph whose hub node owns
// almost every edge, so each delta round funnels through one hot index
// bucket. The executor splits a round only by driver-row chunks, so the
// task that probes the hub bucket runs on one worker while the others
// steal the rest; the bench shows what that costs at each thread count.
// It sweeps worker counts and reports wall time, speedup over the
// sequential engine and steals; every run is checked against the
// sequential solver's model size.
//
// A second section ablates the cost-based join planner (DESIGN.md §16):
// transitive closure plus a deliberately misordered three-atom join
// (`Hit(x,w) :- Path(x,y), Fan(z,w), Mid(y,z)` — the unbound Fan scan
// sits before the Mid atom that would bind z). The frozen textual order
// pays |Path| x |Fan| per round; the cost model hoists Mid. Each mode
// (greedy / cost / adaptive) runs on a skewed star graph (Path outgrows
// Edge, forcing mid-solve re-plans) and a uniform matching graph (stable
// shapes, re-plans must stay at zero).
//
// Options:
//   --threads <csv>        worker counts to sweep (default 1,2,4,8; 0 runs
//                          the sequential engine)
//   --json <file>          write one machine-readable record per run
//   --planner-json <file>  write the planner-ablation records (BENCH_planner)
//   --planner-only         skip the thread sweep, run only the ablation
//
// Environment overrides:
//   FLIX_SKEW_FANOUT       hub out-degree             (default 5000)
//   FLIX_SKEW_FEEDERS      nodes with an edge to the hub (default 32)
//   FLIX_SKEW_REPS         repetitions, median reported  (default 1)
//   FLIX_PLANNER_FANOUT    ablation hub out-degree       (default 100)
//   FLIX_PLANNER_FEEDERS   ablation feeder count         (default 10)
//   FLIX_PLANNER_FAN       Fan relation rows             (default 3500)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "fixpoint/Solver.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace flix;
using namespace flix::bench;

namespace {

struct SkewProgram {
  ValueFactory F;
  Program P{F};
  PredId Edge, Path;

  SkewProgram(int Fanout, int Feeders) {
    Edge = P.relation("Edge", 2);
    Path = P.relation("Path", 2);
    RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
    RuleBuilder()
        .head(Path, {"x", "z"})
        .atom(Path, {"x", "y"})
        .atom(Edge, {"y", "z"})
        .addTo(P);
    for (int I = 1; I <= Fanout; ++I)
      P.addFact(Edge, {F.integer(0), F.integer(I)});
    for (int I = 0; I < Feeders; ++I)
      P.addFact(Edge, {F.integer(1000000 + I), F.integer(0)});
  }
};

double median(long Reps, const std::function<double()> &Run) {
  std::vector<double> Times;
  for (long R = 0; R < Reps; ++R)
    Times.push_back(Run());
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

/// Planner-ablation workload: TC over Edge plus a misordered join whose
/// textual order scans the large Fan relation once per Path row. Skewed
/// facts form the hub star (Path explodes past Edge mid-solve); uniform
/// facts form a disjoint matching (Path == Edge, shapes never drift).
struct PlannerProgram {
  ValueFactory F;
  Program P{F};
  PredId Edge, Path, Mid, Fan, Hit;

  PlannerProgram(bool Skewed, int Fanout, int Feeders, int FanRows) {
    Edge = P.relation("Edge", 2);
    Path = P.relation("Path", 2);
    Mid = P.relation("Mid", 2);
    Fan = P.relation("Fan", 2);
    Hit = P.relation("Hit", 2);
    RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
    RuleBuilder()
        .head(Path, {"x", "z"})
        .atom(Path, {"x", "y"})
        .atom(Edge, {"y", "z"})
        .addTo(P);
    // Misordered on purpose: Fan(z, w) is unbound until Mid binds z.
    RuleBuilder()
        .head(Hit, {"x", "w"})
        .atom(Path, {"x", "y"})
        .atom(Fan, {"z", "w"})
        .atom(Mid, {"y", "z"})
        .addTo(P);
    if (Skewed) {
      for (int I = 1; I <= Fanout; ++I)
        P.addFact(Edge, {F.integer(0), F.integer(I)});
      for (int J = 0; J < Feeders; ++J)
        P.addFact(Edge, {F.integer(1000000 + J), F.integer(0)});
    } else {
      for (int I = 1; I <= Fanout; ++I)
        P.addFact(Edge, {F.integer(I), F.integer(1000000 + I)});
    }
    // Small per-key Fan buckets keep |Hit| bounded; the trap is the scan,
    // not the output size.
    int Keys = std::max(1, FanRows / 8);
    for (int I = 0; I <= Fanout; ++I)
      P.addFact(Mid, {F.integer(Skewed ? I : 1000000 + I),
                      F.integer(I % Keys)});
    for (int R = 0; R < FanRows; ++R)
      P.addFact(Fan, {F.integer(R % Keys), F.integer(R)});
  }
};

struct PlannerMode {
  const char *Name;
  bool CostBased;
  double ReplanThreshold;
};

constexpr PlannerMode PlannerModes[] = {
    {"greedy", false, 0.0},
    {"cost", true, 0.0},
    {"adaptive", true, 2.0},
};

} // namespace

int main(int Argc, char **Argv) {
  int Fanout = static_cast<int>(envInt("FLIX_SKEW_FANOUT", 5000));
  int Feeders = static_cast<int>(envInt("FLIX_SKEW_FEEDERS", 32));
  long Reps = envInt("FLIX_SKEW_REPS", 1);

  int PFanout = static_cast<int>(envInt("FLIX_PLANNER_FANOUT", 100));
  int PFeeders = static_cast<int>(envInt("FLIX_PLANNER_FEEDERS", 10));
  int PFan = static_cast<int>(envInt("FLIX_PLANNER_FAN", 3500));

  std::string JsonPath, PlannerJsonPath;
  bool PlannerOnly = false;
  std::vector<unsigned> Threads{1, 2, 4, 8};
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--json" && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else if (Arg == "--planner-json" && I + 1 < Argc) {
      PlannerJsonPath = Argv[++I];
    } else if (Arg == "--planner-only") {
      PlannerOnly = true;
    } else if (Arg == "--threads" && I + 1 < Argc) {
      Threads.clear();
      if (!parseThreadList(Argv[++I], Threads)) {
        std::fprintf(stderr, "error: --threads wants e.g. 1,2,8\n");
        return 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: skew_fanout [--threads <csv>] [--json <file>] "
                   "[--planner-json <file>] [--planner-only]\n");
      return 1;
    }
  }

  bool AllOk = true;

  // --- Planner ablation: greedy vs cost vs adaptive join orders. -------
  {
    JsonReport PJson;
    std::printf("Join-planner ablation: TC + misordered 3-atom join, "
                "hub out-degree %d, %d feeders, %d Fan rows "
                "(median of %ld run(s), sequential engine)\n\n",
                PFanout, PFeeders, PFan, Reps);
    for (bool Skewed : {true, false}) {
      const char *Workload = Skewed ? "skewed" : "uniform";
      double GreedyTime = 0;
      size_t ExpPath = 0, ExpHit = 0;
      for (const PlannerMode &M : PlannerModes) {
        SolveStats St;
        size_t PathRows = 0, HitRows = 0;
        double Time = median(Reps, [&] {
          PlannerProgram W(Skewed, PFanout, PFeeders, PFan);
          SolverOptions Opts;
          Opts.CostBasedPlans = M.CostBased;
          Opts.ReplanThreshold = M.ReplanThreshold;
          Solver S(W.P, Opts);
          St = S.solve();
          PathRows = S.table(W.Path).size();
          HitRows = S.table(W.Hit).size();
          return St.Seconds;
        });
        // Every mode must reach the identical minimal model (the greedy
        // run fixes the expected sizes).
        if (&M == &PlannerModes[0]) {
          GreedyTime = Time;
          ExpPath = PathRows;
          ExpHit = HitRows;
        }
        bool Ok = St.ok() && PathRows == ExpPath && HitRows == ExpHit;
        if (!Ok) {
          std::printf("WARNING: planner run disagrees with greedy "
                      "baseline (workload=%s mode=%s)!\n", Workload,
                      M.Name);
          AllOk = false;
        }
        double NsPerFiring =
            Time * 1e9 / static_cast<double>(std::max<uint64_t>(
                             St.RuleFirings, 1));
        double Speedup = GreedyTime / std::max(Time, 1e-9);
        std::printf("planner %-7s %-8s: %8.3fs, %9llu firings, "
                    "%10.1f ns/firing, speedup_vs_greedy=%.2fx, "
                    "replan_events=%llu, cost_based_orders=%llu, "
                    "row_drift=%llu, plan_checks=%llu\n",
                    Workload, M.Name, Time,
                    static_cast<unsigned long long>(St.RuleFirings),
                    NsPerFiring, Speedup,
                    static_cast<unsigned long long>(St.ReplanEvents),
                    static_cast<unsigned long long>(St.CostBasedPlans),
                    static_cast<unsigned long long>(
                        St.EstimatedVsActualRows),
                    static_cast<unsigned long long>(St.PlanChecks));
        std::fflush(stdout);
        if (!PlannerJsonPath.empty()) {
          PJson.begin();
          PJson.str("bench", "planner")
              .str("workload", Workload)
              .str("mode", M.Name)
              .integer("fanout", PFanout)
              .integer("feeders", PFeeders)
              .integer("fan_rows", PFan)
              .num("replan_threshold", M.ReplanThreshold)
              .num("seconds", Time)
              .integer("rule_firings",
                       static_cast<long long>(St.RuleFirings))
              .num("ns_per_firing", NsPerFiring)
              .num("speedup_vs_greedy", Speedup)
              .integer("plan_checks", static_cast<long long>(St.PlanChecks))
              .integer("replan_events",
                       static_cast<long long>(St.ReplanEvents))
              .integer("cost_based_plans",
                       static_cast<long long>(St.CostBasedPlans))
              .integer("estimated_vs_actual_rows",
                       static_cast<long long>(St.EstimatedVsActualRows))
              .boolean("ok", Ok);
          PJson.end();
        }
      }
      std::printf("\n");
    }
    std::printf("greedy freezes the textual body order; cost picks orders "
                "once from table\nstatistics; adaptive re-plans between "
                "rounds when shapes drift past the\nhysteresis "
                "threshold.\n\n");
    if (!PlannerJsonPath.empty() && !PJson.write(PlannerJsonPath)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   PlannerJsonPath.c_str());
      return 1;
    }
  }
  if (PlannerOnly)
    return AllOk ? 0 : 2;

  JsonReport Json;
  JsonReport *JsonP = JsonPath.empty() ? nullptr : &Json;

  std::printf("Skewed fan-out: transitive closure, hub out-degree %d, "
              "%d feeders (median of %ld run(s))\n\n",
              Fanout, Feeders, Reps);

  // Sequential baseline fixes the expected model size.
  size_t ExpectedPaths;
  double SeqTime;
  {
    SkewProgram W(Fanout, Feeders);
    Solver Seq(W.P);
    SolveStats St = Seq.solve();
    if (!St.ok()) {
      std::fprintf(stderr, "error: sequential baseline failed: %s\n",
                   St.Error.c_str());
      return 1;
    }
    SeqTime = St.Seconds;
    ExpectedPaths = Seq.table(W.Path).size();
  }
  std::printf("sequential: %.3fs, %zu Path rows\n\n", SeqTime,
              ExpectedPaths);

  std::printf("%8s | %9s %8s %8s\n", "threads", "time(s)", "speedup",
              "steals");
  std::printf("-------------------------------------------\n");

  for (unsigned T : Threads) {
    SolveStats St;
    bool Ok = true;
    double Time = median(Reps, [&] {
      SkewProgram W(Fanout, Feeders);
      SolverOptions Opts;
      Opts.NumThreads = T;
      Solver S(W.P, Opts);
      St = S.solve();
      Ok = St.ok() && S.table(W.Path).size() == ExpectedPaths;
      return St.Seconds;
    });
    if (!Ok) {
      std::printf("WARNING: run disagrees with sequential baseline "
                  "(threads=%u)!\n", T);
      AllOk = false;
    }
    std::printf("%8u | %9.3f %7.2fx %8llu\n", T, Time,
                SeqTime / std::max(Time, 1e-9),
                static_cast<unsigned long long>(St.ParallelSteals));
    std::fflush(stdout);
    if (JsonP) {
      Json.begin();
      Json.str("bench", "skew_fanout")
          .integer("fanout", Fanout)
          .integer("feeders", Feeders)
          .integer("threads", T)
          .num("seconds", Time)
          .num("speedup", SeqTime / std::max(Time, 1e-9))
          .integer("parallel_steals",
                   static_cast<long long>(St.ParallelSteals))
          .boolean("ok", Ok);
      Json.end();
    }
  }

  if (JsonP && !Json.write(JsonPath)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
    return 1;
  }
  return AllOk ? 0 : 2;
}
