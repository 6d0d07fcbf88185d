//===- bench/table2_ifds.cpp - Table 2 reproduction ------------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 2: the IFDS framework on DaCapo-shaped synthetic
// interprocedural CFGs (see DESIGN.md §3), comparing the hand-coded
// imperative tabulation solver (the paper's "Scala" column) with the
// declarative Figure 5 formulation on the fixpoint engine (the paper's
// "Flix" column). Both call the same flow-function implementations, as in
// the paper's evaluation (§4.5).
//
// Two regimes are reported:
//   * realistic flow functions (default, like the paper): both solvers
//     call the same nontrivial transfer-function code, whose cost
//     dominates — the paper reports a 2.5-3.1x slowdown in this regime;
//   * trivial flow functions (engine-bound): isolates the pure overhead
//     of the generic engine over the bare worklist algorithm.
//
// A plan/memo ablation section then re-runs the declarative solver
// (compiled plans) with EnableMemo off and on and reports ns per rule
// firing (firings are identical across regimes, so this normalizes out
// workload size); the JSON records carry regime "plan_memo".
//
// A VM-engine ablation section follows (regime "vm_engine",
// BENCH_vm.json): IFDS registers its flow functions as native C++
// externs, which the execution engine cannot speed up, so this section
// solves a FLIX-*source* gen/kill reachability program over the same
// ICFGs — the lattice operations and the transfer function are FLIX
// defs, putting the interp-vs-bytecode-VM choice on the solve hot path.
//
// Options:
//   --threads <csv>    also run the declarative solver through the
//                      parallel engine at each listed worker count
//                      (0 = the sequential solver) and report a scaling
//                      section; results are cross-checked against the
//                      imperative solver at every thread count. Speedups
//                      (the row's column for the largest count, and each
//                      JSON record's "speedup") are against T=0 when it
//                      is listed, else against the first count given
//   --json <file>      write one machine-readable record per solver run
//
// Environment overrides:
//   FLIX_TABLE2_REPS        repetitions per row, median reported
//                           (default 1)
//   FLIX_TABLE2_WORK        transfer-function busy-work iterations
//                           (default 2500 ≈ 5 µs; 0 = trivial regime
//                           only)
//   FLIX_TABLE2_VM_PRESETS  DaCapo presets covered by the VM-engine
//                           ablation, smallest first (default 3; the
//                           interp lane is the bottleneck)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analyses/Ifds.h"
#include "fixpoint/Solver.h"
#include "lang/Compiler.h"
#include "workload/IcfgWorkload.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

using namespace flix;
using namespace flix::bench;

namespace {

double median(long Reps, const std::function<double()> &Run) {
  std::vector<double> Times;
  for (long R = 0; R < Reps; ++R)
    Times.push_back(Run());
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

void runRegime(const char *Title, const char *RegimeKey, int TransferWork,
               long Reps, bool CheckAgainstPaper, JsonReport *Json) {
  // The paper's slowdowns, for side-by-side display.
  static const double PaperSlowdown[] = {2.7, 2.5, 2.5, 2.9, 2.7, 3.1};
  int RowIdx = 0;
  std::printf("%s\n", Title);
  std::printf("%-10s %8s %8s | %12s %10s %10s%s\n", "Program", "Nodes",
              "Facts", "Imperative(s)", "Flix(s)", "Slowdown",
              CheckAgainstPaper ? "    Paper" : "");
  std::printf("%.*s\n", CheckAgainstPaper ? 76 : 66,
              "------------------------------------------------------------"
              "--------------------");

  for (const DacapoPreset &Preset : dacapoPresets()) {
    IcfgProgram G = generateIcfg(/*Seed=*/2016, Preset.NumProcs,
                                 Preset.NodesPerProc, Preset.FactsTotal,
                                 Preset.CallsPerProc);
    G.TransferWork = TransferWork;
    IfdsProblem Prob = G.toIfdsProblem();

    IfdsResult Imp, Flix;
    double ImpTime = median(Reps, [&] {
      Imp = runIfdsImperative(Prob);
      return Imp.Seconds;
    });
    double FlixTime = median(Reps, [&] {
      Flix = runIfdsFlix(Prob);
      return Flix.Seconds;
    });

    if (!Flix.Ok || !Flix.sameResult(Imp))
      std::printf("WARNING: solvers disagree on %s!\n",
                  Preset.Name.c_str());

    std::printf("%-10s %8d %8zu | %12.3f %10.3f %9.1fx",
                Preset.Name.c_str(), G.NumNodes, Flix.Result.size(),
                ImpTime, FlixTime, FlixTime / std::max(ImpTime, 1e-9));
    if (CheckAgainstPaper)
      std::printf("%8.1fx", PaperSlowdown[RowIdx]);
    std::printf("\n");
    ++RowIdx;
    std::fflush(stdout);

    if (Json) {
      Json->begin();
      Json->str("bench", "table2_ifds")
          .str("regime", RegimeKey)
          .str("program", Preset.Name)
          .integer("nodes", G.NumNodes)
          .str("solver", "imperative")
          .integer("threads", 0)
          .num("seconds", ImpTime)
          .boolean("ok", Imp.Ok);
      Json->end();
      Json->begin();
      Json->str("bench", "table2_ifds")
          .str("regime", RegimeKey)
          .str("program", Preset.Name)
          .integer("nodes", G.NumNodes)
          .str("solver", "flix")
          .integer("threads", 0)
          .num("seconds", FlixTime)
          .boolean("ok", Flix.Ok && Flix.sameResult(Imp));
      Json->end();
    }
  }
  std::printf("\n");
}

void runScaling(const std::vector<unsigned> &Threads, int TransferWork,
                long Reps, JsonReport *Json) {
  // Speedups are relative to the sequential engine (T=0) when it is
  // listed, else to the first count given, wherever it sits in the list;
  // the row's speedup column is the largest count's.
  unsigned BaseT =
      std::find(Threads.begin(), Threads.end(), 0u) != Threads.end()
          ? 0
          : Threads.front();
  unsigned MaxT = *std::max_element(Threads.begin(), Threads.end());
  std::printf("Parallel scaling (declarative solver; 0 = sequential "
              "engine):\n");
  std::printf("%-10s", "Program");
  for (unsigned T : Threads)
    std::printf(" %8s", ("T=" + std::to_string(T)).c_str());
  std::printf("  speedup (T=%u vs T=%u)\n", MaxT, BaseT);
  std::printf("%.*s\n",
              static_cast<int>(12 + 9 * Threads.size() + 24),
              "------------------------------------------------------------"
              "--------------------");

  for (const DacapoPreset &Preset : dacapoPresets()) {
    IcfgProgram G = generateIcfg(/*Seed=*/2016, Preset.NumProcs,
                                 Preset.NodesPerProc, Preset.FactsTotal,
                                 Preset.CallsPerProc);
    G.TransferWork = TransferWork;
    IfdsProblem Prob = G.toIfdsProblem();
    IfdsResult Reference = runIfdsImperative(Prob);

    std::printf("%-10s", Preset.Name.c_str());
    struct Run {
      unsigned T;
      double Time;
      IfdsResult R;
    };
    std::vector<Run> Runs;
    double Base = 0, MaxTime = 0;
    for (unsigned T : Threads) {
      SolverOptions Opts;
      Opts.NumThreads = T;
      IfdsResult R;
      double Time = median(Reps, [&] {
        R = runIfdsFlix(Prob, Opts);
        return R.Seconds;
      });
      if (!R.Ok || !R.sameResult(Reference))
        std::printf("\nWARNING: parallel solver (%u threads) disagrees "
                    "with imperative on %s!\n",
                    T, Preset.Name.c_str());
      if (T == BaseT)
        Base = Time;
      if (T == MaxT)
        MaxTime = Time;
      std::printf(" %8.3f", Time);
      Runs.push_back({T, Time, std::move(R)});
    }
    std::printf("  %6.2fx\n", Base / std::max(MaxTime, 1e-9));
    std::fflush(stdout);
    if (!Json)
      continue;
    for (const Run &Rn : Runs) {
      Json->begin();
      Json->str("bench", "table2_ifds")
          .str("regime", "scaling")
          .str("program", Preset.Name)
          .integer("nodes", G.NumNodes)
          .str("solver", Rn.T == 0 ? "flix" : "flix_parallel")
          .integer("threads", Rn.T)
          .num("seconds", Rn.Time)
          .integer("speedup_base_threads", BaseT)
          .num("speedup", Base / std::max(Rn.Time, 1e-9))
          .integer("parallel_steals",
                   static_cast<long long>(Rn.R.Stats.ParallelSteals))
          .boolean("ok", Rn.R.Ok && Rn.R.sameResult(Reference));
      Json->end();
    }
  }
  std::printf("\n");
}

/// The plan/memo configurations: compiled plans without and with the
/// extern memo cache.
struct PlanMemoRegime {
  const char *Name;
  bool Memo;
};
constexpr PlanMemoRegime PlanMemoRegimes[] = {
    {"plans", false},
    {"plans+memo", true},
};

/// Plan/memo ablation on the declarative solver (sequential engine).
/// Reports ns per rule firing — the normalization the acceptance check
/// uses, since firings are identical across regimes on the same input.
void runPlanMemoAblation(int TransferWork, long Reps, JsonReport *Json) {
  std::printf("Plan/memo ablation (sequential declarative solver; ns per "
              "rule firing):\n");
  std::printf("%-10s", "Program");
  for (const PlanMemoRegime &Reg : PlanMemoRegimes)
    std::printf(" %12s", Reg.Name);
  std::printf("\n");
  std::printf("%.*s\n", 36,
              "------------------------------------------------------------"
              "--------------------");

  for (const DacapoPreset &Preset : dacapoPresets()) {
    IcfgProgram G = generateIcfg(/*Seed=*/2016, Preset.NumProcs,
                                 Preset.NodesPerProc, Preset.FactsTotal,
                                 Preset.CallsPerProc);
    G.TransferWork = TransferWork;
    IfdsProblem Prob = G.toIfdsProblem();
    IfdsResult Reference = runIfdsImperative(Prob);

    std::printf("%-10s", Preset.Name.c_str());
    for (const PlanMemoRegime &Reg : PlanMemoRegimes) {
      SolverOptions Opts;
      Opts.EnableMemo = Reg.Memo;
      IfdsResult R;
      double Time = median(Reps, [&] {
        R = runIfdsFlix(Prob, Opts);
        return R.Seconds;
      });
      bool Ok = R.Ok && R.sameResult(Reference);
      if (!Ok)
        std::printf("\nWARNING: %s regime disagrees with imperative on "
                    "%s!\n",
                    Reg.Name, Preset.Name.c_str());
      double NsPerFiring =
          Time * 1e9 / std::max<uint64_t>(R.Stats.RuleFirings, 1);
      std::printf(" %12.1f", NsPerFiring);
      if (Json) {
        Json->begin();
        Json->str("bench", "table2_ifds")
            .str("regime", "plan_memo")
            .str("config", Reg.Name)
            .str("program", Preset.Name)
            .boolean("memo", Reg.Memo)
            .integer("threads", 0)
            .num("seconds", Time)
            .integer("rule_firings",
                     static_cast<long long>(R.Stats.RuleFirings))
            .num("ns_per_firing", NsPerFiring)
            .integer("plan_steps",
                     static_cast<long long>(R.Stats.PlanSteps))
            .integer("memo_hits", static_cast<long long>(R.Stats.MemoHits))
            .integer("memo_misses",
                     static_cast<long long>(R.Stats.MemoMisses))
            .boolean("ok", Ok);
        Json->end();
      }
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\n");
}

//===--------------------------------------------------------------------===//
// VM-engine ablation (regime "vm_engine", BENCH_vm.json)
//===--------------------------------------------------------------------===//

/// Gen/kill reachability over the ICFG supergraph with the lattice
/// operations and the edge transfer written in FLIX source. Every join
/// firing calls `step` and every lattice insert calls `lub`/`leq`
/// through the chosen engine, so the interp-vs-VM difference is on the
/// hot path (unlike IFDS above, whose flow functions are native C++
/// externs either way).
const char *VmAblationSrc = R"flix(
enum R { case Bot, case Reach }

def leq(a: R, b: R): Bool = match (a, b) with {
  case (R.Bot, _) => true
  case (R.Reach, R.Reach) => true
  case _ => false
}
def lub(a: R, b: R): R = match (a, b) with {
  case (R.Bot, x) => x
  case (x, R.Bot) => x
  case _ => R.Reach
}
def glb(a: R, b: R): R = match (a, b) with {
  case (R.Reach, x) => x
  case (x, R.Reach) => x
  case _ => R.Bot
}
let R<> = (R.Bot, R.Reach, leq, lub, glb);

def step(t: R): R = match t with {
  case R.Reach => R.Reach
  case R.Bot => R.Bot
}

rel Edge(n: Int, m: Int);
rel Gen(n: Int, d: Int);
rel Kill(n: Int, d: Int);
lat Out(n: Int, d: Int, R<>);

Out(n, d, R.Reach) :- Gen(n, d).
Out(m, d, step(t)) :- Out(n, d, t), Edge(n, m), !Kill(m, d).
)flix";

/// One solved configuration of the FLIX-source reachability program.
struct VmRunOutcome {
  double Seconds = 0;
  uint64_t RuleFirings = 0;
  uint64_t VmCalls = 0;
  uint64_t IcHits = 0;
  uint64_t Fallbacks = 0;
  bool Ok = false;
  /// Rendered (n, d, value) rows for cross-engine identity checking —
  /// handles are per-run, so rows are compared as strings.
  std::set<std::string> Model;
};

VmRunOutcome runVmEngineConfig(const IcfgProgram &G, bool UseVm,
                               bool Memo) {
  ValueFactory F;
  FlixCompiler C(F);
  C.setUseVm(UseVm);
  VmRunOutcome Out;
  if (!C.compile(VmAblationSrc, "vm-ablation.flix")) {
    std::fprintf(stderr, "vm-ablation compile failed:\n%s",
                 C.diagnostics().c_str());
    return Out;
  }

  auto fact2 = [&](const char *P, int A, int B) {
    Value T[2] = {F.integer(A), F.integer(B)};
    C.addFact(P, T);
  };
  for (auto [N, M] : G.CfgEdges)
    fact2("Edge", N, M);
  for (auto [N, M] : G.CallEdges)
    fact2("Edge", N, M);
  for (int N = 0; N < G.NumNodes; ++N) {
    for (int D : G.Flows[N].Gen)
      fact2("Gen", N, D);
    for (int D : G.Flows[N].Kill)
      fact2("Kill", N, D);
  }

  SolverOptions Opts;
  Opts.UseVm = UseVm;
  Opts.EnableMemo = Memo;
  Solver S(C.program(), Opts);
  SolveStats St = S.solve();
  Out.Seconds = St.Seconds;
  Out.RuleFirings = St.RuleFirings;
  Out.VmCalls = St.VmCalls;
  Out.IcHits = St.VmInlineCacheHits;
  Out.Fallbacks = St.InterpFallbacks;
  Out.Ok = St.St == SolveStats::Status::Fixpoint && !C.interp().hasError();
  if (Out.Ok)
    for (const auto &Row : S.tuples(*C.predicate("Out")))
      Out.Model.insert(std::to_string(Row[0].asInt()) + "," +
                       std::to_string(Row[1].asInt()) + "," +
                       F.toString(Row[2]));
  return Out;
}

/// The four engine configurations, interpreter first (the baseline).
struct VmEngineRegime {
  const char *Name;
  bool UseVm, Memo;
};
constexpr VmEngineRegime VmEngineRegimes[] = {
    {"interp", false, false},
    {"interp+memo", false, true},
    {"vm", true, false},
    {"vm+memo", true, true},
};

void runVmEngineAblation(long Reps, JsonReport *Json) {
  long MaxPresets = envInt("FLIX_TABLE2_VM_PRESETS", 3);
  std::printf("VM-engine ablation (FLIX-source gen/kill reachability, "
              "sequential solver; ns per rule firing):\n");
  std::printf("%-10s", "Program");
  for (const VmEngineRegime &Reg : VmEngineRegimes)
    std::printf(" %12s", Reg.Name);
  std::printf("   vm-spdup\n");
  std::printf("%.*s\n", 73,
              "------------------------------------------------------------"
              "--------------------");

  long Done = 0;
  for (const DacapoPreset &Preset : dacapoPresets()) {
    if (Done++ >= MaxPresets)
      break;
    IcfgProgram G = generateIcfg(/*Seed=*/2016, Preset.NumProcs,
                                 Preset.NodesPerProc, Preset.FactsTotal,
                                 Preset.CallsPerProc);

    std::printf("%-10s", Preset.Name.c_str());
    VmRunOutcome Baseline;
    double InterpNs = 0, VmNs = 0;
    for (const VmEngineRegime &Reg : VmEngineRegimes) {
      bool UseVm = Reg.UseVm, Memo = Reg.Memo;
      VmRunOutcome R;
      double Time = median(Reps, [&] {
        R = runVmEngineConfig(G, UseVm, Memo);
        return R.Seconds;
      });
      bool Ok = R.Ok;
      if (!UseVm && !Memo)
        Baseline = R;
      else if (Ok && R.Model != Baseline.Model) {
        Ok = false;
        std::printf("\nWARNING: %s engine disagrees with the interpreter "
                    "on %s!\n",
                    Reg.Name, Preset.Name.c_str());
      }
      if (UseVm && R.Fallbacks != 0) {
        Ok = false;
        std::printf("\nWARNING: %s took %llu interpreter fallbacks on "
                    "%s!\n",
                    Reg.Name,
                    static_cast<unsigned long long>(R.Fallbacks),
                    Preset.Name.c_str());
      }
      double NsPerFiring =
          Time * 1e9 / std::max<uint64_t>(R.RuleFirings, 1);
      if (!UseVm && !Memo)
        InterpNs = NsPerFiring;
      if (UseVm && !Memo)
        VmNs = NsPerFiring;
      std::printf(" %12.1f", NsPerFiring);
      if (Json) {
        Json->begin();
        Json->str("bench", "table2_ifds")
            .str("regime", "vm_engine")
            .str("config", Reg.Name)
            .str("program", Preset.Name)
            .boolean("vm", UseVm)
            .boolean("memo", Memo)
            .integer("threads", 0)
            .num("seconds", Time)
            .integer("rule_firings",
                     static_cast<long long>(R.RuleFirings))
            .num("ns_per_firing", NsPerFiring)
            .integer("vm_calls", static_cast<long long>(R.VmCalls))
            .integer("vm_inline_cache_hits",
                     static_cast<long long>(R.IcHits))
            .integer("interp_fallbacks",
                     static_cast<long long>(R.Fallbacks))
            .boolean("ok", Ok);
        Json->end();
      }
    }
    std::printf("   %6.2fx\n", InterpNs / std::max(VmNs, 1e-9));
    std::fflush(stdout);
  }
  std::printf("\n");
}

} // namespace

int main(int Argc, char **Argv) {
  long Reps = envInt("FLIX_TABLE2_REPS", 1);
  int Work = static_cast<int>(envInt("FLIX_TABLE2_WORK", 6000));

  std::string JsonPath;
  std::vector<unsigned> Threads;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--json" && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else if (Arg == "--threads" && I + 1 < Argc) {
      if (!parseThreadList(Argv[++I], Threads)) {
        std::fprintf(stderr, "error: --threads wants a comma-separated "
                             "list of worker counts, e.g. 0,1,2,8\n");
        return 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: table2_ifds [--threads <csv>] [--json <file>]\n");
      return 1;
    }
  }

  JsonReport Json;
  JsonReport *JsonP = JsonPath.empty() ? nullptr : &Json;

  std::printf("Table 2: IFDS — imperative solver vs declarative FLIX "
              "formulation\n");
  std::printf("(synthetic DaCapo-shaped ICFGs; median of %ld run(s); see "
              "EXPERIMENTS.md)\n\n", Reps);

  if (Work > 0)
    runRegime("Realistic flow functions (shared nontrivial transfer "
              "code, as in the paper):",
              "realistic", Work, Reps, /*CheckAgainstPaper=*/true, JsonP);
  runRegime("Trivial flow functions (pure engine overhead):", "trivial", 0,
            Reps, false, JsonP);
  runPlanMemoAblation(Work, Reps, JsonP);
  runVmEngineAblation(Reps, JsonP);
  if (!Threads.empty())
    runScaling(Threads, Work, Reps, JsonP);

  std::printf("Both solvers run the same flow-function code; the Flix "
              "column pays for the generic engine\n(tables, indexes, "
              "delta bookkeeping), the imperative column for nothing but "
              "the algorithm.\nWith realistic transfer functions the "
              "shared cost dominates, as in the paper's setup.\n");

  if (JsonP && !Json.write(JsonPath)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
    return 1;
  }
  return 0;
}
