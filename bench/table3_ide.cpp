//===- bench/table3_ide.cpp - IDE vs IFDS (§4.3 extension) -----------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// The paper presents IDE (Figure 6) as a direct extension of IFDS
// (Figure 5): the same edges, each decorated with a micro-function. This
// bench quantifies the decoration cost: the declarative IFDS run vs the
// declarative IDE run (linear-constant-propagation micro-functions) on
// the same ICFGs, checking that both reach the same (node, fact) pairs.
//
// Expected shape: IDE is a small constant factor slower than IFDS — the
// rules are the same shape, each carrying one extra lattice column.
//
// A plan/memo ablation section then re-runs the IDE solver (compiled
// plans) with EnableMemo off and on. IDE composes and joins
// micro-functions through externs on every firing, so the memo cache
// sees heavy traffic here; ns per rule firing normalizes out workload
// size. `--json <file>` writes one record per solver run; ablation
// records carry regime "plan_memo".
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analyses/Ide.h"
#include "analyses/Ifds.h"
#include "workload/IcfgWorkload.h"

#include <algorithm>
#include <cstdio>
#include <string>

using namespace flix;
using namespace flix::bench;

namespace {

/// Moderately smaller instances than Table 2 (IDE carries a lattice
/// column everywhere) so the bench stays quick.
IcfgProgram presetIcfg(const DacapoPreset &Preset) {
  IcfgProgram G = generateIcfg(/*Seed=*/2016, Preset.NumProcs / 2 + 1,
                               Preset.NodesPerProc,
                               Preset.FactsTotal / 2 + 1,
                               Preset.CallsPerProc);
  return G;
}

void runComparison(JsonReport *Json) {
  std::printf("%-10s %8s | %10s %10s %10s | %8s\n", "Program", "Nodes",
              "IFDS(s)", "IDE(s)", "Overhead", "SameEdges");
  std::printf("%.*s\n", 66,
              "------------------------------------------------------------"
              "--------");

  for (const DacapoPreset &Preset : dacapoPresets()) {
    IcfgProgram G = presetIcfg(Preset);
    IfdsResult Ifds = runIfdsFlix(G.toIfdsProblem());
    IdeResult Ide = runIdeFlix(G.toIdeProblem());
    bool Same = Ifds.Ok && Ide.Ok && Ide.Reachable == Ifds.Result;
    std::printf("%-10s %8d | %10.3f %10.3f %9.1fx | %8s\n",
                Preset.Name.c_str(), G.NumNodes, Ifds.Seconds, Ide.Seconds,
                Ide.Seconds / std::max(Ifds.Seconds, 1e-9),
                Same ? "yes" : "NO!");
    std::fflush(stdout);
    if (Json) {
      Json->begin();
      Json->str("bench", "table3_ide")
          .str("regime", "comparison")
          .str("program", Preset.Name)
          .integer("nodes", G.NumNodes)
          .str("solver", "ifds")
          .integer("threads", 0)
          .num("seconds", Ifds.Seconds)
          .boolean("ok", Same);
      Json->end();
      Json->begin();
      Json->str("bench", "table3_ide")
          .str("regime", "comparison")
          .str("program", Preset.Name)
          .integer("nodes", G.NumNodes)
          .str("solver", "ide")
          .integer("threads", 0)
          .num("seconds", Ide.Seconds)
          .boolean("ok", Same);
      Json->end();
    }
  }
  std::printf("\n");
}

void runPlanMemoAblation(JsonReport *Json) {
  struct AblationRegime {
    const char *Name;
    bool Memo;
  };
  constexpr AblationRegime Regimes[] = {
      {"plans", false},
      {"plans+memo", true},
  };

  std::printf("Plan/memo ablation (IDE solver, sequential; ns per rule "
              "firing):\n");
  std::printf("%-10s", "Program");
  for (const AblationRegime &Reg : Regimes)
    std::printf(" %12s", Reg.Name);
  std::printf("\n");
  std::printf("%.*s\n", 62,
              "------------------------------------------------------------"
              "--------------------");

  for (const DacapoPreset &Preset : dacapoPresets()) {
    IcfgProgram G = presetIcfg(Preset);
    IdeProblem Prob = G.toIdeProblem();
    IdeResult Reference = runIdeFlix(Prob);

    std::printf("%-10s", Preset.Name.c_str());
    for (const AblationRegime &Reg : Regimes) {
      SolverOptions Opts;
      Opts.EnableMemo = Reg.Memo;
      IdeResult R = runIdeFlix(Prob, Opts);
      bool Ok = R.Ok && Reference.Ok && R.Values == Reference.Values &&
                R.Reachable == Reference.Reachable;
      if (!Ok)
        std::printf("\nWARNING: %s regime disagrees on %s!\n", Reg.Name,
                    Preset.Name.c_str());
      double NsPerFiring =
          R.Seconds * 1e9 / std::max<uint64_t>(R.Stats.RuleFirings, 1);
      std::printf(" %12.1f", NsPerFiring);
      if (Json) {
        Json->begin();
        Json->str("bench", "table3_ide")
            .str("regime", "plan_memo")
            .str("config", Reg.Name)
            .str("program", Preset.Name)
            .boolean("memo", Reg.Memo)
            .integer("threads", 0)
            .num("seconds", R.Seconds)
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

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--json" && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else {
      std::fprintf(stderr, "usage: table3_ide [--json <file>]\n");
      return 1;
    }
  }
  JsonReport Json;
  JsonReport *JsonP = JsonPath.empty() ? nullptr : &Json;

  std::printf("IDE vs IFDS: the cost of micro-function decoration "
              "(Figures 5 vs 6)\n\n");
  runComparison(JsonP);
  runPlanMemoAblation(JsonP);

  if (JsonP && !Json.write(JsonPath)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
    return 1;
  }
  return 0;
}
