//===- bench/ablation_indexing.cpp - index selection (§4.5) ----------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// Ablation A2: the paper lists index selection and cost-based query
// planning among the Datalog-solver optimizations FLIX inherits/needs
// (§1, §4.5). This bench measures, on a join-heavy program,
//
//   indexed    — automatic hash indexes from bound-variable patterns
//                (the default),
//   no-index   — full scans for partially bound atoms,
//   bad-order  — a rule written in a deliberately bad order, evaluated in
//                that written order (SolverOptions::CostBasedPlans off —
//                the paper evaluates left-to-right "instead of using a
//                cost-plan"),
//   cost-plan  — the same badly written rule under the default
//                statistics-driven join order.
//
// Expected shape: indexes dominate on selective joins; the cost-based
// order rescues badly written rules without touching well written ones.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "fixpoint/Solver.h"

#include <cstdio>
#include <random>

using namespace flix;
using namespace flix::bench;

namespace {

/// Triangle-ish join: R(x, z) :- A(x, y), B(y, z), C(z, x)… written well
/// (chain order) or badly (C first, nothing bound).
double runJoin(int N, bool GoodOrder, SolverOptions Opts,
               uint64_t &Firings) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 2);
  PredId B = P.relation("B", 2);
  PredId C = P.relation("C", 2);
  PredId R = P.relation("R", 2);
  if (GoodOrder) {
    RuleBuilder()
        .head(R, {"x", "z"})
        .atom(A, {"x", "y"})
        .atom(B, {"y", "z"})
        .atom(C, {"z", "x"})
        .addTo(P);
  } else {
    RuleBuilder()
        .head(R, {"x", "z"})
        .atom(C, {"z", "x"})
        .atom(A, {"x", "y"})
        .atom(B, {"y", "z"})
        .addTo(P);
  }
  std::mt19937_64 Rng(7);
  for (int I = 0; I < N; ++I) {
    P.addFact(A, {F.integer(static_cast<int64_t>(Rng() % N)),
                  F.integer(static_cast<int64_t>(Rng() % N))});
    P.addFact(B, {F.integer(static_cast<int64_t>(Rng() % N)),
                  F.integer(static_cast<int64_t>(Rng() % N))});
    P.addFact(C, {F.integer(static_cast<int64_t>(Rng() % N)),
                  F.integer(static_cast<int64_t>(Rng() % N))});
  }
  Solver S(P, Opts);
  SolveStats St = S.solve();
  Firings = St.RuleFirings;
  return St.Seconds;
}

} // namespace

int main() {
  std::printf("Ablation A2: automatic indexes and cost-based join order "
              "(§4.5)\n\n");
  std::printf("%7s | %11s %11s %11s %11s\n", "facts",
              "indexed(s)", "no-index(s)", "bad-order(s)", "cost-plan(s)");
  std::printf("%.*s\n", 62,
              "------------------------------------------------------------"
              "--");
  for (int N : {2000, 4000, 8000, 16000}) {
    SolverOptions Default;
    SolverOptions NoIndex;
    NoIndex.UseIndexes = false;
    SolverOptions Written;
    Written.CostBasedPlans = false;

    uint64_t Fi = 0;
    double Indexed = runJoin(N, /*GoodOrder=*/true, Default, Fi);
    double NoIx = runJoin(N, true, NoIndex, Fi);
    double Bad = runJoin(N, /*GoodOrder=*/false, Written, Fi);
    double Fixed = runJoin(N, false, Default, Fi);
    std::printf("%7d | %11.3f %11.3f %11.3f %11.3f\n", 3 * N, Indexed,
                NoIx, Bad, Fixed);
    std::fflush(stdout);
  }
  std::printf("\n(indexed vs no-index shows the value of automatic index "
              "selection; bad-order vs cost-plan\nshows the cost-based "
              "join order recovering a badly written rule)\n");
  return 0;
}
