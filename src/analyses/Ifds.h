//===- analyses/Ifds.h - IFDS framework (§4.2, Figure 5) ------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IFDS framework of Reps, Horwitz & Sagiv (POPL'95) in the two forms
/// Table 2 compares:
///
///   * runIfdsFlix       — the declarative formulation of Figure 5: rules
///     over PathEdge / SummaryEdge / EshCallStart, with the analysis's
///     distributive flow functions supplied as native set-valued binder
///     functions (`d3 <- eshIntra(n, d2)`), exactly the paper's
///     JVM-interop arrangement (§4.5);
///   * runIfdsImperative — a hand-coded worklist tabulation solver (the
///     paper's baseline "Scala" column).
///
/// Both compute the same Result set: the reachable (node, fact) pairs.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_ANALYSES_IFDS_H
#define FLIX_ANALYSES_IFDS_H

#include "fixpoint/Solver.h"

#include <functional>
#include <set>
#include <vector>

namespace flix {

/// An IFDS problem instance: the exploded-supergraph structure plus the
/// three distributive flow functions. Nodes, procedures and flow facts
/// are dense integer ids; fact 0 is conventionally the Λ (zero) fact.
///
/// CFG edges must include the call-to-return-site edges: Figure 5's rules
/// move both intraprocedural flow (eshIntra) and summaries over CFG(n, m).
struct IfdsProblem {
  int NumNodes = 0;
  int NumProcs = 0;
  int NumFacts = 0;

  std::vector<std::pair<int, int>> CfgEdges;  ///< (n, m)
  std::vector<std::pair<int, int>> CallEdges; ///< (call node, target proc)
  std::vector<int> StartNodes;                ///< per procedure
  std::vector<int> EndNodes;                  ///< per procedure
  std::vector<std::pair<int, int>> Seeds;     ///< initial (node, fact)

  /// Flow functions append results to Out (may contain duplicates).
  std::function<void(int N, int D, std::vector<int> &Out)> EshIntra;
  std::function<void(int Call, int D, int Target, std::vector<int> &Out)>
      EshCallStart;
  std::function<void(int Target, int D, int Call, std::vector<int> &Out)>
      EshEndReturn;
};

struct IfdsResult {
  bool Ok = false;
  std::string Error;
  /// The reachable (node, fact) pairs — Figure 5's Result relation.
  std::set<std::pair<int, int>> Result;
  size_t NumPathEdges = 0;
  size_t NumSummaries = 0;
  double Seconds = 0;
  /// Full engine counters of the declarative run (default-constructed for
  /// the imperative solver) — benchmarks report ParallelSteals etc.
  SolveStats Stats;

  bool sameResult(const IfdsResult &O) const { return Result == O.Result; }
};

/// The declarative Figure 5 solver on the fixpoint engine.
IfdsResult runIfdsFlix(const IfdsProblem &P,
                       SolverOptions Opts = SolverOptions());

/// The hand-coded tabulation solver.
IfdsResult runIfdsImperative(const IfdsProblem &P);

} // namespace flix

#endif // FLIX_ANALYSES_IFDS_H
