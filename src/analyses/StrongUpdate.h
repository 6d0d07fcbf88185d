//===- analyses/StrongUpdate.h - Strong Update analysis (§4.1) -*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Strong Update points-to analysis of Lhoták & Chung (POPL'11), as
/// reproduced in Figure 4 of the FLIX paper, in the three implementations
/// that Table 1 compares:
///
///   * runStrongUpdateFlix        — Figure 4 rules over the SULattice,
///                                  built through the C++ fixpoint API
///                                  (native lattice operations);
///   * runStrongUpdateFlixSource  — the same program as FLIX source text
///                                  through the full compiler pipeline
///                                  (AST-interpreted lattice operations,
///                                  like the paper's Scala implementation);
///   * runStrongUpdateDatalog     — the pure-Datalog powerset embedding
///                                  described in §1 (the "DLV" column):
///                                  singleton sets as element facts, a
///                                  designated ⊤ marker, and a rule adding
///                                  ⊤ to every 2+ element set;
///   * runStrongUpdateImperative  — a hand-coded worklist analyzer (the
///                                  "C++" column) with sparse per-label
///                                  states.
///
/// All four compute the same Pt relation on the same input facts, which
/// the tests cross-validate.
///
/// One transformation relative to Figure 4: the input carries the (small)
/// Kill relation and the rules use stratified negation `!Kill(l, a)`
/// instead of materializing its complement Preserve — Figure 4's caption
/// itself defines Preserve as the complement of the Kill set, which would
/// be quadratic to materialize.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_ANALYSES_STRONGUPDATE_H
#define FLIX_ANALYSES_STRONGUPDATE_H

#include "fixpoint/Solver.h"

#include <set>
#include <vector>

namespace flix {

/// A C-like pointer program in the Strong Update input format. Variables,
/// abstract objects and labels are dense integer ids.
struct PointerProgram {
  int NumVars = 0;
  int NumObjs = 0;
  int NumLabels = 0;

  /// p = &a (address-of).
  std::vector<std::pair<int, int>> AddrOf;
  /// p = q (copy).
  std::vector<std::pair<int, int>> Copy;
  /// at label l: p = *q (load).
  std::vector<std::array<int, 3>> Load;
  /// at label l: *p = q (store).
  std::vector<std::array<int, 3>> Store;
  /// control-flow edges between labels.
  std::vector<std::pair<int, int>> Cfg;
  /// (l, a): the store at l definitely overwrites a (strong update).
  std::vector<std::pair<int, int>> Kill;
  /// (l, a): at label l, object a starts with unknown contents (⊤); used
  /// to seed function entries.
  std::vector<std::pair<int, int>> InitTop;

  /// Total number of input facts (the paper's Table 1 second column).
  size_t factCount() const {
    return AddrOf.size() + Copy.size() + Load.size() + Store.size() +
           Cfg.size() + Kill.size() + InitTop.size();
  }
};

/// Common result: the flow-insensitive-with-strong-updates points-to sets
/// and, where applicable, the solver statistics.
struct StrongUpdateResult {
  enum class Status { Ok, Timeout, Error };
  Status St = Status::Ok;
  std::string Error;

  /// Pt[p] = set of objects pointer variable p may point to.
  std::vector<std::set<int>> Pt;
  /// PtH[a] = set of objects the heap cell a may point to.
  std::vector<std::set<int>> PtH;

  double Seconds = 0;
  size_t MemoryBytes = 0;
  uint64_t FactsDerived = 0;
  /// Full solver statistics (engine counters included), for the
  /// differential tests' engine assertions.
  SolveStats Stats;

  bool ok() const { return St == Status::Ok; }
  bool samePointsTo(const StrongUpdateResult &O) const {
    return Pt == O.Pt && PtH == O.PtH;
  }
};

/// Figure 4 over the native SULattice through the C++ API. The full
/// SolverOptions overload honors NumThreads (rounds on the round
/// executor); the convenience overload keeps the historical signature.
StrongUpdateResult runStrongUpdateFlix(const PointerProgram &In,
                                       const SolverOptions &Opts);
StrongUpdateResult runStrongUpdateFlix(const PointerProgram &In,
                                       double TimeLimitSeconds = 0,
                                       Strategy Strat = Strategy::SemiNaive);

/// Figure 4 as FLIX source through the full pipeline (lexer → parser →
/// type checker → interpreted lattice ops → semi-naive solver). With
/// Opts.NumThreads > 0 the interpreter is switched to thread-safe mode
/// and the solver's rounds run on its round executor.
StrongUpdateResult runStrongUpdateFlixSource(const PointerProgram &In,
                                             const SolverOptions &Opts);
StrongUpdateResult
runStrongUpdateFlixSource(const PointerProgram &In,
                          double TimeLimitSeconds = 0);

/// The §1 powerset embedding on the relational engine (the DLV proxy).
StrongUpdateResult runStrongUpdateDatalog(const PointerProgram &In,
                                          double TimeLimitSeconds = 0);

/// Hand-coded imperative analyzer (the "C++" column of Table 1).
StrongUpdateResult runStrongUpdateImperative(const PointerProgram &In);

/// Returns the Figure 4 program as FLIX source text (without facts); used
/// by runStrongUpdateFlixSource, the flixc examples and the tests.
std::string strongUpdateFlixSource();

} // namespace flix

#endif // FLIX_ANALYSES_STRONGUPDATE_H
