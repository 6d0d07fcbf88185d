//===- parallel/Dispatch.h - Sequential/parallel solver dispatch -*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-liner dispatch between the sequential Solver and the
/// ParallelSolver, keyed on SolverOptions::NumThreads. The two classes
/// expose the same query API, so callers consume the solved instance
/// through a generic callable:
///
/// \code
///   return solveWith(P, Opts, [&](const auto &S, const SolveStats &St) {
///     IfdsResult R;
///     ...read S.table(...), S.tuples(...)...
///     return R;
///   });
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_PARALLEL_DISPATCH_H
#define FLIX_PARALLEL_DISPATCH_H

#include "parallel/ParallelSolver.h"

namespace flix {

/// Solves \p P with the engine selected by \p Opts.NumThreads (0 = the
/// sequential Solver, >0 = the work-stealing ParallelSolver) and
/// passes the solved instance plus its stats to \p Consume. \p Consume
/// must accept both solver types (e.g. a generic lambda) and return the
/// same type for both.
template <typename ConsumeFn>
auto solveWith(const Program &P, const SolverOptions &Opts,
               ConsumeFn &&Consume) {
  if (Opts.NumThreads > 0) {
    ParallelSolver S(P, Opts);
    SolveStats St = S.solve();
    return Consume(S, St);
  }
  Solver S(P, Opts);
  SolveStats St = S.solve();
  return Consume(S, St);
}

} // namespace flix

#endif // FLIX_PARALLEL_DISPATCH_H
