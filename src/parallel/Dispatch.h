//===- parallel/Dispatch.h - Solve-and-consume helper ---------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// solveWith: constructs a Solver, solves it and hands the solved
/// instance to a callable. SolverOptions::NumThreads selects in-place or
/// round-executor evaluation inside the one Solver type. Only the
/// perfbench workloads still call it; other code constructs a Solver.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_PARALLEL_DISPATCH_H
#define FLIX_PARALLEL_DISPATCH_H

#include "fixpoint/Solver.h"

namespace flix {

/// Solves \p P with \p Opts and returns what \p Consume makes of the
/// solved Solver and its stats.
template <typename ConsumeFn>
auto solveWith(const Program &P, const SolverOptions &Opts,
               ConsumeFn &&Consume) {
  Solver S(P, Opts);
  SolveStats St = S.solve();
  return Consume(S, St);
}

} // namespace flix

#endif // FLIX_PARALLEL_DISPATCH_H
