//===- workload/RandomExpr.h - Random functional FLIX modules -*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded generator of random *functional* FLIX modules, the expression
/// counterpart of RandomProgram.h's random fixpoint programs. Each module
/// is a payload enum plus a list of defs whose bodies draw from the whole
/// expression grammar: literals, arithmetic (including / and % so runtime
/// faults are reachable), comparisons, boolean connectives with
/// short-circuit, unary operators, if/let, matches over enum tags, tuples
/// and integer literals (sometimes deliberately non-exhaustive), and
/// calls to earlier defs. Every module also leads with a fixed cast of
/// shapes whose constants the seed varies: four tiny compare-and-branch
/// helpers (the VM's immediate-compare forms), one controlled
/// self-recursive def (deep calls reach the call-depth diagnostic), and
/// an eight-link call chain (nested frames). Random calls only ever point
/// backwards, so the reachable faults are division or remainder by
/// zero, a missed match case, and call-depth overflow through the
/// recursive def — each checked for message identity by the
/// VM-vs-interpreter differential harness.
///
/// Determinism: the generator uses its own xorshift RNG, so a seed means
/// the same module on every platform and standard library.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_WORKLOAD_RANDOMEXPR_H
#define FLIX_WORKLOAD_RANDOMEXPR_H

#include <cstdint>
#include <string>
#include <vector>

namespace flix {

/// The three types random expressions range over. `Shape` is the
/// module-local payload enum:
///   enum Shape { case Dot, case Box(Int), case Pair((Int, Bool)) }
enum class RandomExprType { Int, Bool, Shape };

/// Signature of one generated def, so a harness can build matching
/// argument vectors and call it on any engine.
struct RandomExprFn {
  std::string Name;
  std::vector<RandomExprType> Params;
  RandomExprType Ret;
};

struct RandomExprModule {
  std::string Source; ///< complete FLIX module text
  std::vector<RandomExprFn> Fns;
};

/// Generates a deterministic random module of \p NumFns defs with bodies
/// of nesting depth at most \p MaxDepth.
RandomExprModule generateRandomExprModule(uint64_t Seed, int NumFns = 6,
                                          int MaxDepth = 4);

} // namespace flix

#endif // FLIX_WORKLOAD_RANDOMEXPR_H
