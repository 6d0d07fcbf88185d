//===- analyses/StrongUpdateFlix.cpp - Figure 4 on the fixpoint engine -----===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "analyses/StrongUpdate.h"

#include "fixpoint/Solver.h"
#include "lang/Compiler.h"
#include "runtime/Lattices.h"

using namespace flix;

namespace {

/// Converts a solver status into the result status.
void fillStatus(StrongUpdateResult &R, const SolveStats &St) {
  R.Stats = St;
  R.Seconds = St.Seconds;
  R.MemoryBytes = St.MemoryBytes;
  R.FactsDerived = St.FactsDerived;
  switch (St.St) {
  case SolveStats::Status::Fixpoint:
    R.St = StrongUpdateResult::Status::Ok;
    break;
  case SolveStats::Status::Timeout:
    R.St = StrongUpdateResult::Status::Timeout;
    break;
  default:
    R.St = StrongUpdateResult::Status::Error;
    R.Error = St.Error;
    break;
  }
}

/// Reads Pt/PtH relations (Int columns) back into result sets.
void extractPointsTo(StrongUpdateResult &R, const Solver &S, PredId Pt,
                     PredId PtH, const PointerProgram &In) {
  R.Pt.assign(In.NumVars, {});
  R.PtH.assign(In.NumObjs, {});
  for (const auto &Row : S.tuples(Pt))
    R.Pt[Row[0].asInt()].insert(static_cast<int>(Row[1].asInt()));
  for (const auto &Row : S.tuples(PtH))
    R.PtH[Row[0].asInt()].insert(static_cast<int>(Row[1].asInt()));
}

} // namespace

StrongUpdateResult flix::runStrongUpdateFlix(const PointerProgram &In,
                                             double TimeLimitSeconds,
                                             Strategy Strat) {
  SolverOptions Opts;
  Opts.Strat = Strat;
  Opts.TimeLimitSeconds = TimeLimitSeconds;
  return runStrongUpdateFlix(In, Opts);
}

StrongUpdateResult flix::runStrongUpdateFlix(const PointerProgram &In,
                                             const SolverOptions &Opts) {
  ValueFactory F;
  SULattice SU(F);
  Program P(F);

  PredId AddrOf = P.relation("AddrOf", 2);
  PredId Copy = P.relation("Copy", 2);
  PredId Load = P.relation("Load", 3);
  PredId Store = P.relation("Store", 3);
  PredId Cfg = P.relation("CFG", 2);
  PredId Kill = P.relation("Kill", 2);
  PredId Pt = P.relation("Pt", 2);
  PredId PtH = P.relation("PtH", 2);
  PredId PtSU = P.relation("PtSU", 3);
  PredId SUBefore = P.lattice("SUBefore", 3, &SU);
  PredId SUAfter = P.lattice("SUAfter", 3, &SU);

  FnId Single = P.function("single", 1, FnRole::Transfer,
                           [&SU](std::span<const Value> A) {
                             return SU.single(A[0]);
                           });
  FnId Filter = P.function("filter", 2, FnRole::Filter,
                           [&F, &SU](std::span<const Value> A) {
                             return F.boolean(SU.filter(A[0], A[1]));
                           });

  // Pt(p, a) :- AddrOf(p, a).
  RuleBuilder().head(Pt, {"p", "a"}).atom(AddrOf, {"p", "a"}).addTo(P);
  // Pt(p, a) :- Copy(p, q), Pt(q, a).
  RuleBuilder()
      .head(Pt, {"p", "a"})
      .atom(Copy, {"p", "q"})
      .atom(Pt, {"q", "a"})
      .addTo(P);
  // Pt(p, b) :- Load(l, p, q), Pt(q, a), PtSU(l, a, b).
  RuleBuilder()
      .head(Pt, {"p", "b"})
      .atom(Load, {"l", "p", "q"})
      .atom(Pt, {"q", "a"})
      .atom(PtSU, {"l", "a", "b"})
      .addTo(P);
  // PtH(a, b) :- Store(l, p, q), Pt(p, a), Pt(q, b).
  RuleBuilder()
      .head(PtH, {"a", "b"})
      .atom(Store, {"l", "p", "q"})
      .atom(Pt, {"p", "a"})
      .atom(Pt, {"q", "b"})
      .addTo(P);
  // SUBefore(l2, a, t) :- CFG(l1, l2), SUAfter(l1, a, t).
  RuleBuilder()
      .head(SUBefore, {"l2", "a", "t"})
      .atom(Cfg, {"l1", "l2"})
      .atom(SUAfter, {"l1", "a", "t"})
      .addTo(P);
  // SUAfter(l, a, t) :- SUBefore(l, a, t), !Kill(l, a).  (Preserve)
  RuleBuilder()
      .head(SUAfter, {"l", "a", "t"})
      .atom(SUBefore, {"l", "a", "t"})
      .negated(Kill, {"l", "a"})
      .addTo(P);
  // SUAfter(l, a, Single(b)) :- Store(l, p, q), Pt(p, a), Pt(q, b).
  RuleBuilder()
      .headFn(SUAfter, {"l", "a"}, Single, {"b"})
      .atom(Store, {"l", "p", "q"})
      .atom(Pt, {"p", "a"})
      .atom(Pt, {"q", "b"})
      .addTo(P);
  // PtSU(l, a, b) :- PtH(a, b), SUBefore(l, a, t), filter(t, b).
  RuleBuilder()
      .head(PtSU, {"l", "a", "b"})
      .atom(PtH, {"a", "b"})
      .atom(SUBefore, {"l", "a", "t"})
      .filter(Filter, {"t", "b"})
      .addTo(P);

  auto N = [&](int I) { return F.integer(I); };
  for (auto [A, B] : In.AddrOf)
    P.addFact(AddrOf, {N(A), N(B)});
  for (auto [A, B] : In.Copy)
    P.addFact(Copy, {N(A), N(B)});
  for (const auto &T : In.Load)
    P.addFact(Load, {N(T[0]), N(T[1]), N(T[2])});
  for (const auto &T : In.Store)
    P.addFact(Store, {N(T[0]), N(T[1]), N(T[2])});
  for (auto [A, B] : In.Cfg)
    P.addFact(Cfg, {N(A), N(B)});
  for (auto [A, B] : In.Kill)
    P.addFact(Kill, {N(A), N(B)});
  for (auto [L, A] : In.InitTop)
    P.addLatFact(SUAfter, {N(L), N(A)}, SU.top());

  Solver S(P, Opts);
  SolveStats St = S.solve();
  StrongUpdateResult R;
  fillStatus(R, St);
  if (R.ok())
    extractPointsTo(R, S, Pt, PtH, In);
  return R;
}

std::string flix::strongUpdateFlixSource() {
  return R"flix(
// The Strong Update analysis of Figure 4, over integer ids.

enum SULattice {
  case Top,
  case Single(Int),
  case Bottom
}

def leq(e1: SULattice, e2: SULattice): Bool = match (e1, e2) with {
  case (SULattice.Bottom, _) => true
  case (_, SULattice.Top) => true
  case (SULattice.Single(a), SULattice.Single(b)) => a == b
  case _ => false
}

def lub(e1: SULattice, e2: SULattice): SULattice = match (e1, e2) with {
  case (SULattice.Bottom, x) => x
  case (x, SULattice.Bottom) => x
  case (SULattice.Single(a), SULattice.Single(b)) =>
    if (a == b) SULattice.Single(a) else SULattice.Top
  case _ => SULattice.Top
}

def glb(e1: SULattice, e2: SULattice): SULattice = match (e1, e2) with {
  case (SULattice.Top, x) => x
  case (x, SULattice.Top) => x
  case (SULattice.Single(a), SULattice.Single(b)) =>
    if (a == b) SULattice.Single(a) else SULattice.Bottom
  case _ => SULattice.Bottom
}

let SULattice<> = (SULattice.Bottom, SULattice.Top, leq, lub, glb);

def filter(t: SULattice, b: Int): Bool = match t with {
  case SULattice.Bottom => false
  case SULattice.Single(p) => b == p
  case SULattice.Top => true
}

rel AddrOf(p: Int, a: Int);
rel Copy(p: Int, q: Int);
rel Load(l: Int, p: Int, q: Int);
rel Store(l: Int, p: Int, q: Int);
rel CFG(l1: Int, l2: Int);
rel Kill(l: Int, a: Int);
rel Pt(p: Int, a: Int);
rel PtH(a: Int, b: Int);
rel PtSU(l: Int, a: Int, b: Int);
lat SUBefore(l: Int, a: Int, SULattice<>);
lat SUAfter(l: Int, a: Int, SULattice<>);

Pt(p, a) :- AddrOf(p, a).
Pt(p, a) :- Copy(p, q), Pt(q, a).
Pt(p, b) :- Load(l, p, q), Pt(q, a), PtSU(l, a, b).
PtH(a, b) :- Store(l, p, q), Pt(p, a), Pt(q, b).

SUBefore(l2, a, t) :- CFG(l1, l2), SUAfter(l1, a, t).
SUAfter(l, a, t) :- SUBefore(l, a, t), !Kill(l, a).
SUAfter(l, a, SULattice.Single(b)) :- Store(l, p, q), Pt(p, a), Pt(q, b).

PtSU(l, a, b) :- PtH(a, b), SUBefore(l, a, t), filter(t, b).
)flix";
}

StrongUpdateResult
flix::runStrongUpdateFlixSource(const PointerProgram &In,
                                double TimeLimitSeconds) {
  SolverOptions Opts;
  Opts.TimeLimitSeconds = TimeLimitSeconds;
  return runStrongUpdateFlixSource(In, Opts);
}

StrongUpdateResult
flix::runStrongUpdateFlixSource(const PointerProgram &In,
                                const SolverOptions &Opts) {
  ValueFactory F;
  FlixCompiler C(F);
  // Honor the engine choice end to end: with UseVm off the whole run is a
  // pure-interpreter oracle (no VM is even constructed).
  C.setUseVm(Opts.UseVm);
  StrongUpdateResult R;
  if (!C.compile(strongUpdateFlixSource(), "strong-update.flix")) {
    R.St = StrongUpdateResult::Status::Error;
    R.Error = C.diagnostics();
    return R;
  }

  auto N = [&](int I) { return F.integer(I); };
  auto fact2 = [&](const char *P, int A, int B) {
    Value T[2] = {N(A), N(B)};
    C.addFact(P, T);
  };
  auto fact3 = [&](const char *P, int A, int B, int D) {
    Value T[3] = {N(A), N(B), N(D)};
    C.addFact(P, T);
  };
  for (auto [A, B] : In.AddrOf)
    fact2("AddrOf", A, B);
  for (auto [A, B] : In.Copy)
    fact2("Copy", A, B);
  for (const auto &T : In.Load)
    fact3("Load", T[0], T[1], T[2]);
  for (const auto &T : In.Store)
    fact3("Store", T[0], T[1], T[2]);
  for (auto [A, B] : In.Cfg)
    fact2("CFG", A, B);
  for (auto [A, B] : In.Kill)
    fact2("Kill", A, B);
  Value Top = F.tag("SULattice.Top");
  for (auto [L, A] : In.InitTop) {
    Value Key[2] = {N(L), N(A)};
    C.addLatFact("SUAfter", Key, Top);
  }

  // All lattice operations and externals of a compiled program run
  // through the interpreter, which is intrinsically thread-safe (Interp.h)
  // — the round executor's workers call into it with no outer lock.
  Solver S(C.program(), Opts);
  SolveStats St = S.solve();
  fillStatus(R, St);
  if (C.interp().hasError()) {
    R.St = StrongUpdateResult::Status::Error;
    R.Error = C.interp().error();
    return R;
  }
  if (R.ok())
    extractPointsTo(R, S, *C.predicate("Pt"), *C.predicate("PtH"), In);
  return R;
}
