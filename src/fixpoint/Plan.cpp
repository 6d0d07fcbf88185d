//===- fixpoint/Plan.cpp - Rule plan compilation and cost model -----------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Plan.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

using namespace flix;
using namespace flix::plan;

namespace {

Operand operandOf(const Term &T) {
  Operand O;
  O.IsConst = !T.isVar();
  if (O.IsConst)
    O.Const = T.Constant;
  else
    O.Var = T.Variable;
  return O;
}

/// The frozen driver-first order as body indices: the driver element (when
/// Driver >= 0) first, the rest in written body order.
SmallVector<uint32_t, 8> defaultOrder(const Rule &R, int Driver) {
  SmallVector<uint32_t, 8> O;
  if (Driver >= 0)
    O.push_back(static_cast<uint32_t>(Driver));
  for (uint32_t I = 0; I < R.Body.size(); ++I)
    if (static_cast<int>(I) != Driver)
      O.push_back(I);
  return O;
}

bool sameOrder(std::span<const uint32_t> A, std::span<const uint32_t> B) {
  return A.size() == B.size() && std::equal(A.begin(), A.end(), B.begin());
}

//===----------------------------------------------------------------------===//
// Cost-model helpers: order validity, boundness evolution, per-element
// estimates. The boundness rules are the same ones the compiler simulates
// (positive atoms bind all their variable terms including the lattice
// column, binder patterns bind, filters and negations bind nothing), so an
// order the chooser accepts is exactly an order the compiler can compile.
//===----------------------------------------------------------------------===//

/// True if \p E can run once the variables in \p BoundVar are bound:
/// filters and binders need their arguments ground, negated atoms their
/// key terms; positive atoms can always run (via scan at worst). The
/// original body order is always a valid placement witness (validation
/// checked groundness along it), so a chooser that always considers the
/// earliest unplaced element can never wedge.
bool placeableElem(const BodyElem &E, const std::vector<bool> &BoundVar) {
  auto ArgsBound = [&](const auto &Terms) {
    for (const Term &T : Terms)
      if (T.isVar() && !BoundVar[T.Variable])
        return false;
    return true;
  };
  if (const auto *Fl = std::get_if<BodyFilter>(&E))
    return ArgsBound(Fl->Args);
  if (const auto *B = std::get_if<BodyBinder>(&E))
    return ArgsBound(B->Args);
  const auto &A = std::get<BodyAtom>(E);
  if (A.Negated)
    return ArgsBound(A.Terms);
  return true;
}

/// Marks the variables \p E binds.
void bindElem(const BodyElem &E, std::vector<bool> &BoundVar) {
  if (std::get_if<BodyFilter>(&E))
    return;
  if (const auto *B = std::get_if<BodyBinder>(&E)) {
    for (VarId V : B->Pattern)
      BoundVar[V] = true;
    return;
  }
  const auto &A = std::get<BodyAtom>(E);
  if (A.Negated)
    return;
  for (const Term &T : A.Terms)
    if (T.isVar())
      BoundVar[T.Variable] = true;
}

/// Cost/fanout of one body element under \p BoundVar. Driver openings are
/// handled by the caller (their fanout — the delta size — scales every
/// candidate order of the same (rule, driver) equally, so it cancels).
AccessEstimate elemEstimate(const Program &P, const BodyElem &E,
                            const std::vector<bool> &BoundVar,
                            const StatsVec &Stats, bool UseIndexes) {
  if (std::get_if<BodyFilter>(&E))
    return {0.5, 1.0}; // one extern call; only ever prunes
  if (std::get_if<BodyBinder>(&E))
    return {4.0, 4.0}; // returned set size is unknowable: small constant
  const auto &A = std::get<BodyAtom>(E);
  if (A.Negated)
    return {1.0, 1.0}; // one primary lookup; passes or fails
  unsigned KA = P.predicate(A.Pred).keyArity();
  uint64_t Mask = 0;
  for (unsigned I = 0; I < KA; ++I) {
    const Term &Tm = A.Terms[I];
    if (!Tm.isVar() || BoundVar[Tm.Variable])
      Mask |= uint64_t(1) << I;
  }
  uint64_t Full = KA == 0 ? 0 : (uint64_t(1) << KA) - 1;
  static const PredStats Empty;
  const PredStats &St = A.Pred < Stats.size() ? Stats[A.Pred] : Empty;
  return estimateAccess(St, Mask, Full, UseIndexes);
}

/// Cost and expected full-match rows of one complete order (Cost = total
/// step cost, Fanout = product of fanouts = estimated matches).
AccessEstimate orderEstimate(const Program &P, const Rule &R, int Driver,
                             std::span<const uint32_t> BodyOrder,
                             const StatsVec &Stats, bool UseIndexes,
                             const std::vector<bool> &PreBound) {
  std::vector<bool> BoundVar = PreBound;
  BoundVar.resize(R.NumVars, false);
  double Cost = 0, Mult = 1;
  for (size_t Pos = 0; Pos < BodyOrder.size(); ++Pos) {
    const BodyElem &E = R.Body[BodyOrder[Pos]];
    if (Pos == 0 && Driver >= 0) {
      bindElem(E, BoundVar); // delta/seed driver: normalized to fanout 1
      continue;
    }
    AccessEstimate A = elemEstimate(P, E, BoundVar, Stats, UseIndexes);
    Cost += Mult * A.Cost;
    Mult *= A.Fanout;
    bindElem(E, BoundVar);
  }
  return {Cost, Mult};
}

} // namespace

//===----------------------------------------------------------------------===//
// Cost model (public surface; unit-tested by PlannerTest on hand-built
// statistics)
//===----------------------------------------------------------------------===//

AccessEstimate flix::plan::estimateAccess(const PredStats &St, uint64_t Mask,
                                          uint64_t Full, bool UseIndexes) {
  // Optimistic one-row floor: derived predicates are planned before they
  // hold anything, and a hard zero would zero out every downstream term,
  // making all orders tie exactly when the initial choose runs.
  double N = std::max(1.0, St.LiveRows);
  if (Mask == Full)
    return {1.0, 1.0}; // primary lookup (covers key arity 0)
  if (Mask == 0 || !UseIndexes)
    return {N, N}; // full scan: every row is a candidate
  if (const Table::IndexStats *IS = St.forMask(Mask)) {
    // Expected bucket size when probe keys follow the table's own key
    // distribution: a bucket of b rows is hit with probability b/N and
    // yields b rows, so Σ b²/N. Σ b² >= N²/buckets, so a table's own
    // statistics never price below the average bucket; the max keeps
    // statistics without SumSq at that average.
    double Avg = N / static_cast<double>(std::max<size_t>(IS->Buckets, 1));
    Avg = std::max(Avg, static_cast<double>(IS->SumSq) / N);
    return {std::max(1.0, Avg), Avg};
  }
  double Est = N;
  if (!St.ColCollision.empty()) {
    // Static predicate without an index on this mask: its sampled
    // per-column collision probabilities, columns taken as independent.
    for (uint64_t M = Mask; M; M &= M - 1)
      Est *= St.ColCollision[static_cast<size_t>(std::countr_zero(M))];
  } else {
    // Derived predicate without an index on this mask: nothing measured,
    // so assume each bound column cuts the candidate set by ~sqrt(N).
    // Selective enough that probing a large relation on a bound key
    // beats scanning it, pessimistic enough that a measured index beats
    // the guess.
    for (uint64_t M = Mask; M; M &= M - 1)
      Est /= std::sqrt(N);
  }
  return {std::max(1.0, Est), Est};
}

double flix::plan::orderCost(const Program &P, const Rule &R, int Driver,
                             std::span<const uint32_t> BodyOrder,
                             const StatsVec &Stats, bool UseIndexes,
                             const std::vector<bool> &PreBound) {
  return orderEstimate(P, R, Driver, BodyOrder, Stats, UseIndexes, PreBound)
      .Cost;
}

SmallVector<uint32_t, 8> flix::plan::chooseOrder(
    const Program &P, const Rule &R, int Driver, const StatsVec &Stats,
    bool UseIndexes, const std::vector<bool> &PreBound) {
  SmallVector<uint32_t, 8> Free;
  for (uint32_t I = 0; I < R.Body.size(); ++I)
    if (static_cast<int>(I) != Driver)
      Free.push_back(I);

  std::vector<bool> BoundVar = PreBound;
  BoundVar.resize(R.NumVars, false);

  SmallVector<uint32_t, 8> Order;
  if (Driver >= 0) {
    Order.push_back(static_cast<uint32_t>(Driver));
    bindElem(R.Body[Driver], BoundVar);
  }

  if (Free.size() > 6) {
    // Large body: greedy min-fanout (smallest intermediate result first),
    // cost then body index as tie-breaks. Strict < keeps the lowest body
    // index on equal statistics, so the choice is deterministic.
    std::vector<bool> Used(Free.size(), false);
    for (size_t Left = Free.size(); Left > 0; --Left) {
      size_t BestI = SIZE_MAX;
      AccessEstimate BestA{0, 0};
      for (size_t I = 0; I < Free.size(); ++I) {
        if (Used[I])
          continue;
        const BodyElem &E = R.Body[Free[I]];
        if (!placeableElem(E, BoundVar))
          continue;
        AccessEstimate A = elemEstimate(P, E, BoundVar, Stats, UseIndexes);
        if (BestI == SIZE_MAX || A.Fanout < BestA.Fanout ||
            (A.Fanout == BestA.Fanout && A.Cost < BestA.Cost)) {
          BestI = I;
          BestA = A;
        }
      }
      assert(BestI != SIZE_MAX && "no placeable element; validation missed "
                                  "an unbound filter/binder/negation");
      Used[BestI] = true;
      Order.push_back(Free[BestI]);
      bindElem(R.Body[Free[BestI]], BoundVar);
    }
    return Order;
  }

  // Small body: branch-and-bound over every valid interleaving. DFS visits
  // candidates in ascending body index and only strict improvements
  // replace the incumbent, so among cost-ties the lexicographically
  // smallest order wins — deterministic for equal statistics.
  SmallVector<uint32_t, 8> Best;
  double BestCost = std::numeric_limits<double>::infinity();
  SmallVector<uint32_t, 8> Cur = Order;
  std::vector<bool> Used(Free.size(), false);
  auto Rec = [&](auto &&Self, double Cost, double Mult,
                 std::vector<bool> &BV, size_t Placed) -> void {
    if (Cost >= BestCost)
      return; // cost only grows along a prefix
    if (Placed == Free.size()) {
      BestCost = Cost;
      Best = Cur;
      return;
    }
    for (size_t I = 0; I < Free.size(); ++I) {
      if (Used[I])
        continue;
      const BodyElem &E = R.Body[Free[I]];
      if (!placeableElem(E, BV))
        continue;
      AccessEstimate A = elemEstimate(P, E, BV, Stats, UseIndexes);
      std::vector<bool> BV2 = BV;
      bindElem(E, BV2);
      Used[I] = true;
      Cur.push_back(Free[I]);
      Self(Self, Cost + Mult * A.Cost, Mult * A.Fanout, BV2, Placed + 1);
      Cur.pop_back();
      Used[I] = false;
    }
  };
  Rec(Rec, 0.0, 1.0, BoundVar, 0);
  assert(Best.size() == R.Body.size() && "no valid order found");
  return Best;
}

namespace {

/// True if slot \p Driver of \p R opens with a Seed step: the head slot,
/// or a negated body atom.
bool isSeedSlot(const Rule &R, int Driver) {
  if (Driver == HeadSlot)
    return true;
  const auto *A =
      Driver < 0 ? nullptr : std::get_if<BodyAtom>(&R.Body[Driver]);
  return A && A->Negated;
}

/// The fronted terms of seed slot \p Driver, in key-column order: the
/// head key terms for HeadSlot, plus the last column of a relational head
/// (part of its key) unless LastFn computes it — a computed column
/// cannot be inverted, so it stays free and the plan may re-derive
/// sibling cells too (idempotent, harmless); the key terms of a negated
/// driver atom. Empty for every other slot.
SmallVector<Term, 4> seedTerms(const Program &P, const Rule &R,
                               int Driver) {
  SmallVector<Term, 4> Out;
  if (!isSeedSlot(R, Driver))
    return Out;
  if (Driver == HeadSlot) {
    for (const Term &T : R.Head.KeyTerms)
      Out.push_back(T);
    if (P.predicate(R.Head.Pred).isRelational() && !R.Head.LastFn)
      Out.push_back(R.Head.LastTerm);
    return Out;
  }
  const auto &A = std::get<BodyAtom>(R.Body[Driver]);
  for (unsigned I = 0, KA = P.predicate(A.Pred).keyArity(); I < KA; ++I)
    Out.push_back(A.Terms[I]);
  return Out;
}

/// The variables a slot binds before its body order starts (the cost
/// model's pre-bound set): the seed's fronted variables. Empty, not
/// all-false, when there are none — the cost model sizes it.
std::vector<bool> seedVars(const Program &P, const Rule &R, int Driver) {
  std::vector<bool> Vars;
  for (const Term &T : seedTerms(P, R, Driver))
    if (T.isVar()) {
      Vars.resize(R.NumVars, false);
      Vars[T.Variable] = true;
    }
  return Vars;
}

/// The body element the cost model pins first for slot \p Driver: none
/// for the head slot, whose seed is not a body element.
int pinnedElem(int Driver) { return Driver == HeadSlot ? -1 : Driver; }

/// Appends the column tests of \p Terms (column I tests Terms[I]) with
/// sequential boundness: a constant is checked, a variable bound in
/// \p Bound is checked, a fresh one binds and is marked bound, so its
/// later occurrences check.
void appendColTests(std::span<const Term> Terms, std::vector<bool> &Bound,
                    SmallVector<ColTest, 4> &Out) {
  for (size_t I = 0; I < Terms.size(); ++I) {
    const Term &Tm = Terms[I];
    ColTest Ct;
    Ct.Col = static_cast<uint8_t>(I);
    if (!Tm.isVar()) {
      Ct.Op = ColOp::CheckConst;
      Ct.Const = Tm.Constant;
    } else if (Bound[Tm.Variable]) {
      Ct.Op = ColOp::CheckVar;
      Ct.Var = Tm.Variable;
    } else {
      Ct.Op = ColOp::Bind;
      Ct.Var = Tm.Variable;
      Bound[Tm.Variable] = true;
    }
    Out.push_back(Ct);
  }
}

/// Compiles one (rule, driver) plan along \p OrderIdx (body indices; the
/// driver element first when Driver >= 0). A positive driver atom opens
/// with a StepKind::Driver step; a seed slot opens with a StepKind::Seed
/// step over its fronted terms (which replaces a negated driver atom's
/// Negation step: a seed row is a key absent from the table).
///
/// Boundness evolves along the order as follows: positive atoms bind all
/// their variable terms including the lattice column, binder patterns
/// bind, negated atoms and filters bind nothing. Along a fixed order that
/// simulation is exact, so every boundness question a row match could
/// ask becomes a compile-time ColOp/LatOp choice. Any order in which
/// filters, binders and negations run only after their arguments are
/// bound compiles to an equivalent plan: ⊔-confluence (§3.7) makes the
/// fixpoint independent of join order, which is what the plan-equivalence
/// harness (PlanDifferentialTest) checks end to end.
RulePlan compilePlan(const Program &P, const Rule &R, uint32_t RuleIdx,
                     int Driver, bool UseIndexes,
                     std::span<const uint32_t> OrderIdx) {
  RulePlan Pl;
  Pl.RuleIdx = RuleIdx;
  Pl.Driver = Driver;
  Pl.NumVars = R.NumVars;
  Pl.Valid = true;

  std::vector<bool> BoundVar(R.NumVars, false);

  assert(OrderIdx.size() == R.Body.size() && "order must cover the body");
  assert((!(Driver >= 0) || OrderIdx[0] == static_cast<uint32_t>(Driver)) &&
         "driver element must open the order");
  for (uint32_t BI : OrderIdx)
    Pl.BodyOrder.push_back(BI);

  if (isSeedSlot(R, Driver)) {
    Step S;
    S.Kind = StepKind::Seed;
    S.Pred = Driver == HeadSlot ? R.Head.Pred
                                : std::get<BodyAtom>(R.Body[Driver]).Pred;
    SmallVector<Term, 4> Terms = seedTerms(P, R, Driver);
    appendColTests({Terms.data(), Terms.size()}, BoundVar, S.Cols);
    Pl.Steps.push_back(std::move(S));
  }

  for (size_t Pos = 0; Pos < OrderIdx.size(); ++Pos) {
    const BodyElem &E = R.Body[OrderIdx[Pos]];

    if (const auto *Fl = std::get_if<BodyFilter>(&E)) {
      // Fuse onto the preceding step: it runs at the same point of the
      // search tree (after that step's candidate matched), and placement
      // guarantees its arguments are bound there. A leading filter gets a
      // one-shot step of its own.
      Guard G;
      G.Fn = Fl->Fn;
      for (const Term &T : Fl->Args)
        G.Args.push_back(operandOf(T));
      if (Pl.Steps.empty()) {
        Step S;
        S.Kind = StepKind::Filter;
        S.Guards.push_back(std::move(G));
        Pl.Steps.push_back(std::move(S));
      } else {
        Pl.Steps.back().Guards.push_back(std::move(G));
      }
      continue;
    }

    if (const auto *B = std::get_if<BodyBinder>(&E)) {
      Step S;
      S.Kind = StepKind::Binder;
      S.Fn = B->Fn;
      for (const Term &T : B->Args)
        S.Args.push_back(operandOf(T));
      for (size_t I = 0; I < B->Pattern.size(); ++I) {
        VarId V = B->Pattern[I];
        ColTest Ct;
        Ct.Col = static_cast<uint8_t>(I);
        Ct.Var = V;
        if (BoundVar[V]) {
          Ct.Op = ColOp::CheckVar;
        } else {
          Ct.Op = ColOp::Bind;
          BoundVar[V] = true; // later duplicate slots become checks
        }
        S.Pattern.push_back(Ct);
      }
      Pl.Steps.push_back(std::move(S));
      continue;
    }

    const auto &A = std::get<BodyAtom>(E);
    const PredicateDecl &D = P.predicate(A.Pred);
    unsigned KA = D.keyArity();

    if (A.Negated) {
      if (Pos == 0 && Driver >= 0)
        continue; // the seed step above stands for it
      // Ground by placement; binds nothing.
      Step S;
      S.Kind = StepKind::Negation;
      S.Pred = A.Pred;
      for (unsigned I = 0; I < KA; ++I)
        S.ProjOps.push_back(operandOf(A.Terms[I]));
      Pl.Steps.push_back(std::move(S));
      continue;
    }

    Step S;
    S.Pred = A.Pred;
    S.Lat = D.isRelational() ? nullptr : D.Lat;
    Pl.PremiseSlots.push_back(static_cast<uint32_t>(
        std::count_if(R.Body.begin(), R.Body.begin() + OrderIdx[Pos],
                      [](const BodyElem &Elem) {
                        const auto *Atom = std::get_if<BodyAtom>(&Elem);
                        return Atom && !Atom->Negated;
                      })));

    // Full column tests with sequential in-atom boundness: the first
    // occurrence of a variable binds, later occurrences (in this atom)
    // check.
    {
      std::vector<bool> InAtom = BoundVar;
      appendColTests({A.Terms.data(), KA}, InAtom, S.Cols);
      if (!D.isRelational()) {
        // The lattice column sees the key columns' binds.
        const Term &Lt = A.Terms[KA];
        if (!Lt.isVar()) {
          S.LOp = LatOp::CheckConstLeq;
          S.LatConst = Lt.Constant;
        } else if (InAtom[Lt.Variable]) {
          S.LOp = LatOp::GlbRebind;
          S.LatVar = Lt.Variable;
        } else {
          S.LOp = LatOp::BindVar;
          S.LatVar = Lt.Variable;
        }
      }
    }

    if (Pos == 0 && Driver >= 0) {
      S.Kind = StepKind::Driver;
    } else {
      // Access-path mask from pre-atom boundness; wantedIndexes() reports
      // exactly these masks to the static index analyses.
      uint64_t Mask = 0;
      for (unsigned I = 0; I < KA; ++I) {
        const Term &Tm = A.Terms[I];
        if (!Tm.isVar() || BoundVar[Tm.Variable]) {
          Mask |= uint64_t(1) << I;
          S.ProjOps.push_back(operandOf(Tm));
        }
      }
      uint64_t Full = KA == 0 ? 0 : (uint64_t(1) << KA) - 1;
      S.Mask = Mask;
      if (Mask == Full) {
        S.Kind = StepKind::Lookup; // exact key: no residual column tests
      } else if (Mask != 0 && UseIndexes) {
        S.Kind = StepKind::Probe;
        // Bucket rows match the masked columns exactly (the projection
        // tuple is hash-consed), so the probe path only runs the tests of
        // unmasked columns.
        for (const ColTest &Ct : S.Cols)
          if (!(Mask & (uint64_t(1) << Ct.Col)))
            S.Binds.push_back(Ct);
      } else {
        S.Kind = StepKind::Scan;
        S.Mask = 0;
        S.ProjOps.clear();
      }
    }
    Pl.Steps.push_back(std::move(S));

    // After the atom, all its variable terms (including the lattice
    // column) are bound.
    for (const Term &Tm : A.Terms)
      if (Tm.isVar())
        BoundVar[Tm.Variable] = true;
  }

  const HeadAtom &H = R.Head;
  Pl.Head.Pred = H.Pred;
  Pl.Head.Relational = P.predicate(H.Pred).isRelational();
  for (const Term &T : H.KeyTerms)
    Pl.Head.KeyOps.push_back(operandOf(T));
  if (H.LastFn) {
    Pl.Head.HasFn = true;
    Pl.Head.Fn = *H.LastFn;
    for (const Term &T : H.FnArgs)
      Pl.Head.FnArgs.push_back(operandOf(T));
  } else {
    Pl.Head.LastOp = operandOf(H.LastTerm);
  }
  return Pl;
}

/// Whether \p Only names slot \p Driver of \p R.
bool canRun(const RunnablePlans &Only, const Rule &R, int Driver) {
  if (Driver == -1)
    return Only.Plain;
  if (isSeedSlot(R, Driver))
    return Only.Seeds;
  PredId Pred = std::get<BodyAtom>(R.Body[Driver]).Pred;
  return Pred < Only.Delta.size() && !Only.Delta[Pred].empty();
}

/// One plan's replan decision: recompiles \p Pl (of rule \p R, keeping
/// its driver) with the chosen order when its current cost exceeds
/// Threshold × the best candidate's.
bool replanOne(const Program &P, bool UseIndexes, RulePlan &Pl,
               const Rule &R, const StatsVec &Stats, double Threshold) {
  int Pinned = pinnedElem(Pl.Driver);
  std::vector<bool> PreBound = seedVars(P, R, Pl.Driver);
  SmallVector<uint32_t, 8> Best =
      chooseOrder(P, R, Pinned, Stats, UseIndexes, PreBound);
  std::span<const uint32_t> BestView(Best.data(), Best.size());
  std::span<const uint32_t> CurView(Pl.BodyOrder.data(),
                                    Pl.BodyOrder.size());
  if (sameOrder(BestView, CurView))
    return false;
  AccessEstimate CurE =
      orderEstimate(P, R, Pinned, CurView, Stats, UseIndexes, PreBound);
  AccessEstimate BestE =
      orderEstimate(P, R, Pinned, BestView, Stats, UseIndexes, PreBound);
  // Hysteresis: keep the current plan unless it is Threshold× worse than
  // the best candidate (1e-9 guards float ties).
  if (CurE.Cost <= Threshold * BestE.Cost + 1e-9)
    return false;
  Pl = compilePlan(P, R, Pl.RuleIdx, Pl.Driver, UseIndexes, BestView);
  return true;
}

} // namespace

StatsCollector::StatsCollector(const Program &P,
                               const std::vector<Rule> &Rules, bool Seeds) {
  PerPred.resize(P.predicates().size());
  for (Sampled &S : PerPred)
    S.Static = true;
  for (const Rule &R : Rules)
    PerPred[R.Head.Pred].Static = false;
  for (const Rule &R : Rules) {
    // Variables a seed plan of R may front (its pre-bound set).
    std::vector<bool> SeedBound(R.NumVars, false);
    if (Seeds)
      for (int Driver = HeadSlot; Driver < static_cast<int>(R.Body.size());
           ++Driver)
        for (const Term &T : seedTerms(P, R, Driver))
          if (T.isVar())
            SeedBound[T.Variable] = true;
    for (size_t AI = 0; AI < R.Body.size(); ++AI) {
      const auto *A = std::get_if<BodyAtom>(&R.Body[AI]);
      if (!A || A->Negated || !PerPred[A->Pred].Static)
        continue;
      std::vector<bool> Bindable = SeedBound;
      for (size_t EI = 0; EI < R.Body.size(); ++EI)
        if (EI != AI)
          bindElem(R.Body[EI], Bindable);
      for (unsigned C = 0, KA = P.predicate(A->Pred).keyArity(); C < KA; ++C)
        if (!A->Terms[C].isVar() || Bindable[A->Terms[C].Variable])
          PerPred[A->Pred].Cols |= uint64_t(1) << C;
    }
  }
}

void StatsCollector::gather(std::span<const std::unique_ptr<Table>> Tables,
                            StatsVec &Out) {
  Out.clear();
  Out.resize(Tables.size());
  std::vector<Table::IndexStats> Idx;
  for (size_t I = 0; I < Tables.size(); ++I) {
    const Table &T = *Tables[I];
    double Live = static_cast<double>(T.liveSize());
    Out[I].LiveRows = Live;
    Idx.clear();
    T.collectIndexStats(Idx);
    for (const Table::IndexStats &S : Idx)
      Out[I].Indexes.push_back(S);
    Sampled &S = PerPred[I];
    if (!S.Static)
      continue;
    if (!S.Taken || Live > RecountFactor * S.TakenAt ||
        Live * RecountFactor < S.TakenAt) {
      T.sampleCollisions(S.Cols, SampleRows, S.Collision);
      S.Taken = true;
      S.TakenAt = Live;
    }
    Out[I].ColCollision = S.Collision;
  }
}

PlanLibrary::PlanLibrary(const Program &P, const std::vector<Rule> &Rules,
                         bool UseIndexes, bool Seeds)
    : Prog(&P), Rules(&Rules), UseIndexes(UseIndexes) {
  PerRule.resize(Rules.size());
  for (uint32_t RI = 0; RI < Rules.size(); ++RI) {
    const Rule &R = Rules[RI];
    PerRule[RI].resize(R.Body.size() + 2);
    for (int Driver = HeadSlot; Driver < static_cast<int>(R.Body.size());
         ++Driver) {
      if (Driver >= 0 && !std::holds_alternative<BodyAtom>(R.Body[Driver]))
        continue; // filters and binders never drive
      if (!Seeds && isSeedSlot(R, Driver))
        continue;
      SmallVector<uint32_t, 8> Def = defaultOrder(R, Driver);
      PerRule[RI][static_cast<size_t>(Driver - HeadSlot)] = compilePlan(
          P, R, RI, Driver, UseIndexes, {Def.data(), Def.size()});
    }
  }
  recountDerived();
}

PlanLibrary::ReplanResult
PlanLibrary::replanFromStats(const StatsVec &Stats, double Threshold,
                             const RunnablePlans *Only) {
  ReplanResult Res;
  // Drift between this snapshot and the previous one: how far the shapes
  // the current plans were estimated against have moved
  // (SolveStats::EstimatedVsActualRows).
  double Div = 0;
  for (size_t I = 0; I < Stats.size(); ++I) {
    double Prev = I < LastStats.size() ? LastStats[I].LiveRows : 0.0;
    Div += std::fabs(Stats[I].LiveRows - Prev);
  }
  Res.RowsDivergence = static_cast<uint64_t>(Div);
  LastStats = Stats;

  for (uint32_t RI = 0; RI < Rules->size(); ++RI) {
    const Rule &R = (*Rules)[RI];
    for (RulePlan &Pl : PerRule[RI]) {
      if (!Pl.Valid)
        continue;
      if (Only && !canRun(*Only, R, Pl.Driver))
        continue;
      Res.Replanned +=
          replanOne(*Prog, UseIndexes, Pl, R, Stats, Threshold);
    }
  }
  if (Res.Replanned)
    recountDerived();
  return Res;
}

void PlanLibrary::recountDerived() {
  TotalSteps = 0;
  CostBased = 0;
  for (uint32_t RI = 0; RI < PerRule.size(); ++RI) {
    for (const RulePlan &Pl : PerRule[RI]) {
      if (!Pl.Valid)
        continue;
      TotalSteps += Pl.Steps.size();
      SmallVector<uint32_t, 8> Def = defaultOrder((*Rules)[RI], Pl.Driver);
      CostBased += !sameOrder({Pl.BodyOrder.data(), Pl.BodyOrder.size()},
                              {Def.data(), Def.size()});
    }
  }
}

void PlanLibrary::wantedIndexes(
    std::vector<std::vector<uint64_t>> &MasksByPred) const {
  for (uint32_t RI = 0; RI < PerRule.size(); ++RI)
    for (const RulePlan &Pl : PerRule[RI]) {
      if (!Pl.Valid || isSeedSlot((*Rules)[RI], Pl.Driver))
        continue;
      for (const Step &S : Pl.Steps)
        if (S.Kind == StepKind::Probe)
          MasksByPred[S.Pred].push_back(S.Mask);
    }
  for (std::vector<uint64_t> &Masks : MasksByPred) {
    std::sort(Masks.begin(), Masks.end());
    Masks.erase(std::unique(Masks.begin(), Masks.end()), Masks.end());
  }
}
