//===- analyses/PointsTo.cpp - Andersen points-to (Figure 1) ---------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "analyses/PointsTo.h"

#include "fixpoint/Solver.h"

#include <array>

using namespace flix;

bool PointsToResult::varPointsTo(const std::string &Var,
                                 const std::string &Obj) const {
  for (const auto &[V, O] : VarPointsTo)
    if (V == Var && O == Obj)
      return true;
  return false;
}

PointsToPredicates flix::addPointsToRules(Program &P) {
  PointsToPredicates Ids;
  Ids.New = P.relation("New", 2);
  Ids.Assign = P.relation("Assign", 2);
  Ids.Load = P.relation("Load", 3);
  Ids.Store = P.relation("Store", 3);
  Ids.VarPointsTo = P.relation("VarPointsTo", 2);
  Ids.HeapPointsTo = P.relation("HeapPointsTo", 3);

  // VarPointsTo(v1, h1) :- New(v1, h1).
  RuleBuilder()
      .head(Ids.VarPointsTo, {"v1", "h1"})
      .atom(Ids.New, {"v1", "h1"})
      .addTo(P);
  // VarPointsTo(v1, h2) :- Assign(v1, v2), VarPointsTo(v2, h2).
  RuleBuilder()
      .head(Ids.VarPointsTo, {"v1", "h2"})
      .atom(Ids.Assign, {"v1", "v2"})
      .atom(Ids.VarPointsTo, {"v2", "h2"})
      .addTo(P);
  // VarPointsTo(v1, h2) :- Load(v1, v2, f), VarPointsTo(v2, h1),
  //                        HeapPointsTo(h1, f, h2).
  RuleBuilder()
      .head(Ids.VarPointsTo, {"v1", "h2"})
      .atom(Ids.Load, {"v1", "v2", "f"})
      .atom(Ids.VarPointsTo, {"v2", "h1"})
      .atom(Ids.HeapPointsTo, {"h1", "f", "h2"})
      .addTo(P);
  // HeapPointsTo(h1, f, h2) :- Store(v1, f, v2), VarPointsTo(v1, h1),
  //                            VarPointsTo(v2, h2).
  RuleBuilder()
      .head(Ids.HeapPointsTo, {"h1", "f", "h2"})
      .atom(Ids.Store, {"v1", "f", "v2"})
      .atom(Ids.VarPointsTo, {"v1", "h1"})
      .atom(Ids.VarPointsTo, {"v2", "h2"})
      .addTo(P);
  return Ids;
}

PointsToResult flix::runPointsTo(const PointsToInput &In,
                                 SolverOptions Opts) {
  ValueFactory F;
  Program P(F);
  PointsToPredicates Ids = addPointsToRules(P);

  for (const auto &N : In.News)
    P.addFact(Ids.New, {F.string(N.Var), F.string(N.Obj)});
  for (const auto &A : In.Assigns)
    P.addFact(Ids.Assign, {F.string(A.To), F.string(A.From)});
  for (const auto &L : In.Loads)
    P.addFact(Ids.Load, {F.string(L.To), F.string(L.Base), F.string(L.Field)});
  for (const auto &S : In.Stores)
    P.addFact(Ids.Store,
              {F.string(S.Base), F.string(S.Field), F.string(S.From)});

  Solver S(P, Opts);
  SolveStats St = S.solve();
  PointsToResult R;
  R.Stats = St;
  if (!R.Stats.ok())
    return R;

  for (const auto &Row : S.tuples(Ids.VarPointsTo))
    R.VarPointsTo.emplace_back(F.strings().text(Row[0].asStr()),
                               F.strings().text(Row[1].asStr()));
  for (const auto &Row : S.tuples(Ids.HeapPointsTo))
    R.HeapPointsTo.push_back({F.strings().text(Row[0].asStr()),
                              F.strings().text(Row[1].asStr()),
                              F.strings().text(Row[2].asStr())});
  return R;
}
