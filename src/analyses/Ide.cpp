//===- analyses/Ide.cpp - IDE framework (§4.3, Figure 6) -------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "analyses/Ide.h"

#include "fixpoint/Solver.h"

using namespace flix;

IdeResult flix::runIdeFlix(const IdeProblem &In, SolverOptions Opts) {
  ValueFactory F;
  ConstantLattice CL(F);
  TransformerLattice TL(F, CL);
  Program P(F);

  PredId Cfg = P.relation("CFG", 2);
  PredId CallGraph = P.relation("CallGraph", 2);
  PredId StartNode = P.relation("StartNode", 2);
  PredId EndNode = P.relation("EndNode", 2);
  PredId InProc = P.relation("InProc", 2);
  PredId JumpFn = P.lattice("JumpFn", 4, &TL);
  PredId SummaryFn = P.lattice("SummaryFn", 4, &TL);
  PredId EshCS = P.lattice("EshCallStart", 5, &TL);
  PredId Result = P.lattice("Result", 3, &CL);
  PredId ResultProc = P.lattice("ResultProc", 3, &CL);

  // Micro-function combinators (Figure 7).
  FnId Comp = P.function("comp", 2, FnRole::Transfer,
                         [&TL](std::span<const Value> A) {
                           return TL.comp(A[0], A[1]);
                         });
  FnId Comp3 = P.function("comp3", 3, FnRole::Transfer,
                          [&TL](std::span<const Value> A) {
                            return TL.comp(TL.comp(A[0], A[1]), A[2]);
                          });
  FnId Identity = P.function("identity", 0, FnRole::Transfer,
                             [&TL](std::span<const Value>) {
                               return TL.identity();
                             });
  FnId Apply = P.function("apply", 2, FnRole::Transfer,
                          [&TL](std::span<const Value> A) {
                            return TL.apply(A[0], A[1]);
                          });

  // Set-valued flow functions returning (fact, micro-function) pairs.
  auto makeEsh = [&](const char *Name, auto Callback, unsigned Arity) {
    return P.function(Name, Arity, FnRole::Binder, std::move(Callback));
  };
  FnId EshIntraFn = makeEsh(
      "eshIntra",
      [&](std::span<const Value> A) {
        IdeProblem::Out Tmp;
        In.EshIntra(static_cast<int>(A[0].asInt()),
                    static_cast<int>(A[1].asInt()), TL, Tmp);
        std::vector<Value> Out;
        for (auto &[D, Fn] : Tmp)
          Out.push_back(F.tuple({F.integer(D), Fn}));
        return F.set(std::move(Out));
      },
      2);
  FnId EshCallStartFn = makeEsh(
      "eshCallStart",
      [&](std::span<const Value> A) {
        IdeProblem::Out Tmp;
        In.EshCallStart(static_cast<int>(A[0].asInt()),
                        static_cast<int>(A[1].asInt()),
                        static_cast<int>(A[2].asInt()), TL, Tmp);
        std::vector<Value> Out;
        for (auto &[D, Fn] : Tmp)
          Out.push_back(F.tuple({F.integer(D), Fn}));
        return F.set(std::move(Out));
      },
      3);
  FnId EshEndReturnFn = makeEsh(
      "eshEndReturn",
      [&](std::span<const Value> A) {
        IdeProblem::Out Tmp;
        In.EshEndReturn(static_cast<int>(A[0].asInt()),
                        static_cast<int>(A[1].asInt()),
                        static_cast<int>(A[2].asInt()), TL, Tmp);
        std::vector<Value> Out;
        for (auto &[D, Fn] : Tmp)
          Out.push_back(F.tuple({F.integer(D), Fn}));
        return F.set(std::move(Out));
      },
      3);

  // JumpFn(d1, m, d3, comp(long, short)) :- CFG(n, m),
  //     JumpFn(d1, n, d2, long), (d3, short) <- eshIntra(n, d2).
  RuleBuilder()
      .headFn(JumpFn, {"d1", "m", "d3"}, Comp, {"long", "short"})
      .atom(Cfg, {"n", "m"})
      .atom(JumpFn, {"d1", "n", "d2", "long"})
      .bind({"d3", "short"}, EshIntraFn, {"n", "d2"})
      .addTo(P);
  // JumpFn(d1, m, d3, comp(caller, summary)) :- CFG(n, m),
  //     JumpFn(d1, n, d2, caller), SummaryFn(n, d2, d3, summary).
  RuleBuilder()
      .headFn(JumpFn, {"d1", "m", "d3"}, Comp, {"caller", "summary"})
      .atom(Cfg, {"n", "m"})
      .atom(JumpFn, {"d1", "n", "d2", "caller"})
      .atom(SummaryFn, {"n", "d2", "d3", "summary"})
      .addTo(P);
  // JumpFn(d3, start, d3, identity()) :- JumpFn(d1, call, d2, _),
  //     CallGraph(call, target), EshCallStart(call, d2, target, d3, _),
  //     StartNode(target, start).
  RuleBuilder()
      .headFn(JumpFn, {"d3", "start", "d3"}, Identity, {})
      .atom(JumpFn, {"d1", "call", "d2", "_"})
      .atom(CallGraph, {"call", "target"})
      .atom(EshCS, {"call", "d2", "target", "d3", "_"})
      .atom(StartNode, {"target", "start"})
      .addTo(P);
  // SummaryFn(call, d4, d5, comp(comp(cs, se), er)) :-
  //     CallGraph(call, target), StartNode(target, start),
  //     EndNode(target, end), EshCallStart(call, d4, target, d1, cs),
  //     JumpFn(d1, end, d2, se), (d5, er) <- eshEndReturn(target, d2, call).
  RuleBuilder()
      .headFn(SummaryFn, {"call", "d4", "d5"}, Comp3, {"cs", "se", "er"})
      .atom(CallGraph, {"call", "target"})
      .atom(StartNode, {"target", "start"})
      .atom(EndNode, {"target", "end"})
      .atom(EshCS, {"call", "d4", "target", "d1", "cs"})
      .atom(JumpFn, {"d1", "end", "d2", "se"})
      .bind({"d5", "er"}, EshEndReturnFn, {"target", "d2", "call"})
      .addTo(P);
  // EshCallStart(call, d, target, d2, cs) :- JumpFn(_, call, d, _),
  //     CallGraph(call, target), (d2, cs) <- eshCallStart(call, d, target).
  RuleBuilder()
      .head(EshCS, {"call", "d", "target", "d2", "cs"})
      .atom(JumpFn, {"_", "call", "d", "_"})
      .atom(CallGraph, {"call", "target"})
      .bind({"d2", "cs"}, EshCallStartFn, {"call", "d", "target"})
      .addTo(P);
  // InProc(p, start) :- StartNode(p, start).
  RuleBuilder()
      .head(InProc, {"p", "start"})
      .atom(StartNode, {"p", "start"})
      .addTo(P);
  // InProc(p, m) :- InProc(p, n), CFG(n, m).
  RuleBuilder()
      .head(InProc, {"p", "m"})
      .atom(InProc, {"p", "n"})
      .atom(Cfg, {"n", "m"})
      .addTo(P);
  // Result(n, d, apply(fn, vp)) :- ResultProc(proc, dp, vp),
  //     InProc(proc, n), JumpFn(dp, n, d, fn).
  RuleBuilder()
      .headFn(Result, {"n", "d"}, Apply, {"fn", "vp"})
      .atom(ResultProc, {"proc", "dp", "vp"})
      .atom(InProc, {"proc", "n"})
      .atom(JumpFn, {"dp", "n", "d", "fn"})
      .addTo(P);
  // ResultProc(proc, dp, apply(cs, v)) :- Result(call, d, v),
  //     EshCallStart(call, d, proc, dp, cs).
  RuleBuilder()
      .headFn(ResultProc, {"proc", "dp"}, Apply, {"cs", "v"})
      .atom(Result, {"call", "d", "v"})
      .atom(EshCS, {"call", "d", "proc", "dp", "cs"})
      .addTo(P);

  auto N = [&](int I) { return F.integer(I); };
  for (auto [A, B] : In.CfgEdges)
    P.addFact(Cfg, {N(A), N(B)});
  for (auto [A, B] : In.CallEdges)
    P.addFact(CallGraph, {N(A), N(B)});
  for (int Proc = 0; Proc < In.NumProcs; ++Proc) {
    P.addFact(StartNode, {N(Proc), N(In.StartNodes[Proc])});
    P.addFact(EndNode, {N(Proc), N(In.EndNodes[Proc])});
  }
  for (int D : In.MainFacts)
    P.addLatFact(JumpFn, {N(D), N(In.StartNodes[In.MainProc]), N(D)},
                 TL.identity());
  for (const auto &Seed : In.Seeds) {
    Value V = CL.top();
    if (Seed.K == IdeProblem::Seed::Kind::Bot)
      V = CL.bot();
    else if (Seed.K == IdeProblem::Seed::Kind::Cst)
      V = CL.constant(Seed.Cst);
    P.addLatFact(ResultProc, {N(Seed.Proc), N(Seed.Fact)}, V);
  }

  Solver S(P, Opts);
  SolveStats St = S.solve();
  IdeResult R;
  R.Seconds = St.Seconds;
  R.Stats = St;
  if (!St.ok()) {
    R.Error = St.Error.empty() ? "solver did not reach a fixpoint"
                               : St.Error;
    return R;
  }
  R.Ok = true;
  R.NumJumpFns = S.table(JumpFn).size();
  R.NumSummaries = S.table(SummaryFn).size();
  for (const auto &Row : S.tuples(JumpFn)) {
    if (Row[3] == TL.bot())
      continue;
    R.Reachable.insert({static_cast<int>(Row[1].asInt()),
                        static_cast<int>(Row[2].asInt())});
  }
  for (const auto &Row : S.tuples(Result)) {
    Value V = Row[2];
    std::string Rendered;
    if (V == CL.bot())
      Rendered = "Bot";
    else if (V == CL.top())
      Rendered = "Top";
    else
      Rendered = std::to_string(CL.constantValue(V));
    R.Values[{static_cast<int>(Row[0].asInt()),
              static_cast<int>(Row[1].asInt())}] = Rendered;
  }
  return R;
}
