//===- analyses/Ifds.cpp - IFDS framework (§4.2, Figure 5) -----------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "analyses/Ifds.h"

#include "fixpoint/Solver.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <unordered_map>
#include <unordered_set>

using namespace flix;

//===----------------------------------------------------------------------===//
// Declarative solver (Figure 5, verbatim)
//===----------------------------------------------------------------------===//

IfdsResult flix::runIfdsFlix(const IfdsProblem &In, SolverOptions Opts) {
  ValueFactory F;
  Program P(F);

  PredId Cfg = P.relation("CFG", 2);
  PredId CallGraph = P.relation("CallGraph", 2);
  PredId StartNode = P.relation("StartNode", 2);
  PredId EndNode = P.relation("EndNode", 2);
  PredId PathEdge = P.relation("PathEdge", 3);
  PredId SummaryEdge = P.relation("SummaryEdge", 3);
  PredId EshCallStart = P.relation("EshCallStart", 4);
  PredId Result = P.relation("Result", 2);

  // The three flow functions enter the program as set-valued binders —
  // "it is essential that the transfer functions be specified as
  // functions; they cannot be tabulated" (§4.2).
  FnId EshIntraFn = P.function(
      "eshIntra", 2, FnRole::Binder, [&](std::span<const Value> A) {
        std::vector<int> Tmp;
        In.EshIntra(static_cast<int>(A[0].asInt()),
                    static_cast<int>(A[1].asInt()), Tmp);
        std::vector<Value> Out;
        Out.reserve(Tmp.size());
        for (int D : Tmp)
          Out.push_back(F.integer(D));
        return F.set(std::move(Out));
      });
  FnId EshCallStartFn = P.function(
      "eshCallStart", 3, FnRole::Binder, [&](std::span<const Value> A) {
        std::vector<int> Tmp;
        In.EshCallStart(static_cast<int>(A[0].asInt()),
                        static_cast<int>(A[1].asInt()),
                        static_cast<int>(A[2].asInt()), Tmp);
        std::vector<Value> Out;
        Out.reserve(Tmp.size());
        for (int D : Tmp)
          Out.push_back(F.integer(D));
        return F.set(std::move(Out));
      });
  FnId EshEndReturnFn = P.function(
      "eshEndReturn", 3, FnRole::Binder, [&](std::span<const Value> A) {
        std::vector<int> Tmp;
        In.EshEndReturn(static_cast<int>(A[0].asInt()),
                        static_cast<int>(A[1].asInt()),
                        static_cast<int>(A[2].asInt()), Tmp);
        std::vector<Value> Out;
        Out.reserve(Tmp.size());
        for (int D : Tmp)
          Out.push_back(F.integer(D));
        return F.set(std::move(Out));
      });

  // PathEdge(d1, m, d3) :- CFG(n, m), PathEdge(d1, n, d2),
  //                        d3 <- eshIntra(n, d2).
  RuleBuilder()
      .head(PathEdge, {"d1", "m", "d3"})
      .atom(Cfg, {"n", "m"})
      .atom(PathEdge, {"d1", "n", "d2"})
      .bind({"d3"}, EshIntraFn, {"n", "d2"})
      .addTo(P);
  // PathEdge(d1, m, d3) :- CFG(n, m), PathEdge(d1, n, d2),
  //                        SummaryEdge(n, d2, d3).
  RuleBuilder()
      .head(PathEdge, {"d1", "m", "d3"})
      .atom(Cfg, {"n", "m"})
      .atom(PathEdge, {"d1", "n", "d2"})
      .atom(SummaryEdge, {"n", "d2", "d3"})
      .addTo(P);
  // PathEdge(d3, start, d3) :- PathEdge(d1, call, d2),
  //     CallGraph(call, target), EshCallStart(call, d2, target, d3),
  //     StartNode(target, start).
  RuleBuilder()
      .head(PathEdge, {"d3", "start", "d3"})
      .atom(PathEdge, {"d1", "call", "d2"})
      .atom(CallGraph, {"call", "target"})
      .atom(EshCallStart, {"call", "d2", "target", "d3"})
      .atom(StartNode, {"target", "start"})
      .addTo(P);
  // SummaryEdge(call, d4, d5) :- CallGraph(call, target),
  //     StartNode(target, start), EndNode(target, end),
  //     EshCallStart(call, d4, target, d1), PathEdge(d1, end, d2),
  //     d5 <- eshEndReturn(target, d2, call).
  RuleBuilder()
      .head(SummaryEdge, {"call", "d4", "d5"})
      .atom(CallGraph, {"call", "target"})
      .atom(StartNode, {"target", "start"})
      .atom(EndNode, {"target", "end"})
      .atom(EshCallStart, {"call", "d4", "target", "d1"})
      .atom(PathEdge, {"d1", "end", "d2"})
      .bind({"d5"}, EshEndReturnFn, {"target", "d2", "call"})
      .addTo(P);
  // EshCallStart(call, d, target, d2) :- PathEdge(_, call, d),
  //     CallGraph(call, target), d2 <- eshCallStart(call, d, target).
  RuleBuilder()
      .head(EshCallStart, {"call", "d", "target", "d2"})
      .atom(PathEdge, {"_", "call", "d"})
      .atom(CallGraph, {"call", "target"})
      .bind({"d2"}, EshCallStartFn, {"call", "d", "target"})
      .addTo(P);
  // Result(n, d2) :- PathEdge(_, n, d2).
  RuleBuilder()
      .head(Result, {"n", "d2"})
      .atom(PathEdge, {"_", "n", "d2"})
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
  for (auto [Node, D] : In.Seeds)
    P.addFact(PathEdge, {N(D), N(Node), N(D)});

  Solver S(P, Opts);
  SolveStats St = S.solve();
  IfdsResult R;
  R.Seconds = St.Seconds;
  R.Stats = St;
  if (!St.ok()) {
    R.Error = St.Error.empty() ? "solver did not reach a fixpoint"
                               : St.Error;
    return R;
  }
  R.Ok = true;
  R.NumPathEdges = S.table(PathEdge).size();
  R.NumSummaries = S.table(SummaryEdge).size();
  for (const auto &Row : S.tuples(Result))
    R.Result.insert({static_cast<int>(Row[0].asInt()),
                     static_cast<int>(Row[1].asInt())});
  return R;
}

//===----------------------------------------------------------------------===//
// Imperative tabulation solver (the Table 2 baseline)
//===----------------------------------------------------------------------===//

namespace {

struct PairHash {
  size_t operator()(const std::pair<int, int> &P) const {
    return std::hash<int64_t>()((static_cast<int64_t>(P.first) << 32) ^
                                static_cast<uint32_t>(P.second));
  }
};

struct TripleHash {
  size_t operator()(const std::array<int, 3> &T) const {
    return std::hash<int64_t>()((static_cast<int64_t>(T[0]) << 40) ^
                                (static_cast<int64_t>(T[1]) << 20) ^
                                static_cast<uint32_t>(T[2]));
  }
};

} // namespace

IfdsResult flix::runIfdsImperative(const IfdsProblem &In) {
  auto Start = std::chrono::steady_clock::now();

  // Indexes over the supergraph.
  std::vector<std::vector<int>> Succs(In.NumNodes);
  for (auto [A, B] : In.CfgEdges)
    Succs[A].push_back(B);
  std::vector<std::vector<int>> CalleesOf(In.NumNodes);
  for (auto [Call, Target] : In.CallEdges)
    CalleesOf[Call].push_back(Target);
  std::vector<int> ProcOfEnd(In.NumNodes, -1);
  for (int Proc = 0; Proc < In.NumProcs; ++Proc)
    ProcOfEnd[In.EndNodes[Proc]] = Proc;

  // PathEdge set: (d1, n, d3). Worklist of the same triples.
  std::unordered_set<std::array<int, 3>, TripleHash> PathEdges;
  std::deque<std::array<int, 3>> Work;
  auto propagate = [&](int D1, int Node, int D3) {
    std::array<int, 3> E = {D1, Node, D3};
    if (PathEdges.insert(E).second)
      Work.push_back(E);
  };

  // SummaryEdge[(call, d4)] -> {d5}.
  std::unordered_map<std::pair<int, int>, std::vector<int>, PairHash>
      Summaries;
  // Tabulated eshCallStart and its inverse (the §4.2 discussion): for a
  // (call, target) pair, which call-site facts d4 map to callee-entry
  // fact d1.
  std::unordered_map<std::pair<int, int>,
                     std::unordered_map<int, std::vector<int>>, PairHash>
      CallFactsInverse;
  // Guard so each (call, d, target) is expanded once.
  std::unordered_set<std::array<int, 3>, TripleHash> CallSeen;
  // PathEdges seen at a call, keyed by (call, d2), for re-propagation
  // when a later summary appears.
  std::unordered_map<std::pair<int, int>, std::vector<int>, PairHash>
      IncomingAt;
  // Facts observed at procedure ends: EndFacts[proc][d1] -> {d2}.
  std::vector<std::unordered_map<int, std::vector<int>>> EndFacts(
      In.NumProcs);

  for (auto [Node, D] : In.Seeds)
    propagate(D, Node, D);

  std::vector<int> Tmp;

  // Installs summary (Call, D4 -> D5) and re-propagates through it.
  auto addSummary = [&](int Call, int D4, int D5) {
    std::vector<int> &Sum = Summaries[{Call, D4}];
    if (std::find(Sum.begin(), Sum.end(), D5) != Sum.end())
      return;
    Sum.push_back(D5);
    auto IncIt = IncomingAt.find({Call, D4});
    if (IncIt == IncomingAt.end())
      return;
    for (int D0 : IncIt->second)
      for (int M : Succs[Call])
        propagate(D0, M, D5);
  };

  while (!Work.empty()) {
    auto [D1, Node, D2] = Work.front();
    Work.pop_front();

    // Record for summary re-propagation at call sites.
    if (!CalleesOf[Node].empty())
      IncomingAt[{Node, D2}].push_back(D1);

    // Intraprocedural flow and already-known summaries, over CFG edges.
    for (int M : Succs[Node]) {
      Tmp.clear();
      In.EshIntra(Node, D2, Tmp);
      for (int D3 : Tmp)
        propagate(D1, M, D3);
      auto SIt = Summaries.find({Node, D2});
      if (SIt != Summaries.end())
        for (int D3 : SIt->second)
          propagate(D1, M, D3);
    }

    // Calls: enter the callee, remember the fact mapping, and connect to
    // any already-computed callee end facts.
    for (int Target : CalleesOf[Node]) {
      if (!CallSeen.insert({Node, D2, Target}).second)
        continue;
      Tmp.clear();
      In.EshCallStart(Node, D2, Target, Tmp);
      std::vector<int> Entry = Tmp;
      for (int D3 : Entry) {
        CallFactsInverse[{Node, Target}][D3].push_back(D2);
        propagate(D3, In.StartNodes[Target], D3);
        // The callee may already have end facts for D3 (computed while
        // serving another call site); connect them now.
        auto EFIt = EndFacts[Target].find(D3);
        if (EFIt == EndFacts[Target].end())
          continue;
        for (int DEnd : EFIt->second) {
          Tmp.clear();
          In.EshEndReturn(Target, DEnd, Node, Tmp);
          for (int D5 : Tmp)
            addSummary(Node, D2, D5);
        }
      }
    }

    // Procedure end: record the end fact and build summaries for every
    // call site already known to enter with D1.
    int Proc = ProcOfEnd[Node];
    if (Proc >= 0) {
      std::vector<int> &Known = EndFacts[Proc][D1];
      if (std::find(Known.begin(), Known.end(), D2) == Known.end()) {
        Known.push_back(D2);
        for (auto &[CallTarget, Inverse] : CallFactsInverse) {
          if (CallTarget.second != Proc)
            continue;
          auto InvIt = Inverse.find(D1);
          if (InvIt == Inverse.end())
            continue;
          int Call = CallTarget.first;
          Tmp.clear();
          In.EshEndReturn(Proc, D2, Call, Tmp);
          for (int D5 : Tmp)
            for (int D4 : InvIt->second)
              addSummary(Call, D4, D5);
        }
      }
    }
  }

  IfdsResult R;
  R.Ok = true;
  R.NumPathEdges = PathEdges.size();
  for (const auto &[Key, Ds] : Summaries)
    R.NumSummaries += Ds.size();
  for (const auto &E : PathEdges)
    R.Result.insert({E[1], E[2]});
  R.Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  return R;
}
