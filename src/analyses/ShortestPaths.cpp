//===- analyses/ShortestPaths.cpp - Shortest paths (§4.4) ------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "analyses/ShortestPaths.h"

#include "fixpoint/Solver.h"
#include "runtime/Lattices.h"

#include <chrono>
#include <queue>

using namespace flix;

SsspResult flix::runShortestPathsFlix(const WeightedGraph &G, int Source,
                                      SolverOptions Opts) {
  ValueFactory F;
  MinCostLattice L(F);
  Program P(F);

  PredId Edge = P.relation("Edge", 3);
  PredId Dist = P.lattice("Dist", 2, &L);
  FnId Add = P.function("addCost", 2, FnRole::Transfer,
                        [&L](std::span<const Value> A) {
                          if (L.isInfinity(A[0]))
                            return L.infinity();
                          return L.addCost(A[0], A[1].asInt());
                        });

  // Dist(y, d + c) :- Dist(x, d), Edge(x, y, c).
  RuleBuilder()
      .headFn(Dist, {"y"}, Add, {"d", "c"})
      .atom(Dist, {"x", "d"})
      .atom(Edge, {"x", "y", "c"})
      .addTo(P);

  auto N = [&](int I) { return F.integer(I); };
  for (const auto &E : G.Edges)
    P.addFact(Edge, {N(E[0]), N(E[1]), N(E[2])});
  P.addLatFact(Dist, {N(Source)}, L.cost(0));

  Solver S(P, Opts);
  SolveStats St = S.solve();
  SsspResult R;
  R.Seconds = St.Seconds;
  R.FactsDerived = St.FactsDerived;
  if (!St.ok())
    return R;
  R.Ok = true;
  R.Dist.assign(G.NumNodes, -1);
  for (const auto &Row : S.tuples(Dist)) {
    Value V = Row[1];
    if (!L.isInfinity(V))
      R.Dist[Row[0].asInt()] = V.asInt();
  }
  return R;
}

SsspResult flix::runDijkstra(const WeightedGraph &G, int Source) {
  auto Start = std::chrono::steady_clock::now();
  std::vector<std::vector<std::pair<int, int>>> Adj(G.NumNodes);
  for (const auto &E : G.Edges)
    Adj[E[0]].push_back({E[1], E[2]});

  SsspResult R;
  R.Dist.assign(G.NumNodes, -1);
  using QE = std::pair<int64_t, int>;
  std::priority_queue<QE, std::vector<QE>, std::greater<QE>> Q;
  Q.push({0, Source});
  while (!Q.empty()) {
    auto [D, V] = Q.top();
    Q.pop();
    if (R.Dist[V] != -1)
      continue;
    R.Dist[V] = D;
    for (auto [W, C] : Adj[V])
      if (R.Dist[W] == -1)
        Q.push({D + C, W});
  }
  R.Ok = true;
  R.Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  return R;
}

SsspResult flix::runBellmanFord(const WeightedGraph &G, int Source) {
  auto Start = std::chrono::steady_clock::now();
  constexpr int64_t Inf = INT64_MAX / 4;
  std::vector<int64_t> D(G.NumNodes, Inf);
  D[Source] = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &E : G.Edges) {
      if (D[E[0]] == Inf)
        continue;
      int64_t Cand = D[E[0]] + E[2];
      if (Cand < D[E[1]]) {
        D[E[1]] = Cand;
        Changed = true;
      }
    }
  }
  SsspResult R;
  R.Ok = true;
  R.Dist.assign(G.NumNodes, -1);
  for (int V = 0; V < G.NumNodes; ++V)
    if (D[V] != Inf)
      R.Dist[V] = D[V];
  R.Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  return R;
}

std::vector<int64_t> flix::runAllPairsFlix(const WeightedGraph &G,
                                           SolverOptions Opts) {
  ValueFactory F;
  MinCostLattice L(F);
  Program P(F);

  PredId Edge = P.relation("Edge", 3);
  PredId Node = P.relation("Node", 1);
  PredId Dist = P.lattice("Dist", 3, &L);
  FnId Add = P.function("addCost", 2, FnRole::Transfer,
                        [&L](std::span<const Value> A) {
                          if (L.isInfinity(A[0]))
                            return L.infinity();
                          return L.addCost(A[0], A[1].asInt());
                        });

  // Dist(s, s, 0) :- Node(s).
  RuleBuilder()
      .head(Dist, {"s", "s", RuleBuilder::Spec(L.cost(0))})
      .atom(Node, {"s"})
      .addTo(P);
  // Dist(s, z, d + c) :- Dist(s, y, d), Edge(y, z, c).
  RuleBuilder()
      .headFn(Dist, {"s", "z"}, Add, {"d", "c"})
      .atom(Dist, {"s", "y", "d"})
      .atom(Edge, {"y", "z", "c"})
      .addTo(P);

  auto N = [&](int I) { return F.integer(I); };
  for (int V = 0; V < G.NumNodes; ++V)
    P.addFact(Node, {N(V)});
  for (const auto &E : G.Edges)
    P.addFact(Edge, {N(E[0]), N(E[1]), N(E[2])});

  std::vector<int64_t> Out(static_cast<size_t>(G.NumNodes) * G.NumNodes,
                           -1);
  Solver S(P, Opts);
  SolveStats St = S.solve();
  if (!St.ok())
    return Out;
  for (const auto &Row : S.tuples(Dist)) {
    Value V = Row[2];
    if (!L.isInfinity(V))
      Out[Row[0].asInt() * G.NumNodes + Row[1].asInt()] = V.asInt();
  }
  return Out;
}
