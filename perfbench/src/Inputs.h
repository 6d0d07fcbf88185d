//===- perfbench/src/Inputs.h - Seeded workload inputs ----------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How a run's seed becomes its inputs. Every workload starts from the
/// instance the paper-table benches use (generator seed 2016), and the run
/// seed renames it: a random permutation of its node, fact, variable,
/// object and label ids, and a shuffle of every fact list. The seed also
/// drives each workload's update and query streams.
///
/// Renaming instead of regenerating keeps the amount of work fixed across
/// seeds, so runs with different seeds measure the same thing: freshly
/// generated instances of one preset differ in solve time by more than 2x,
/// which no bound on a regression could absorb. What a new seed changes is
/// everything an implementation could overfit to: hash values, table and
/// index layout, insertion order, and which cells the updates and queries
/// touch.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_PERFBENCH_INPUTS_H
#define FLIX_PERFBENCH_INPUTS_H

#include "analyses/StrongUpdate.h"
#include "workload/IcfgWorkload.h"

#include <algorithm>
#include <numeric>
#include <random>

namespace perfbench {

/// Generator seed of the base instances (that of bench/table1 and table2).
constexpr uint64_t BaseInstanceSeed = 2016;

/// A uniformly random permutation of 0..N-1, keeping the first \p Fixed
/// ids in place.
inline std::vector<int> permutation(int N, std::mt19937_64 &Rng,
                                    int Fixed = 0) {
  std::vector<int> P(size_t(std::max(N, 0)));
  std::iota(P.begin(), P.end(), 0);
  if (Fixed < N)
    std::shuffle(P.begin() + Fixed, P.end(), Rng);
  return P;
}

/// \p G with its nodes and flow facts renamed (fact 0, the zero fact,
/// stays 0; procedures keep their ids) and its edge lists shuffled.
inline flix::IcfgProgram renameIcfg(const flix::IcfgProgram &G,
                                    uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<int> Node = permutation(G.NumNodes, Rng);
  std::vector<int> Fact = permutation(G.NumFacts, Rng, /*Fixed=*/1);
  auto facts = [&](std::vector<std::pair<int, int>> Ps) {
    for (auto &[A, B] : Ps)
      A = Fact[size_t(A)], B = Fact[size_t(B)];
    return Ps;
  };

  flix::IcfgProgram R;
  R.NumNodes = G.NumNodes;
  R.NumProcs = G.NumProcs;
  R.NumFacts = G.NumFacts;
  R.MainProc = G.MainProc;
  R.TransferWork = G.TransferWork;
  for (auto [A, B] : G.CfgEdges)
    R.CfgEdges.push_back({Node[size_t(A)], Node[size_t(B)]});
  for (auto [Call, Target] : G.CallEdges)
    R.CallEdges.push_back({Node[size_t(Call)], Target});
  std::shuffle(R.CfgEdges.begin(), R.CfgEdges.end(), Rng);
  std::shuffle(R.CallEdges.begin(), R.CallEdges.end(), Rng);
  for (int S : G.StartNodes)
    R.StartNodes.push_back(Node[size_t(S)]);
  for (int E : G.EndNodes)
    R.EndNodes.push_back(Node[size_t(E)]);
  R.Flows.resize(G.Flows.size());
  for (size_t N = 0; N < G.Flows.size(); ++N) {
    flix::IcfgProgram::NodeFlow &F = R.Flows[size_t(Node[N])];
    for (int D : G.Flows[N].Gen)
      F.Gen.push_back(Fact[size_t(D)]);
    for (int D : G.Flows[N].Kill)
      F.Kill.push_back(Fact[size_t(D)]);
    F.Move = facts(G.Flows[N].Move);
  }
  for (const auto &[Key, Map] : G.CallMap)
    R.CallMap[{Node[size_t(Key.first)], Key.second}] = facts(Map);
  for (const auto &[Key, Map] : G.RetMap)
    R.RetMap[{Key.first, Node[size_t(Key.second)]}] = facts(Map);
  return R;
}

/// \p P with its variables, objects and labels renamed and every fact
/// list shuffled.
inline flix::PointerProgram renamePointerProgram(const flix::PointerProgram &P,
                                                 uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<int> Var = permutation(P.NumVars, Rng);
  std::vector<int> Obj = permutation(P.NumObjs, Rng);
  std::vector<int> Lab = permutation(P.NumLabels, Rng);
  auto v = [&](int X) { return Var[size_t(X)]; };
  auto o = [&](int X) { return Obj[size_t(X)]; };
  auto l = [&](int X) { return Lab[size_t(X)]; };

  flix::PointerProgram R;
  R.NumVars = P.NumVars;
  R.NumObjs = P.NumObjs;
  R.NumLabels = P.NumLabels;
  for (auto [A, B] : P.AddrOf)
    R.AddrOf.push_back({v(A), o(B)});
  for (auto [A, B] : P.Copy)
    R.Copy.push_back({v(A), v(B)});
  for (const auto &T : P.Load)
    R.Load.push_back({l(T[0]), v(T[1]), v(T[2])});
  for (const auto &T : P.Store)
    R.Store.push_back({l(T[0]), v(T[1]), v(T[2])});
  for (auto [A, B] : P.Cfg)
    R.Cfg.push_back({l(A), l(B)});
  for (auto [A, B] : P.Kill)
    R.Kill.push_back({l(A), o(B)});
  for (auto [A, B] : P.InitTop)
    R.InitTop.push_back({l(A), o(B)});
  auto shuffle = [&](auto &Xs) { std::shuffle(Xs.begin(), Xs.end(), Rng); };
  shuffle(R.AddrOf);
  shuffle(R.Copy);
  shuffle(R.Load);
  shuffle(R.Store);
  shuffle(R.Cfg);
  shuffle(R.Kill);
  shuffle(R.InitTop);
  return R;
}

} // namespace perfbench

#endif // FLIX_PERFBENCH_INPUTS_H
