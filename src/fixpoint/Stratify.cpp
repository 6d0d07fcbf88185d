//===- fixpoint/Stratify.cpp - Stratified negation ------------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Stratify.h"

using namespace flix;

StratifyResult flix::stratify(const Program &P) {
  const size_t NumPreds = P.predicates().size();
  std::vector<uint32_t> Stratum(NumPreds, 0);

  // Iteratively relax stratum constraints:
  //   positive dependency: stratum(head) >= stratum(body)
  //   negative dependency: stratum(head) >  stratum(body)
  // A stratum exceeding the number of predicates proves a negative cycle.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const Rule &R : P.rules()) {
      uint32_t &Head = Stratum[R.Head.Pred];
      for (const BodyElem &E : R.Body) {
        const auto *A = std::get_if<BodyAtom>(&E);
        if (!A)
          continue;
        uint32_t Required = Stratum[A->Pred] + (A->Negated ? 1 : 0);
        if (Head < Required) {
          Head = Required;
          Changed = true;
          if (Head > NumPreds) {
            StratifyResult Res;
            Res.Error = "program is not stratifiable: cycle through "
                        "negation involving predicate " +
                        P.predicate(R.Head.Pred).Name;
            return Res;
          }
        }
      }
    }
  }

  uint32_t MaxStratum = 0;
  for (uint32_t S : Stratum)
    MaxStratum = std::max(MaxStratum, S);

  Stratification St;
  St.PredStratum = std::move(Stratum);
  St.RulesByStratum.resize(MaxStratum + 1);
  St.NegUsesByStratum.resize(MaxStratum + 1);
  St.PredNegated.assign(NumPreds, 0);
  for (uint32_t RI = 0; RI < P.rules().size(); ++RI) {
    const Rule &R = P.rules()[RI];
    uint32_t Str = St.PredStratum[R.Head.Pred];
    St.RulesByStratum[Str].push_back(RI);
    // Negation edges, deduped per (rule, predicate). Consumers locate
    // the actual negated atoms in the rule themselves.
    for (const BodyElem &E : R.Body) {
      const auto *A = std::get_if<BodyAtom>(&E);
      if (!A || !A->Negated)
        continue;
      St.PredNegated[A->Pred] = 1;
      auto &Uses = St.NegUsesByStratum[Str];
      bool Dup = false;
      for (const NegUse &U : Uses)
        if (U.RuleIdx == RI && U.Pred == A->Pred) {
          Dup = true;
          break;
        }
      if (!Dup)
        Uses.push_back({RI, A->Pred});
    }
  }

  StratifyResult Res;
  Res.Strat = std::move(St);
  return Res;
}
