//===- lang/Compiler.cpp - FLIX compiler driver -----------------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "lang/Compiler.h"

#include "lang/Lexer.h"
#include "lang/Parser.h"

#include <cassert>

using namespace flix;
using namespace flix::ast;

namespace {

/// A Lattice whose operations are interpreted FLIX functions — the lowered
/// form of `let Name<> = (bot, top, leq, lub, glb)`.
class InterpretedLattice final : public Lattice {
public:
  InterpretedLattice(std::string Name, Value Bot, Value Top, std::string Leq,
                     std::string Lub, std::string Glb, Interp &I)
      : Name(std::move(Name)), Bot(Bot), Top(Top), LeqFn(std::move(Leq)),
        LubFn(std::move(Lub)), GlbFn(std::move(Glb)), I(I) {}

  /// Routes operations whose FLIX functions compiled to bytecode through
  /// the VM (with its fused ⊥/⊤ prologues); the others stay interpreted.
  /// Called once by the lowering, before any solving.
  void attachVm(vm::Vm *V, std::optional<uint32_t> Leq,
                std::optional<uint32_t> Lub, std::optional<uint32_t> Glb) {
    Machine = V;
    LeqIx = Leq;
    LubIx = Lub;
    GlbIx = Glb;
  }

  std::string name() const override { return Name; }
  Value bot() const override { return Bot; }
  Value top() const override { return Top; }

  bool leq(Value A, Value B) const override {
    Value Args[2] = {A, B};
    if (Machine && LeqIx) {
      Value R = Machine->call(*LeqIx, Args);
      return R.isBool() && R.asBool();
    }
    Value R = I.call(LeqFn, Args);
    return R.isBool() && R.asBool();
  }
  Value lub(Value A, Value B) const override {
    Value Args[2] = {A, B};
    if (Machine && LubIx)
      return Machine->call(*LubIx, Args);
    return I.call(LubFn, Args);
  }
  Value glb(Value A, Value B) const override {
    Value Args[2] = {A, B};
    if (Machine && GlbIx)
      return Machine->call(*GlbIx, Args);
    return I.call(GlbFn, Args);
  }

private:
  std::string Name;
  Value Bot, Top;
  std::string LeqFn, LubFn, GlbFn;
  Interp &I;
  vm::Vm *Machine = nullptr;
  std::optional<uint32_t> LeqIx, LubIx, GlbIx;
};

/// Collects the free rule variables of an expression in first-occurrence
/// order ("_" is not a variable here; Sema already rejected it in
/// expression positions).
void collectFreeVars(const Expr &E, std::vector<std::string> &Out) {
  auto seen = [&](const std::string &N) {
    for (const std::string &S : Out)
      if (S == N)
        return true;
    return false;
  };
  switch (E.K) {
  case Expr::Kind::Var:
    if (E.Name != "_" && !seen(E.Name))
      Out.push_back(E.Name);
    return;
  case Expr::Kind::Let: {
    collectFreeVars(*E.Args[0], Out);
    // The let-bound name shadows; conservative: treat body vars minus the
    // binder. Rule-position expressions rarely use let, so keep it simple
    // and correct: collect body vars, the binder itself is not free.
    std::vector<std::string> BodyVars;
    collectFreeVars(*E.Args[1], BodyVars);
    for (const std::string &V : BodyVars)
      if (V != E.Name && !seen(V))
        Out.push_back(V);
    return;
  }
  case Expr::Kind::Match: {
    collectFreeVars(*E.Args[0], Out);
    for (const MatchCase &C : E.Cases) {
      // Pattern variables shadow rule variables; Sema rejects shadowing,
      // so any variable in the case body that is not pattern-bound is
      // free. Collect pattern names first.
      std::vector<std::string> PatVars;
      std::function<void(const Pattern &)> CollectPat =
          [&](const Pattern &P) {
            if (P.K == Pattern::Kind::Var)
              PatVars.push_back(P.Name);
            for (const Pattern &Sub : P.Elems)
              CollectPat(Sub);
          };
      CollectPat(C.Pat);
      std::vector<std::string> BodyVars;
      collectFreeVars(*C.Body, BodyVars);
      for (const std::string &V : BodyVars) {
        bool IsPat = false;
        for (const std::string &PV : PatVars)
          IsPat |= PV == V;
        if (!IsPat && !seen(V))
          Out.push_back(V);
      }
    }
    return;
  }
  default:
    for (const ExprPtr &A : E.Args)
      collectFreeVars(*A, Out);
    return;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

class FlixCompiler::Lowering {
public:
  Lowering(FlixCompiler &C, DiagnosticEngine &Diags)
      : C(C), Diags(Diags), F(C.F), CM(C.CM), I(*C.Interpreter) {}

  bool run() {
    lowerLattices();
    // Defs compile after the lattice ops are marked (so leq/lub/glb get
    // their fused prologues) and before rule lowering (which compiles a
    // wrapper per filter/binder/transfer site against them).
    if (C.VmComp) {
      C.VmComp->compileDefs();
      for (const VmLatticeHook &H : VmLattices)
        H.Lat->attachVm(C.TheVm.get(), C.VmComp->functionIndex(H.Leq),
                        C.VmComp->functionIndex(H.Lub),
                        C.VmComp->functionIndex(H.Glb));
    }
    lowerPredicates();
    if (Diags.hasErrors())
      return false;
    for (const auto &[PredName, Mask] : CM.IndexHints) {
      auto It = C.PredIds.find(PredName);
      if (It != C.PredIds.end())
        C.Prog->addIndexHint(It->second, Mask);
    }
    for (size_t RI = 0; RI < CM.Ast->Rules.size(); ++RI)
      lowerRule(CM.Ast->Rules[RI]);
    return !Diags.hasErrors() && !I.hasError();
  }

private:
  /// Evaluates a constant expression at compile time.
  Value constEval(const Expr &E) {
    static const std::map<std::string, Value> Empty;
    Value V = I.eval(E, Empty);
    if (I.hasError()) {
      Diags.error(E.Loc, "constant evaluation failed: " + I.error());
      I.clearError();
    }
    return V;
  }

  void lowerLattices() {
    for (const auto &[Name, Info] : CM.LatticeBinds) {
      Value Bot = constEval(*Info.Decl->Bot);
      Value Top = constEval(*Info.Decl->Top);
      auto L = std::make_unique<InterpretedLattice>(
          Name, Bot, Top, Info.Decl->LeqFn, Info.Decl->LubFn,
          Info.Decl->GlbFn, I);
      if (C.VmComp) {
        C.VmComp->markLatticeOp(Info.Decl->LeqFn,
                                vm::VmCompiler::LatRole::Leq, Bot, Top);
        C.VmComp->markLatticeOp(Info.Decl->LubFn,
                                vm::VmCompiler::LatRole::Lub, Bot, Top);
        C.VmComp->markLatticeOp(Info.Decl->GlbFn,
                                vm::VmCompiler::LatRole::Glb, Bot, Top);
        VmLattices.push_back(VmLatticeHook{L.get(), Info.Decl->LeqFn,
                                           Info.Decl->LubFn,
                                           Info.Decl->GlbFn});
      }
      LatticeByName[Name] = L.get();
      C.Lattices.push_back(std::move(L));
    }
  }

  void lowerPredicates() {
    // Declare in source order for stable PredIds.
    for (const PredDecl &PD : CM.Ast->Preds) {
      auto It = CM.Preds.find(PD.Name);
      if (It == CM.Preds.end())
        continue;
      const PredInfo &PI = It->second;
      unsigned Arity = static_cast<unsigned>(PI.AttrTypes.size());
      PredId Id;
      if (PD.IsLat) {
        const Lattice *L = LatticeByName[PI.LatticeTypeName];
        if (!L) {
          Diags.error(PD.Loc, "internal: missing lattice for predicate '" +
                                  PD.Name + "'");
          continue;
        }
        Id = C.Prog->lattice(PD.Name, Arity, L);
      } else {
        Id = C.Prog->relation(PD.Name, Arity);
      }
      C.PredIds[PD.Name] = Id;
    }
  }

  VarId varFor(const std::string &Name) {
    if (Name == "_") {
      VarNames.push_back("_");
      return static_cast<VarId>(VarNames.size() - 1);
    }
    for (size_t I2 = 0; I2 < VarNames.size(); ++I2)
      if (VarNames[I2] == Name)
        return static_cast<VarId>(I2);
    VarNames.push_back(Name);
    return static_cast<VarId>(VarNames.size() - 1);
  }

  /// Lowers a var-or-constant term.
  Term lowerSimpleTerm(const Expr &E) {
    if (E.K == Expr::Kind::Var)
      return Term::var(varFor(E.Name));
    return Term::constant(constEval(E));
  }

  /// Creates an extern function that evaluates \p Exprs under the bindings
  /// of their free variables and combines the results via \p Combine.
  /// Returns the function id and fills \p ArgTerms with the variable terms
  /// to pass at the call site. \p VmCallee is the def the wrapper
  /// forwards to in bytecode (empty for the transfer identity form); a
  /// compiled twin is attached as the function's VmImpl, else the
  /// function is marked interpreter-only.
  template <typename CombineFn>
  FnId makeWrapper(const std::string &Name, FnRole Role,
                   std::vector<const Expr *> Exprs,
                   SmallVector<Term, 4> &ArgTerms,
                   const std::string &VmCallee, CombineFn Combine) {
    std::vector<std::string> FreeVars;
    for (const Expr *E : Exprs)
      collectFreeVars(*E, FreeVars);
    for (const std::string &V : FreeVars)
      ArgTerms.push_back(Term::var(varFor(V)));

    std::optional<uint32_t> WrapIx;
    if (C.VmComp)
      WrapIx = C.VmComp->compileWrapper(Name, FreeVars, Exprs, VmCallee);

    Interp *Ip = &I;
    auto Impl = [Ip, Exprs = std::move(Exprs), FreeVars,
                 Combine](std::span<const Value> Args) -> Value {
      std::map<std::string, Value> Env;
      for (size_t K = 0; K < FreeVars.size(); ++K)
        Env[FreeVars[K]] = Args[K];
      SmallVector<Value, 4> Vals;
      for (const Expr *E : Exprs)
        Vals.push_back(Ip->eval(*E, Env));
      return Combine(*Ip, std::span<const Value>(Vals.data(), Vals.size()));
    };
    FnId Id = C.Prog->function(Name, static_cast<unsigned>(FreeVars.size()),
                               Role, std::move(Impl));
    if (C.VmComp) {
      if (WrapIx) {
        vm::Vm *V = C.TheVm.get();
        uint32_t Ix = *WrapIx;
        C.Prog->setVmImpl(Id, [V, Ix](std::span<const Value> Args) {
          return V->call(Ix, Args);
        });
      } else {
        C.Prog->setVmImpl(Id, nullptr);
      }
    }
    return Id;
  }

  void lowerRule(const RuleAST &R) {
    VarNames.clear();
    auto PIt = C.PredIds.find(R.Head.Pred);
    if (PIt == C.PredIds.end())
      return;
    PredId HeadPred = PIt->second;
    const PredicateDecl &HeadDecl = C.Prog->predicate(HeadPred);

    // Facts.
    if (R.Body.empty()) {
      SmallVector<Value, 4> Vals;
      for (const ExprPtr &T : R.Head.Terms)
        Vals.push_back(constEval(*T));
      if (Diags.hasErrors())
        return;
      if (HeadDecl.isRelational()) {
        C.Prog->addFact(HeadPred,
                        std::span<const Value>(Vals.data(), Vals.size()));
      } else {
        C.Prog->addLatFact(
            HeadPred,
            std::span<const Value>(Vals.data(), Vals.size() - 1),
            Vals.back());
      }
      return;
    }

    Rule Out;
    Out.Loc = R.Loc;

    // Body.
    for (const BodyElemAST &BE : R.Body) {
      if (const auto *A = std::get_if<AtomAST>(&BE)) {
        auto APIt = C.PredIds.find(A->Pred);
        if (APIt == C.PredIds.end())
          return;
        BodyAtom BA;
        BA.Pred = APIt->second;
        BA.Negated = A->Negated;
        for (const ExprPtr &T : A->Terms)
          BA.Terms.push_back(lowerSimpleTerm(*T));
        Out.Body.emplace_back(std::move(BA));
        continue;
      }
      if (const auto *Fl = std::get_if<FilterAST>(&BE)) {
        BodyFilter BF;
        std::vector<const Expr *> ArgExprs;
        for (const ExprPtr &A : Fl->Args)
          ArgExprs.push_back(A.get());
        std::string FnName = Fl->Fn;
        BF.Fn = makeWrapper(
            "filter:" + FnName, FnRole::Filter, std::move(ArgExprs), BF.Args,
            FnName, [FnName](Interp &Ip, std::span<const Value> Vals) {
              return Ip.call(FnName, Vals);
            });
        Out.Body.emplace_back(std::move(BF));
        continue;
      }
      const auto &B = std::get<BinderAST>(BE);
      BodyBinder BB;
      std::vector<const Expr *> ArgExprs;
      for (const ExprPtr &A : B.Args)
        ArgExprs.push_back(A.get());
      std::string FnName = B.Fn;
      BB.Fn = makeWrapper(
          "binder:" + FnName, FnRole::Binder, std::move(ArgExprs), BB.Args,
          FnName, [FnName](Interp &Ip, std::span<const Value> Vals) {
            return Ip.call(FnName, Vals);
          });
      for (const std::string &V : B.Pattern)
        BB.Pattern.push_back(varFor(V));
      Out.Body.emplace_back(std::move(BB));
    }

    // Head.
    Out.Head.Pred = HeadPred;
    for (size_t TI = 0; TI + 1 < R.Head.Terms.size(); ++TI)
      Out.Head.KeyTerms.push_back(lowerSimpleTerm(*R.Head.Terms[TI]));
    const Expr &Last = *R.Head.Terms.back();
    if (Last.K == Expr::Kind::Var) {
      Out.Head.LastTerm = Term::var(varFor(Last.Name));
    } else {
      std::vector<std::string> FreeVars;
      collectFreeVars(Last, FreeVars);
      if (FreeVars.empty()) {
        Out.Head.LastTerm = Term::constant(constEval(Last));
      } else {
        SmallVector<Term, 4> ArgTerms;
        Out.Head.LastFn = makeWrapper(
            "transfer:" + C.Prog->predicate(HeadPred).Name,
            FnRole::Transfer, {&Last}, ArgTerms, std::string(),
            [](Interp &, std::span<const Value> Vals) { return Vals[0]; });
        Out.Head.FnArgs = std::move(ArgTerms);
      }
    }

    Out.NumVars = static_cast<uint32_t>(VarNames.size());
    Out.VarNames = VarNames;
    C.Prog->addRule(std::move(Out));
  }

  FlixCompiler &C;
  DiagnosticEngine &Diags;
  ValueFactory &F;
  const CheckedModule &CM;
  Interp &I;
  std::map<std::string, const Lattice *> LatticeByName;
  std::vector<std::string> VarNames;

  /// Lattices awaiting their VM operation indexes (known only once
  /// compileDefs() has run).
  struct VmLatticeHook {
    InterpretedLattice *Lat;
    std::string Leq, Lub, Glb;
  };
  std::vector<VmLatticeHook> VmLattices;
};

//===----------------------------------------------------------------------===//
// FlixCompiler
//===----------------------------------------------------------------------===//

FlixCompiler::FlixCompiler(ValueFactory &F) : F(F) {
  Diags = std::make_unique<DiagnosticEngine>(SM);
}

FlixCompiler::~FlixCompiler() = default;

void FlixCompiler::registerNative(const std::string &Name, NativeFn Fn) {
  if (UseVm) {
    // Before compile() the VM has no native slots yet; park a copy for
    // installation at the end of compile().
    if (TheVm)
      TheVm->registerNative(Name, Fn);
    else
      VmNatives.emplace_back(Name, Fn);
  }
  if (Interpreter) {
    Interpreter->registerNative(Name, std::move(Fn));
    return;
  }
  PendingNatives.emplace_back(Name, std::move(Fn));
}

bool FlixCompiler::compile(std::string Source, std::string BufferName) {
  assert(!Compiled && "compile() may be called once per FlixCompiler");
  Compiled = true;

  uint32_t BufId = SM.addBuffer(std::move(BufferName), std::move(Source));
  Lexer Lex(SM, BufId, *Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  if (Diags->hasErrors())
    return false;

  Parser P(std::move(Tokens), *Diags);
  Mod = std::make_unique<ast::Module>(P.parseModule());
  if (Diags->hasErrors())
    return false;

  CM = checkModule(*Mod, *Diags);
  if (Diags->hasErrors())
    return false;

  Interpreter = std::make_unique<Interp>(CM, F);
  Interpreter->setSourceManager(&SM);
  for (auto &[Name, Fn] : PendingNatives)
    Interpreter->registerNative(Name, std::move(Fn));
  PendingNatives.clear();

  if (UseVm) {
    VmMod = std::make_unique<vm::VmModule>();
    VmComp = std::make_unique<vm::VmCompiler>(CM, F, &SM, *VmMod);
    // Faults funnel into the interpreter's first-fault slot so
    // interp().hasError() observes either engine.
    TheVm = std::make_unique<vm::Vm>(
        *VmMod, F,
        [this](const std::string &Msg) { Interpreter->recordError(Msg); });
  }

  Prog = std::make_unique<Program>(F);
  if (TheVm)
    Prog->setVmIcHitCounter([V = TheVm.get()] { return V->icHits(); });
  Lowering L(*this, *Diags);
  if (!L.run()) {
    if (Interpreter->hasError())
      Diags->error(SourceLoc::invalid(),
                   "lowering failed: " + Interpreter->error());
    return false;
  }
  // Lowering created the VM's native slots; fill them now.
  if (TheVm)
    for (auto &[Name, Fn] : VmNatives)
      TheVm->registerNative(Name, Fn);
  VmNatives.clear();
  return true;
}

std::string FlixCompiler::diagnostics() const { return Diags->render(); }

bool FlixCompiler::hasErrors() const { return Diags->hasErrors(); }

Program &FlixCompiler::program() {
  assert(Prog && "program() before successful compile()");
  return *Prog;
}

Interp &FlixCompiler::interp() {
  assert(Interpreter && "interp() before compile()");
  return *Interpreter;
}

std::optional<PredId> FlixCompiler::predicate(std::string_view Name) const {
  auto It = PredIds.find(Name);
  if (It == PredIds.end())
    return std::nullopt;
  return It->second;
}

bool FlixCompiler::addFact(std::string_view PredName,
                           std::span<const Value> Tuple) {
  auto Id = predicate(PredName);
  if (!Id || !Prog->predicate(*Id).isRelational() ||
      Prog->predicate(*Id).Arity != Tuple.size())
    return false;
  Prog->addFact(*Id, Tuple);
  return true;
}

bool FlixCompiler::addLatFact(std::string_view PredName,
                              std::span<const Value> Key, Value LatVal) {
  auto Id = predicate(PredName);
  if (!Id || Prog->predicate(*Id).isRelational() ||
      Prog->predicate(*Id).Arity != Key.size() + 1)
    return false;
  Prog->addLatFact(*Id, Key, LatVal);
  return true;
}
