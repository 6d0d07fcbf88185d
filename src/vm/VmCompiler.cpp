//===- vm/VmCompiler.cpp - Typed AST → bytecode lowering --------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "vm/VmCompiler.h"

#include "support/SmallVector.h"

#include <cassert>

using namespace flix;
using namespace flix::ast;
using namespace flix::vm;

namespace {

/// Frames larger than this fail compilation (and fall back to the
/// interpreter) — far above anything realistic, it only guards the
/// uint16_t register encoding.
constexpr uint32_t MaxRegs = 1024;

} // namespace

//===----------------------------------------------------------------------===//
// FnBuilder — per-function compile state
//===----------------------------------------------------------------------===//

struct VmCompiler::FnBuilder {
  VmCompiler &VC;
  VmFunction &Fn;
  /// Lexical environment: name → register holding the binding.
  std::vector<std::pair<std::string, uint16_t>> Scope;
  uint32_t NextReg = 0;
  bool Failed = false;

  FnBuilder(VmCompiler &VC, VmFunction &Fn) : VC(VC), Fn(Fn) {}

  uint16_t fresh() {
    if (NextReg >= MaxRegs) {
      Failed = true;
      return 0;
    }
    uint16_t R = static_cast<uint16_t>(NextReg++);
    Fn.NumRegs = std::max(Fn.NumRegs, NextReg);
    return R;
  }

  int lookup(const std::string &Name) const {
    for (auto It = Scope.rbegin(); It != Scope.rend(); ++It)
      if (It->first == Name)
        return It->second;
    return -1;
  }

  size_t emit(Op K, uint16_t A = 0, uint32_t B = 0, uint16_t C = 0,
              int32_t Imm = 0) {
    Fn.Code.push_back(Instr{K, A, B, C, Imm});
    return Fn.Code.size() - 1;
  }

  int32_t here() const { return static_cast<int32_t>(Fn.Code.size()); }
  void patch(size_t At, int32_t Target) { Fn.Code[At].Imm = Target; }
  void patchAll(const std::vector<size_t> &Ats, int32_t Target) {
    for (size_t At : Ats)
      Fn.Code[At].Imm = Target;
  }

  uint16_t addConst(Value V) {
    for (size_t I = 0; I < Fn.Consts.size(); ++I)
      if (Fn.Consts[I] == V)
        return static_cast<uint16_t>(I);
    Fn.Consts.push_back(V);
    if (Fn.Consts.size() > UINT16_MAX)
      Failed = true;
    return static_cast<uint16_t>(Fn.Consts.size() - 1);
  }

  void loadConst(Value V, uint16_t Dst) {
    emit(Op::LoadConst, Dst, 0, 0, addConst(V));
  }

  /// Constant folding over the pure literal fragment. Folding never
  /// changes observable behavior: short-circuit operators fold exactly
  /// when the unevaluated side is legitimately skipped, and faulting
  /// operations (division by a zero constant) are left to the runtime.
  std::optional<Value> fold(const Expr &E) {
    ValueFactory &F = VC.F;
    switch (E.K) {
    case Expr::Kind::IntLit:
      return F.integer(E.IntVal);
    case Expr::Kind::BoolLit:
      return F.boolean(E.BoolVal);
    case Expr::Kind::StrLit:
      return F.string(E.StrVal);
    case Expr::Kind::UnitLit:
      return F.unit();
    case Expr::Kind::Tag: {
      Value Payload = F.unit();
      if (!E.Args.empty()) {
        std::optional<Value> P = fold(*E.Args[0]);
        if (!P)
          return std::nullopt;
        Payload = *P;
      }
      return F.tag(E.EnumName + "." + E.CaseName, Payload);
    }
    case Expr::Kind::Tuple: {
      SmallVector<Value, 4> Elems;
      for (const ExprPtr &A : E.Args) {
        std::optional<Value> V = fold(*A);
        if (!V)
          return std::nullopt;
        Elems.push_back(*V);
      }
      return F.tuple(std::span<const Value>(Elems.data(), Elems.size()));
    }
    case Expr::Kind::SetLit: {
      std::vector<Value> Elems;
      for (const ExprPtr &A : E.Args) {
        std::optional<Value> V = fold(*A);
        if (!V)
          return std::nullopt;
        Elems.push_back(*V);
      }
      return F.set(std::move(Elems));
    }
    case Expr::Kind::If: {
      std::optional<Value> C = fold(*E.Args[0]);
      if (!C || !C->isBool() || E.Args.size() < 3)
        return std::nullopt;
      return fold(C->asBool() ? *E.Args[1] : *E.Args[2]);
    }
    case Expr::Kind::Unary: {
      std::optional<Value> V = fold(*E.Args[0]);
      if (!V)
        return std::nullopt;
      if (E.UOp == UnOp::Not)
        return V->isBool() ? std::optional<Value>(F.boolean(!V->asBool()))
                           : std::nullopt;
      return V->isInt() ? std::optional<Value>(F.integer(-V->asInt()))
                        : std::nullopt;
    }
    case Expr::Kind::Binary: {
      std::optional<Value> L = fold(*E.Args[0]);
      if (!L)
        return std::nullopt;
      // Short-circuit folds mirror evaluation order: a decided lhs
      // folds without looking at (= evaluating) the rhs.
      if (E.BOp == BinOp::And) {
        if (!L->isBool())
          return std::nullopt;
        if (!L->asBool())
          return F.boolean(false);
        std::optional<Value> R = fold(*E.Args[1]);
        return R && R->isBool() ? R : std::nullopt;
      }
      if (E.BOp == BinOp::Or) {
        if (!L->isBool())
          return std::nullopt;
        if (L->asBool())
          return F.boolean(true);
        std::optional<Value> R = fold(*E.Args[1]);
        return R && R->isBool() ? R : std::nullopt;
      }
      std::optional<Value> R = fold(*E.Args[1]);
      if (!R)
        return std::nullopt;
      if (E.BOp == BinOp::Eq)
        return F.boolean(*L == *R);
      if (E.BOp == BinOp::Ne)
        return F.boolean(*L != *R);
      if (!L->isInt() || !R->isInt())
        return std::nullopt;
      int64_t A = L->asInt(), B = R->asInt();
      switch (E.BOp) {
      case BinOp::Add:
        return F.integer(A + B);
      case BinOp::Sub:
        return F.integer(A - B);
      case BinOp::Mul:
        return F.integer(A * B);
      case BinOp::Div:
        return B == 0 ? std::nullopt : std::optional<Value>(F.integer(A / B));
      case BinOp::Rem:
        return B == 0 ? std::nullopt : std::optional<Value>(F.integer(A % B));
      case BinOp::Lt:
        return F.boolean(A < B);
      case BinOp::Le:
        return F.boolean(A <= B);
      case BinOp::Gt:
        return F.boolean(A > B);
      case BinOp::Ge:
        return F.boolean(A >= B);
      default:
        return std::nullopt;
      }
    }
    default:
      return std::nullopt;
    }
  }

  uint32_t tagSymbol(const std::string &EnumName, const std::string &Case) {
    return VC.F.strings().intern(EnumName + "." + Case).Id;
  }

  uint16_t newCache() {
    VC.M.Caches.emplace_back(VmModule::EmptyCache);
    if (VC.M.Caches.size() > UINT16_MAX)
      Failed = true;
    return static_cast<uint16_t>(VC.M.Caches.size() - 1);
  }

  //===--------------------------------------------------------------------===//
  // Patterns. Emits the test for \p P against register \p Scrut; on
  // mismatch control jumps to the (to-be-patched) fail label collected
  // in \p FailJumps. Pattern variables bind fresh registers pushed onto
  // Scope (caller rewinds).
  //===--------------------------------------------------------------------===//

  void compilePattern(const Pattern &P, uint16_t Scrut,
                      std::vector<size_t> &FailJumps) {
    switch (P.K) {
    case Pattern::Kind::Wildcard:
      return;
    case Pattern::Kind::Var:
      Scope.emplace_back(P.Name, Scrut);
      return;
    case Pattern::Kind::IntLit:
      FailJumps.push_back(
          emit(Op::JumpIfNeConst, Scrut, addConst(VC.F.integer(P.IntVal))));
      return;
    case Pattern::Kind::BoolLit:
      FailJumps.push_back(
          emit(Op::JumpIfNeConst, Scrut, addConst(VC.F.boolean(P.BoolVal))));
      return;
    case Pattern::Kind::StrLit:
      FailJumps.push_back(
          emit(Op::JumpIfNeConst, Scrut, addConst(VC.F.string(P.StrVal))));
      return;
    case Pattern::Kind::UnitLit:
      FailJumps.push_back(
          emit(Op::JumpIfNeConst, Scrut, addConst(VC.F.unit())));
      return;
    case Pattern::Kind::Tag: {
      FailJumps.push_back(emit(Op::JumpIfNotTag, Scrut,
                               tagSymbol(P.EnumName, P.CaseName)));
      if (!P.Elems.empty()) {
        uint16_t Payload = fresh();
        emit(Op::GetPayload, Payload, Scrut);
        compilePattern(P.Elems[0], Payload, FailJumps);
      }
      return;
    }
    case Pattern::Kind::Tuple: {
      FailJumps.push_back(
          emit(Op::JumpIfNotTuple, Scrut,
               static_cast<uint32_t>(P.Elems.size()), newCache()));
      for (size_t I = 0; I < P.Elems.size(); ++I) {
        uint16_t Elem = fresh();
        emit(Op::GetTupleElem, Elem, Scrut, static_cast<uint16_t>(I));
        compilePattern(P.Elems[I], Elem, FailJumps);
      }
      return;
    }
    }
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  void compileExpr(const Expr &E, uint16_t Dst) {
    if (Failed)
      return;
    if (std::optional<Value> V = fold(E)) {
      loadConst(*V, Dst);
      return;
    }
    switch (E.K) {
    case Expr::Kind::IntLit:
    case Expr::Kind::BoolLit:
    case Expr::Kind::StrLit:
    case Expr::Kind::UnitLit:
      // Literals always fold.
      Failed = true;
      return;
    case Expr::Kind::Var: {
      int Reg = lookup(E.Name);
      if (Reg < 0) {
        Failed = true; // Sema guarantees boundness; be safe anyway
        return;
      }
      if (Reg != Dst)
        emit(Op::Move, Dst, static_cast<uint32_t>(Reg));
      return;
    }
    case Expr::Kind::Tag: {
      uint16_t Payload;
      if (E.Args.empty()) {
        Payload = fresh();
        loadConst(VC.F.unit(), Payload);
      } else {
        Payload = fresh();
        compileExpr(*E.Args[0], Payload);
      }
      emit(Op::MakeTag, Dst, tagSymbol(E.EnumName, E.CaseName), Payload);
      return;
    }
    case Expr::Kind::Tuple:
    case Expr::Kind::SetLit: {
      uint16_t First = compileArgBlock(E.Args);
      emit(E.K == Expr::Kind::Tuple ? Op::MakeTuple : Op::MakeSet, Dst,
           First, static_cast<uint16_t>(E.Args.size()));
      return;
    }
    case Expr::Kind::Call: {
      uint16_t First = compileArgBlock(E.Args);
      emitCall(E.Name, Dst, First, static_cast<uint16_t>(E.Args.size()));
      return;
    }
    case Expr::Kind::If: {
      if (E.Args.size() < 3) {
        Failed = true;
        return;
      }
      uint16_t Cond = fresh();
      compileExpr(*E.Args[0], Cond);
      size_t ToElse = emit(Op::JumpIfFalse, Cond);
      compileExpr(*E.Args[1], Dst);
      size_t ToEnd = emit(Op::Jump);
      patch(ToElse, here());
      compileExpr(*E.Args[2], Dst);
      patch(ToEnd, here());
      return;
    }
    case Expr::Kind::Match:
      compileMatch(E, Dst);
      return;
    case Expr::Kind::Let: {
      uint16_t Init = fresh();
      compileExpr(*E.Args[0], Init);
      Scope.emplace_back(E.Name, Init);
      compileExpr(*E.Args[1], Dst);
      Scope.pop_back();
      return;
    }
    case Expr::Kind::Binary:
      compileBinary(E, Dst);
      return;
    case Expr::Kind::Unary: {
      uint16_t Operand = fresh();
      compileExpr(*E.Args[0], Operand);
      emit(E.UOp == UnOp::Not ? Op::NotBool : Op::NegInt, Dst, Operand);
      return;
    }
    }
  }

  /// Reserves one register per argument *before* compiling any of them,
  /// so the block stays contiguous even though each argument's
  /// compilation allocates its own temporaries above the block.
  uint16_t compileArgBlock(const std::vector<ExprPtr> &Args) {
    uint16_t First = static_cast<uint16_t>(NextReg);
    SmallVector<uint16_t, 8> Regs;
    for (size_t I = 0; I < Args.size(); ++I)
      Regs.push_back(fresh());
    for (size_t I = 0; I < Args.size(); ++I)
      compileExpr(*Args[I], Regs[I]);
    return First;
  }

  void emitCall(const std::string &Callee, uint16_t Dst, uint16_t First,
                uint16_t N) {
    auto DIt = VC.CM.Defs.find(Callee);
    if (DIt == VC.CM.Defs.end()) {
      Failed = true;
      return;
    }
    if (DIt->second.Decl->IsExt) {
      emit(Op::CallNative, Dst, First, N,
           static_cast<int32_t>(VC.nativeSlot(Callee)));
      return;
    }
    auto FIt = VC.FnIndex.find(Callee);
    if (FIt == VC.FnIndex.end()) {
      Failed = true;
      return;
    }
    Fn.Callees.push_back(FIt->second);
    emit(Op::CallFn, Dst, First, N, static_cast<int32_t>(FIt->second));
  }

  /// Maps a BinOp to its reg-op-Imm opcode, or nullopt when there is
  /// none (short-circuit ops never reach here).
  static std::optional<Op> immOp(BinOp B) {
    switch (B) {
    case BinOp::Add:
      return Op::AddImm;
    case BinOp::Sub:
      return Op::SubImm;
    case BinOp::Mul:
      return Op::MulImm;
    case BinOp::Div:
      return Op::DivImm;
    case BinOp::Rem:
      return Op::RemImm;
    case BinOp::Eq:
      return Op::CmpEqImm;
    case BinOp::Ne:
      return Op::CmpNeImm;
    case BinOp::Lt:
      return Op::CmpLtImm;
    case BinOp::Le:
      return Op::CmpLeImm;
    case BinOp::Gt:
      return Op::CmpGtImm;
    case BinOp::Ge:
      return Op::CmpGeImm;
    default:
      return std::nullopt;
    }
  }

  /// The mirrored opcode for const-op-reg: c OP x == x OP' c. Ops
  /// without a mirror (Sub/Div/Rem) return nullopt and take the
  /// two-register path.
  static std::optional<Op> mirroredImmOp(BinOp B) {
    switch (B) {
    case BinOp::Add:
      return Op::AddImm;
    case BinOp::Mul:
      return Op::MulImm;
    case BinOp::Eq:
      return Op::CmpEqImm;
    case BinOp::Ne:
      return Op::CmpNeImm;
    case BinOp::Lt:
      return Op::CmpGtImm;
    case BinOp::Le:
      return Op::CmpGeImm;
    case BinOp::Gt:
      return Op::CmpLtImm;
    case BinOp::Ge:
      return Op::CmpLeImm;
    default:
      return std::nullopt;
    }
  }

  /// An int32-range Int constant, when \p E folds to one. Eq/Ne Imm
  /// forms compare as Int, so non-Int constants are excluded for every
  /// operator.
  std::optional<int32_t> foldedImm(const Expr &E) {
    std::optional<Value> V = fold(E);
    if (!V || !V->isInt())
      return std::nullopt;
    int64_t I = V->asInt();
    if (I < INT32_MIN || I > INT32_MAX)
      return std::nullopt;
    return static_cast<int32_t>(I);
  }

  bool tryCompileImmBinary(const Expr &E, uint16_t Dst) {
    if (std::optional<int32_t> Imm = foldedImm(*E.Args[1])) {
      if (std::optional<Op> K = immOp(E.BOp)) {
        uint16_t L = fresh();
        compileExpr(*E.Args[0], L);
        emit(*K, Dst, L, 0, *Imm);
        return true;
      }
    }
    if (std::optional<int32_t> Imm = foldedImm(*E.Args[0])) {
      if (std::optional<Op> K = mirroredImmOp(E.BOp)) {
        uint16_t R = fresh();
        compileExpr(*E.Args[1], R);
        emit(*K, Dst, R, 0, *Imm);
        return true;
      }
    }
    return false;
  }

  void compileBinary(const Expr &E, uint16_t Dst) {
    // Short-circuit && / || compile to control flow, like the
    // interpreter's early returns.
    if (E.BOp == BinOp::And || E.BOp == BinOp::Or) {
      compileExpr(*E.Args[0], Dst);
      // B selects the non-Bool fault message (1 = '&&', 2 = '||'),
      // matching the interpreter's distinct diagnostics.
      size_t Skip = emit(E.BOp == BinOp::And ? Op::JumpIfFalse
                                             : Op::JumpIfTrue,
                         Dst, E.BOp == BinOp::And ? 1 : 2);
      compileExpr(*E.Args[1], Dst);
      patch(Skip, here());
      return;
    }
    // Reg-op-const (and const-op-reg, for operators with a mirrored
    // form): fold the constant side into the instruction's Imm field.
    // Only a *folded* operand is elided, so evaluation effects and fault
    // order are preserved — fold() refuses anything that could fault
    // (e.g. a constant division by zero stays a runtime DivImm fault).
    if (tryCompileImmBinary(E, Dst))
      return;
    uint16_t L = fresh();
    compileExpr(*E.Args[0], L);
    uint16_t R = fresh();
    compileExpr(*E.Args[1], R);
    Op K;
    switch (E.BOp) {
    case BinOp::Add:
      K = Op::AddInt;
      break;
    case BinOp::Sub:
      K = Op::SubInt;
      break;
    case BinOp::Mul:
      K = Op::MulInt;
      break;
    case BinOp::Div:
      K = Op::DivInt;
      break;
    case BinOp::Rem:
      K = Op::RemInt;
      break;
    case BinOp::Eq:
      K = Op::CmpEq;
      break;
    case BinOp::Ne:
      K = Op::CmpNe;
      break;
    case BinOp::Lt:
      K = Op::CmpLt;
      break;
    case BinOp::Le:
      K = Op::CmpLe;
      break;
    case BinOp::Gt:
      K = Op::CmpGt;
      break;
    case BinOp::Ge:
      K = Op::CmpGe;
      break;
    default:
      Failed = true;
      return;
    }
    emit(K, Dst, L, R);
  }

  /// True when the leading run of cases are all Tag patterns and no Tag
  /// case appears after the first non-Tag case — the shape a
  /// tag-dispatch table handles (an interleaved wildcard would have to
  /// match before later tags, which a table jump would skip).
  static size_t leadingTagCases(const Expr &E) {
    size_t N = 0;
    while (N < E.Cases.size() && E.Cases[N].Pat.K == Pattern::Kind::Tag)
      ++N;
    for (size_t I = N; I < E.Cases.size(); ++I)
      if (E.Cases[I].Pat.K == Pattern::Kind::Tag)
        return 0;
    return N >= 2 ? N : 0;
  }

  /// True when a match over a syntactic N-tuple can skip materializing
  /// it: every case is an N-tuple pattern or a wildcard (a Var pattern
  /// would need the tuple value itself).
  static bool destructurable(const Expr &E, size_t N) {
    for (const MatchCase &C : E.Cases) {
      if (C.Pat.K == Pattern::Kind::Wildcard)
        continue;
      if (C.Pat.K == Pattern::Kind::Tuple && C.Pat.Elems.size() == N)
        continue;
      return false;
    }
    return true;
  }

  /// `match (e1, ..., en) with { case (p1, ..., pn) => ... }` — the
  /// shape of every lattice operation — compiled component-wise: the
  /// elements are evaluated into registers (same order as tuple
  /// construction) and each case tests sub-patterns directly against
  /// them. This skips the per-call tuple hash-consing, the tuple-shape
  /// test and the element extraction; the tuple is only built on the
  /// cold no-case-matched path, where the fault message renders it.
  void compileMatchDestructured(const Expr &E, uint16_t Dst) {
    const Expr &Scrut = *E.Args[0];
    size_t N = Scrut.Args.size();
    // Component registers: a component that is already a bound variable
    // reuses its register (cases only read components, and every write
    // a case body performs lands in Dst or in registers above RegMark).
    SmallVector<uint16_t, 4> Comp;
    for (size_t I = 0; I < N; ++I) {
      const Expr &El = *Scrut.Args[I];
      if (El.K == Expr::Kind::Var) {
        int Reg = lookup(El.Name);
        if (Reg >= 0) {
          Comp.push_back(static_cast<uint16_t>(Reg));
          continue;
        }
      }
      uint16_t R = fresh();
      compileExpr(El, R);
      Comp.push_back(R);
    }

    std::vector<size_t> EndJumps;
    std::vector<size_t> FailJumps;
    for (const MatchCase &C : E.Cases) {
      patchAll(FailJumps, here());
      FailJumps.clear();
      size_t ScopeMark = Scope.size();
      uint32_t RegMark = NextReg;
      if (C.Pat.K == Pattern::Kind::Tuple)
        for (size_t I = 0; I < N; ++I)
          compilePattern(C.Pat.Elems[I], Comp[I], FailJumps);
      compileExpr(*C.Body, Dst);
      EndJumps.push_back(emit(Op::Jump));
      Scope.resize(ScopeMark);
      NextReg = RegMark;
    }

    // No case matched: build the tuple the interpreter would render.
    patchAll(FailJumps, here());
    uint16_t First = static_cast<uint16_t>(NextReg);
    for (size_t I = 0; I < N; ++I)
      emit(Op::Move, fresh(), Comp[I]);
    uint16_t Tup = fresh();
    emit(Op::MakeTuple, Tup, First, static_cast<uint16_t>(N));
    emit(Op::FailNoMatch, Tup);
    patchAll(EndJumps, here());
  }

  void compileMatch(const Expr &E, uint16_t Dst) {
    if (E.Args[0]->K == Expr::Kind::Tuple && !E.Args[0]->Args.empty() &&
        !fold(*E.Args[0]) && destructurable(E, E.Args[0]->Args.size())) {
      compileMatchDestructured(E, Dst);
      return;
    }
    uint16_t Scrut = fresh();
    compileExpr(*E.Args[0], Scrut);

    size_t NumTagCases = leadingTagCases(E);
    size_t DispatchAt = 0;
    uint32_t TableIx = 0;
    if (NumTagCases > 0) {
      TableIx = static_cast<uint32_t>(Fn.TagTables.size());
      Fn.TagTables.emplace_back();
      DispatchAt = emit(Op::TagDispatch, Scrut, TableIx, newCache());
    }

    std::vector<size_t> EndJumps;
    std::vector<size_t> FailJumps; // pending jumps to the next case
    int32_t MissEntry = -1;        // pc of the first non-tag case
    for (size_t CI = 0; CI < E.Cases.size(); ++CI) {
      const MatchCase &C = E.Cases[CI];
      patchAll(FailJumps, here());
      FailJumps.clear();
      if (CI == NumTagCases && NumTagCases > 0)
        MissEntry = here();

      size_t ScopeMark = Scope.size();
      uint32_t RegMark = NextReg;
      if (CI < NumTagCases) {
        // The tag test doubles as the linear-path test; the dispatch
        // table enters just past it.
        FailJumps.push_back(emit(Op::JumpIfNotTag, Scrut,
                                 tagSymbol(C.Pat.EnumName, C.Pat.CaseName)));
        std::vector<TagTableEntry> &Table = Fn.TagTables[TableIx];
        uint32_t Sym = tagSymbol(C.Pat.EnumName, C.Pat.CaseName);
        bool Seen = false;
        for (const TagTableEntry &TE : Table)
          Seen |= TE.Symbol == Sym;
        if (!Seen)
          Table.push_back(TagTableEntry{Sym, here()});
        if (!C.Pat.Elems.empty()) {
          uint16_t Payload = fresh();
          emit(Op::GetPayload, Payload, Scrut);
          compilePattern(C.Pat.Elems[0], Payload, FailJumps);
        }
      } else {
        compilePattern(C.Pat, Scrut, FailJumps);
      }
      compileExpr(*C.Body, Dst);
      EndJumps.push_back(emit(Op::Jump));
      Scope.resize(ScopeMark);
      NextReg = RegMark;
    }

    // No case matched: fault like the interpreter. A dispatch miss
    // (tag absent from the table, or a non-tag scrutinee) resumes at
    // the first non-tag case, or faults directly if there is none.
    patchAll(FailJumps, here());
    if (NumTagCases > 0)
      patch(DispatchAt, MissEntry >= 0 ? MissEntry : here());
    emit(Op::FailNoMatch, Scrut);
    patchAll(EndJumps, here());
  }
};

//===----------------------------------------------------------------------===//
// VmCompiler
//===----------------------------------------------------------------------===//

void VmCompiler::markLatticeOp(const std::string &Fn, LatRole Role, Value Bot,
                               Value Top) {
  LatticeOps[Fn] = LatInfo{Role, Bot, Top};
}

uint32_t VmCompiler::nativeSlot(const std::string &Name) {
  auto It = NativeIndex.find(Name);
  if (It != NativeIndex.end())
    return It->second;
  uint32_t Slot = static_cast<uint32_t>(M.NativeNames.size());
  M.NativeNames.push_back(Name);
  M.Natives.emplace_back();
  NativeIndex[Name] = Slot;
  return Slot;
}

std::optional<uint32_t>
VmCompiler::functionIndex(const std::string &Name) const {
  auto It = FnIndex.find(Name);
  if (It == FnIndex.end() || !M.Functions[It->second].Ok)
    return std::nullopt;
  return It->second;
}

bool VmCompiler::usable(uint32_t FnIx) const {
  return FnIx < M.Functions.size() && M.Functions[FnIx].Ok;
}

size_t VmCompiler::compileDefs() {
  assert(!DefsDone && "compileDefs() runs once");
  DefsDone = true;

  // Pass 1: assign indexes so bodies can resolve mutual recursion.
  for (const auto &[Name, DI] : CM.Defs) {
    if (DI.Decl->IsExt)
      continue;
    FnIndex[Name] = static_cast<uint32_t>(M.Functions.size());
    M.Functions.emplace_back();
  }

  // Pass 2: compile bodies.
  for (const auto &[Name, DI] : CM.Defs) {
    if (DI.Decl->IsExt)
      continue;
    VmFunction &Fn = M.Functions[FnIndex[Name]];
    Fn.Name = Name;
    Fn.NumParams = static_cast<uint32_t>(DI.Decl->Params.size());
    Fn.DepthErrWhere = renderWhere(Name, DI.Decl->Loc);

    FnBuilder B(*this, Fn);
    for (const ast::Param &P : DI.Decl->Params)
      B.Scope.emplace_back(P.Name, B.fresh());

    if (auto It = LatticeOps.find(Name);
        It != LatticeOps.end() && Fn.NumParams == 2) {
      Op K = It->second.Role == LatRole::Leq   ? Op::LeqPrologue
             : It->second.Role == LatRole::Lub ? Op::LubPrologue
                                               : Op::GlbPrologue;
      B.emit(K, 0, B.addConst(It->second.Bot), B.addConst(It->second.Top));
    }

    uint16_t Ret = B.fresh();
    B.compileExpr(*DI.Decl->Body, Ret);
    B.emit(Op::Ret, Ret);
    Fn.Ok = !B.Failed;
  }

  // Usability closure: a function calling an unusable function is
  // itself unusable (the interpreter takes over the whole call tree so
  // the two engines' call-depth accounting stays aligned).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (VmFunction &Fn : M.Functions) {
      if (!Fn.Ok)
        continue;
      for (uint32_t Callee : Fn.Callees)
        if (!M.Functions[Callee].Ok) {
          Fn.Ok = false;
          Changed = true;
          break;
        }
    }
  }

  size_t NumOk = 0;
  for (const VmFunction &Fn : M.Functions)
    NumOk += Fn.Ok;
  return NumOk;
}

std::optional<uint32_t>
VmCompiler::compileWrapper(const std::string &Name,
                           std::span<const std::string> Params,
                           std::span<const ast::Expr *const> Exprs,
                           const std::string &Callee) {
  assert(DefsDone && "wrappers compile after the defs");
  uint32_t Ix = static_cast<uint32_t>(M.Functions.size());
  M.Functions.emplace_back();
  VmFunction &Fn = M.Functions.back();
  Fn.Name = Name;
  Fn.NumParams = static_cast<uint32_t>(Params.size());
  Fn.DepthErrWhere = "'" + Name + "'";

  FnBuilder B(*this, Fn);
  for (const std::string &P : Params)
    B.Scope.emplace_back(P, B.fresh());

  uint16_t First = static_cast<uint16_t>(B.NextReg);
  SmallVector<uint16_t, 8> Regs;
  for (size_t I = 0; I < Exprs.size(); ++I)
    Regs.push_back(B.fresh());
  for (size_t I = 0; I < Exprs.size(); ++I)
    B.compileExpr(*Exprs[I], Regs[I]);
  if (Callee.empty()) {
    // Transfer form: a single expression's value is the result.
    assert(Exprs.size() == 1 && "transfer wrappers carry one expression");
    B.emit(Op::Ret, First);
  } else {
    uint16_t Ret = B.fresh();
    B.emitCall(Callee, Ret, First, static_cast<uint16_t>(Exprs.size()));
    B.emit(Op::Ret, Ret);
  }
  Fn.Ok = !B.Failed;
  for (uint32_t C : Fn.Callees)
    Fn.Ok &= usable(C);
  if (!Fn.Ok)
    return std::nullopt;
  return Ix;
}

std::string VmCompiler::renderWhere(const std::string &Name,
                                    SourceLoc Loc) const {
  std::string Out = "'" + Name + "'";
  if (SM && Loc.isValid()) {
    LineColumn LC = SM->lineColumn(Loc);
    Out += " at " + SM->bufferName(Loc.Buffer) + ":" +
           std::to_string(LC.Line) + ":" + std::to_string(LC.Column);
  }
  return Out;
}
