//===- vm/Vm.cpp - Bytecode dispatch-loop VM --------------------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// The dispatch core compiles in one of two modes:
//
//   * FLIX_VM_THREADED (CMake option, default ON) on a GNU-compatible
//     compiler: classic computed-goto threaded dispatch. Every handler
//     ends by loading the next instruction and jumping through a static
//     label table, so each opcode gets its own indirect-branch site and
//     the branch predictor learns per-opcode successor patterns — the
//     single shared branch of a switch loop is the main dispatch cost
//     the BENCH_vm poly row isolates.
//
//   * Otherwise: the portable for(;;)/switch loop.
//
// Both modes expand the SAME handler text: VM_CASE()/VM_NEXT() are the
// only mode-dependent macros, so the handlers cannot drift apart. The
// label table is built from FLIX_VM_OPLIST (vm/Bytecode.h) and a
// static_assert proves that list matches the Op enum order; a handler
// missing from the threaded build is an undefined-label compile error.
//
// Call frames are carved from a per-thread register stack by offset:
// pushing a frame is a bounds check plus a bump, not a per-call
// SmallVector (whose value-initialization of NumRegs slots dominated
// the BENCH_vm fib row). Growth reallocates the slab, so handlers that
// can run nested frames (CallFn) or reenter the VM (CallNative) refresh
// their frame pointer afterwards.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/SmallVector.h"

#include <cassert>
#include <vector>

using namespace flix;
using namespace flix::vm;

#if defined(FLIX_VM_THREADED) && FLIX_VM_THREADED &&                           \
    (defined(__GNUC__) || defined(__clang__))
#define FLIX_VM_USE_THREADED 1
#else
#define FLIX_VM_USE_THREADED 0
#endif

namespace {

// Compile-time proof that FLIX_VM_OPLIST enumerates every opcode in
// enum order — the threaded dispatch table indexes by Op value.
constexpr Op OpOrder[] = {
#define FLIX_VM_OP_ENUM(N) Op::N,
    FLIX_VM_OPLIST(FLIX_VM_OP_ENUM)
#undef FLIX_VM_OP_ENUM
};
constexpr size_t NumOps = sizeof(OpOrder) / sizeof(OpOrder[0]);
constexpr bool opListMatchesEnum() {
  for (size_t Ix = 0; Ix < NumOps; ++Ix)
    if (OpOrder[Ix] != static_cast<Op>(Ix))
      return false;
  return true;
}
static_assert(opListMatchesEnum() &&
                  static_cast<size_t>(Op::GlbPrologue) + 1 == NumOps,
              "FLIX_VM_OPLIST must list every opcode in enum order");

/// Per-thread register stack. Frames are slices [Base, Base+NumRegs);
/// callers remember their Base offset because growth reallocates Slab.
/// Thread-local (not per-Vm) so reentrant top-level calls — an extern
/// memo miss evaluating a compiled def, say — nest LIFO naturally.
struct RegStack {
  std::vector<Value> Slab;
  size_t Top = 0;

  Value *ensure(size_t Base, size_t NumRegs) {
    if (Slab.size() < Base + NumRegs)
      Slab.resize(std::max(Slab.size() * 2, Base + NumRegs));
    return Slab.data() + Base;
  }
};
thread_local RegStack TlRegStack;

} // namespace

/// Per-top-level-call execution state, threaded through nested frames.
/// Inline-cache hits accumulate locally and flush to the shared atomic
/// once per top-level call, so the hot loop never touches contended
/// cache lines.
struct Vm::ExecState {
  RegStack *Stack = nullptr;
  unsigned Depth = 0;
  uint64_t IcHitsLocal = 0;
  bool Faulted = false;
};

bool Vm::threadedDispatch() { return FLIX_VM_USE_THREADED != 0; }

void Vm::registerNative(
    const std::string &Name,
    std::function<Value(ValueFactory &, std::span<const Value>)> Fn) {
  for (size_t I = 0; I < M.NativeNames.size(); ++I)
    if (M.NativeNames[I] == Name) {
      M.Natives[I] = std::move(Fn);
      return;
    }
}

Value Vm::fault(ExecState &St, std::string Msg) {
  if (!St.Faulted) {
    St.Faulted = true;
    std::lock_guard<std::mutex> Lock(ErrMu);
    if (OnError)
      OnError(Msg);
  }
  return F.unit();
}

Value Vm::call(uint32_t FnIx, std::span<const Value> Args) {
  Calls.fetch_add(1, std::memory_order_relaxed);
  const VmFunction &Fn = M.Functions[FnIx];
  assert(Fn.Ok && Args.size() == Fn.NumParams && "bad VM entry");

  RegStack &S = TlRegStack;
  size_t Base = S.Top;
  Value *R;
  if (S.Slab.size() < Base + Fn.NumRegs) {
    // Args may alias the slab when a native reenters the VM; growth
    // would invalidate them, so stage a copy on this cold path.
    std::vector<Value> Staged(Args.begin(), Args.end());
    R = S.ensure(Base, Fn.NumRegs);
    for (size_t I = 0; I < Staged.size(); ++I)
      R[I] = Staged[I];
  } else {
    R = S.Slab.data() + Base;
    for (size_t I = 0; I < Args.size(); ++I)
      R[I] = Args[I];
  }
  S.Top = Base + Fn.NumRegs;

  ExecState St;
  St.Stack = &S;
  St.Depth = 1;
  Value Out = run(Fn, Base, St);
  S.Top = Base;
  if (St.IcHitsLocal)
    IcHits.fetch_add(St.IcHitsLocal, std::memory_order_relaxed);
  return St.Faulted ? F.unit() : Out;
}

// Shared handler-body helpers. Each opcode's body is written exactly
// once below; VM_CASE/VM_NEXT select the dispatch mode around it.
#define VM_INT_BINOP(NAME, STORE)                                              \
  VM_CASE(NAME) {                                                              \
    Value L = R[I->B], Rv = R[I->C];                                           \
    if (!L.isInt() || !Rv.isInt())                                             \
      return fault(St, "arithmetic on non-Int values");                        \
    int64_t A = L.asInt(), B = Rv.asInt();                                     \
    STORE;                                                                     \
  }                                                                            \
  VM_NEXT()

#define VM_INT_IMMOP(NAME, STORE)                                              \
  VM_CASE(NAME) {                                                              \
    Value V = R[I->B];                                                         \
    if (!V.isInt())                                                            \
      return fault(St, "arithmetic on non-Int values");                        \
    int64_t A = V.asInt(), B = I->Imm;                                         \
    STORE;                                                                     \
  }                                                                            \
  VM_NEXT()

Value Vm::run(const VmFunction &Fn, size_t FrameBase, ExecState &St) {
  const Instr *Code = Fn.Code.data();
  const Value *K = Fn.Consts.data();
  RegStack &S = *St.Stack;
  Value *R = S.Slab.data() + FrameBase;
  int32_t Pc = 0;
  const Instr *I;

#if FLIX_VM_USE_THREADED

  static const void *const Table[NumOps] = {
#define FLIX_VM_LABEL_ADDR(N) &&Lbl_##N,
      FLIX_VM_OPLIST(FLIX_VM_LABEL_ADDR)
#undef FLIX_VM_LABEL_ADDR
  };
#define VM_CASE(N) Lbl_##N:
#define VM_NEXT()                                                              \
  do {                                                                         \
    I = &Code[Pc++];                                                           \
    goto *Table[static_cast<size_t>(I->K)];                                    \
  } while (0)
  VM_NEXT();

#else // portable switch dispatch

#define VM_CASE(N) case Op::N:
#define VM_NEXT() continue
  for (;;) {
    I = &Code[Pc++];
    switch (I->K) {

#endif

      VM_CASE(LoadConst) { R[I->A] = K[I->Imm]; }
      VM_NEXT();
      VM_CASE(Move) { R[I->A] = R[I->B]; }
      VM_NEXT();

      VM_INT_BINOP(AddInt, R[I->A] = F.integer(A + B));
      VM_INT_BINOP(SubInt, R[I->A] = F.integer(A - B));
      VM_INT_BINOP(MulInt, R[I->A] = F.integer(A * B));
      VM_INT_BINOP(DivInt, if (B == 0) return fault(St, "division by zero");
                   R[I->A] = F.integer(A / B));
      VM_INT_BINOP(RemInt, if (B == 0) return fault(St, "remainder by zero");
                   R[I->A] = F.integer(A % B));
      VM_CASE(NegInt) {
        Value V = R[I->B];
        if (!V.isInt())
          return fault(St, "unary '-' on non-Int value");
        R[I->A] = F.integer(-V.asInt());
      }
      VM_NEXT();

      VM_INT_IMMOP(AddImm, R[I->A] = F.integer(A + B));
      VM_INT_IMMOP(SubImm, R[I->A] = F.integer(A - B));
      VM_INT_IMMOP(MulImm, R[I->A] = F.integer(A * B));
      VM_INT_IMMOP(DivImm, if (B == 0) return fault(St, "division by zero");
                   R[I->A] = F.integer(A / B));
      VM_INT_IMMOP(RemImm, if (B == 0) return fault(St, "remainder by zero");
                   R[I->A] = F.integer(A % B));
      VM_INT_IMMOP(CmpLtImm, R[I->A] = F.boolean(A < B));
      VM_INT_IMMOP(CmpLeImm, R[I->A] = F.boolean(A <= B));
      VM_INT_IMMOP(CmpGtImm, R[I->A] = F.boolean(A > B));
      VM_INT_IMMOP(CmpGeImm, R[I->A] = F.boolean(A >= B));
      VM_CASE(CmpEqImm) {
        Value V = R[I->B];
        R[I->A] = F.boolean(V.isInt() && V.asInt() == I->Imm);
      }
      VM_NEXT();
      VM_CASE(CmpNeImm) {
        Value V = R[I->B];
        R[I->A] = F.boolean(!V.isInt() || V.asInt() != I->Imm);
      }
      VM_NEXT();

      VM_INT_BINOP(CmpLt, R[I->A] = F.boolean(A < B));
      VM_INT_BINOP(CmpLe, R[I->A] = F.boolean(A <= B));
      VM_INT_BINOP(CmpGt, R[I->A] = F.boolean(A > B));
      VM_INT_BINOP(CmpGe, R[I->A] = F.boolean(A >= B));
      VM_CASE(CmpEq) { R[I->A] = F.boolean(R[I->B] == R[I->C]); }
      VM_NEXT();
      VM_CASE(CmpNe) { R[I->A] = F.boolean(R[I->B] != R[I->C]); }
      VM_NEXT();
      VM_CASE(NotBool) {
        Value V = R[I->B];
        if (!V.isBool())
          return fault(St, "'!' on non-Bool value");
        R[I->A] = F.boolean(!V.asBool());
      }
      VM_NEXT();

      VM_CASE(Jump) { Pc = I->Imm; }
      VM_NEXT();
      // B selects the non-Bool fault message: 0 = if condition,
      // 1 = '&&' operand, 2 = '||' operand (interpreter parity).
      VM_CASE(JumpIfFalse) {
        Value V = R[I->A];
        if (!V.isBool())
          return fault(St, I->B == 1
                               ? "'&&' on non-Bool value"
                               : "if condition did not evaluate to Bool");
        if (!V.asBool())
          Pc = I->Imm;
      }
      VM_NEXT();
      VM_CASE(JumpIfTrue) {
        Value V = R[I->A];
        if (!V.isBool())
          return fault(St, I->B == 2
                               ? "'||' on non-Bool value"
                               : "if condition did not evaluate to Bool");
        if (V.asBool())
          Pc = I->Imm;
      }
      VM_NEXT();
      VM_CASE(Ret) { return R[I->A]; }
      VM_NEXT();

      VM_CASE(JumpIfNeConst) {
        if (R[I->A] != K[I->B])
          Pc = I->Imm;
      }
      VM_NEXT();
      VM_CASE(JumpIfNotTag) {
        Value V = R[I->A];
        if (!V.isTag() || F.tagName(V).Id != I->B)
          Pc = I->Imm;
      }
      VM_NEXT();
      VM_CASE(JumpIfNotTuple) {
        Value V = R[I->A];
        std::atomic<uint64_t> &Cache = M.Caches[I->C];
        if (V.isTuple() &&
            V.rawBits() == Cache.load(std::memory_order_relaxed)) {
          ++St.IcHitsLocal; // size check skipped: handle seen here before
        } else if (!V.isTuple() || F.tupleElems(V).size() != I->B) {
          Pc = I->Imm;
        } else {
          Cache.store(V.rawBits(), std::memory_order_relaxed);
        }
      }
      VM_NEXT();
      VM_CASE(TagDispatch) {
        Value V = R[I->A];
        if (!V.isTag()) {
          Pc = I->Imm;
        } else {
          uint32_t Sym = F.tagName(V).Id;
          std::atomic<uint64_t> &Cache = M.Caches[I->C];
          uint64_t W = Cache.load(std::memory_order_relaxed);
          if (static_cast<uint32_t>(W >> 32) == Sym) {
            Pc = static_cast<int32_t>(static_cast<uint32_t>(W));
            ++St.IcHitsLocal;
          } else {
            int32_t Target = I->Imm;
            for (const TagTableEntry &TE : Fn.TagTables[I->B])
              if (TE.Symbol == Sym) {
                Target = TE.Target;
                break;
              }
            if (Target != I->Imm)
              Cache.store(static_cast<uint64_t>(Sym) << 32 |
                              static_cast<uint32_t>(Target),
                          std::memory_order_relaxed);
            Pc = Target;
          }
        }
      }
      VM_NEXT();
      VM_CASE(GetPayload) { R[I->A] = F.tagPayload(R[I->B]); }
      VM_NEXT();
      VM_CASE(GetTupleElem) { R[I->A] = F.tupleElems(R[I->B])[I->C]; }
      VM_NEXT();

      VM_CASE(MakeTag) { R[I->A] = F.tag(Symbol{I->B}, R[I->C]); }
      VM_NEXT();
      VM_CASE(MakeTuple) {
        R[I->A] = F.tuple(std::span<const Value>(&R[I->B], I->C));
      }
      VM_NEXT();
      VM_CASE(MakeSet) {
        std::vector<Value> Elems(&R[I->B], &R[I->B] + I->C);
        R[I->A] = F.set(std::move(Elems));
      }
      VM_NEXT();

      VM_CASE(CallFn) {
        const VmFunction &Callee = M.Functions[I->Imm];
        if (St.Depth >= MaxCallDepth)
          return fault(St, "call depth exceeded in " + Callee.DepthErrWhere +
                               " (runaway recursion?)");
        size_t CalleeBase = S.Top;
        if (S.Slab.size() < CalleeBase + Callee.NumRegs) {
          S.ensure(CalleeBase, Callee.NumRegs);
          R = S.Slab.data() + FrameBase; // growth moved the slab
        }
        Value *CR = S.Slab.data() + CalleeBase;
        for (uint16_t A = 0; A < I->C; ++A)
          CR[A] = R[I->B + A];
        S.Top = CalleeBase + Callee.NumRegs;
        ++St.Depth;
        Value Out = run(Callee, CalleeBase, St);
        --St.Depth;
        S.Top = CalleeBase;
        R = S.Slab.data() + FrameBase; // nested frames may have regrown it
        if (St.Faulted)
          return F.unit();
        R[I->A] = Out;
      }
      VM_NEXT();
      VM_CASE(CallNative) {
        const auto &Native = M.Natives[I->Imm];
        if (!Native)
          return fault(St, "no native registered for 'ext def " +
                               M.NativeNames[I->Imm] + "'");
        // Stage the args: a native may reenter the VM on this thread,
        // growing the slab and invalidating a span into it.
        SmallVector<Value, 8> NArgs(&R[I->B], &R[I->B] + I->C);
        Value Out = Native(F, std::span<const Value>(NArgs.data(),
                                                     NArgs.size()));
        R = S.Slab.data() + FrameBase;
        R[I->A] = Out;
      }
      VM_NEXT();

      VM_CASE(FailNoMatch) {
        return fault(St, "no case matched value " + F.toString(R[I->A]));
      }
      VM_NEXT();

      // Fused lattice fast paths: universal identities over the bound
      // ⊥/⊤ constants; fall through to the general body otherwise.
      VM_CASE(LeqPrologue) {
        Value A = R[0], B = R[1];
        if (A == B || A == K[I->B] || B == K[I->C])
          return F.boolean(true);
      }
      VM_NEXT();
      VM_CASE(LubPrologue) {
        Value A = R[0], B = R[1];
        Value Bot = K[I->B], Top = K[I->C];
        if (A == B || B == Bot)
          return A;
        if (A == Bot)
          return B;
        if (A == Top || B == Top)
          return Top;
      }
      VM_NEXT();
      VM_CASE(GlbPrologue) {
        Value A = R[0], B = R[1];
        Value Bot = K[I->B], Top = K[I->C];
        if (A == B || B == Top)
          return A;
        if (A == Top)
          return B;
        if (A == Bot || B == Bot)
          return Bot;
      }
      VM_NEXT();

#if !FLIX_VM_USE_THREADED
    } // switch: every case ends in VM_NEXT() or a return
  }
#endif
}
