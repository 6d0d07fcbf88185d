//===- vm/Bytecode.h - Register bytecode for FLIX functions ---*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode representation executed by the dispatch-loop VM (vm/Vm.h):
/// a register machine over hash-consed runtime Values. Each compiled
/// function owns a flat instruction array, a constants pool, and the
/// static side tables of its tag-dispatch sites; call frames are slices
/// of a per-thread register stack, so execution allocates nothing on the
/// hot path.
///
/// The instruction set mirrors the functional sub-language one-to-one
/// (ints, bools, strings, tags, tuples, sets, calls, matches) plus two
/// kinds of fused fast path:
///
///   * Lattice prologues (LeqPrologue/LubPrologue/GlbPrologue) emitted at
///     the entry of compiled lattice operations. They decide the common
///     cases — equal handles, ⊥/⊤ operands — from the universal lattice
///     identities (x ⊑ x, ⊥ ⊑ x, x ⊑ ⊤, x ⊔ ⊥ = x, ...) with a handful
///     of handle compares, so builtin lattices usually never reach the
///     general compiled body.
///
///   * Inline caches. A TagDispatch site caches (tag symbol → target pc)
///     in a single packed atomic word; TupleGet/TupleCheck sites cache
///     the raw bits of the last matching tuple handle. Caches are shared
///     across threads with relaxed atomics: a stale read is just a miss,
///     a torn value is impossible (one 64-bit word), and the cached
///     fact is immutable (values are hash-consed, so a handle's tag or
///     arity never changes) — no invalidation is ever required.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_VM_BYTECODE_H
#define FLIX_VM_BYTECODE_H

#include "runtime/Value.h"
#include "support/SourceManager.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace flix::vm {

enum class Op : uint8_t {
  // -- data movement -------------------------------------------------
  LoadConst, ///< R[A] = Consts[Imm]
  Move,      ///< R[A] = R[B]

  // -- integer arithmetic (operands proven Int by the type checker) ---
  AddInt, ///< R[A] = R[B] + R[C]
  SubInt, ///< R[A] = R[B] - R[C]
  MulInt, ///< R[A] = R[B] * R[C]
  DivInt, ///< R[A] = R[B] / R[C]; faults on zero divisor
  RemInt, ///< R[A] = R[B] % R[C]; faults on zero divisor
  NegInt, ///< R[A] = -R[B]

  // -- immediate-operand forms (constant folded into Imm; spares a
  // -- LoadConst and a register on the very common reg-op-const shape) -
  AddImm,   ///< R[A] = R[B] + Imm
  SubImm,   ///< R[A] = R[B] - Imm
  MulImm,   ///< R[A] = R[B] * Imm
  DivImm,   ///< R[A] = R[B] / Imm; faults when Imm == 0
  RemImm,   ///< R[A] = R[B] % Imm; faults when Imm == 0
  CmpLtImm, ///< R[A] = R[B] < Imm   (Int)
  CmpLeImm, ///< R[A] = R[B] <= Imm  (Int)
  CmpGtImm, ///< R[A] = R[B] > Imm   (Int)
  CmpGeImm, ///< R[A] = R[B] >= Imm  (Int)
  CmpEqImm, ///< R[A] = R[B] is the Int Imm (Int == is never a fault)
  CmpNeImm, ///< R[A] = R[B] is not the Int Imm

  // -- comparisons ----------------------------------------------------
  CmpLt,   ///< R[A] = R[B] < R[C]   (Int)
  CmpLe,   ///< R[A] = R[B] <= R[C]  (Int)
  CmpGt,   ///< R[A] = R[B] > R[C]   (Int)
  CmpGe,   ///< R[A] = R[B] >= R[C]  (Int)
  CmpEq,   ///< R[A] = R[B] == R[C]  (any kind; handle equality)
  CmpNe,   ///< R[A] = R[B] != R[C]
  NotBool, ///< R[A] = !R[B]

  // -- control flow ---------------------------------------------------
  Jump,        ///< pc = Imm
  JumpIfFalse, ///< if (!R[A]) pc = Imm; faults if R[A] is not Bool
  JumpIfTrue,  ///< if (R[A]) pc = Imm; faults if R[A] is not Bool
  Ret,         ///< return R[A]

  // -- pattern tests (jump to Imm when the test fails) ----------------
  JumpIfNeConst,   ///< if (R[A] != Consts[B]) pc = Imm
  JumpIfNotTag,    ///< if (R[A] is not a tag named symbol B) pc = Imm
  JumpIfNotTuple,  ///< if (R[A] is not a B-tuple) pc = Imm; C = cache id
  TagDispatch,     ///< indirect jump through tag table B (cache id C);
                   ///< pc = Imm when the scrutinee's tag is absent
  GetPayload,      ///< R[A] = payload of tag R[B]
  GetTupleElem,    ///< R[A] = element C of tuple R[B]

  // -- construction ---------------------------------------------------
  MakeTag,   ///< R[A] = tag(symbol B, payload R[C])
  MakeTuple, ///< R[A] = tuple(R[B] ... R[B+C-1])
  MakeSet,   ///< R[A] = set(R[B] ... R[B+C-1])

  // -- calls ----------------------------------------------------------
  CallFn,     ///< R[A] = Functions[Imm](R[B] ... R[B+C-1])
  CallNative, ///< R[A] = Natives[Imm](R[B] ... R[B+C-1])

  // -- faults ---------------------------------------------------------
  FailNoMatch, ///< no match case accepted R[A]; record the fault

  // -- fused lattice fast paths (entry of leq/lub/glb bodies) ---------
  // Operate on the two parameter registers r0, r1; B/C index the ⊥/⊤
  // constants in the pool. Each either returns directly or falls
  // through to the general compiled body.
  LeqPrologue, ///< r0==r1 | r0==⊥ | r1==⊤ → return true
  LubPrologue, ///< r0==r1→r0; ⊥ is identity; ⊤ absorbs
  GlbPrologue, ///< r0==r1→r0; ⊤ is identity; ⊥ absorbs
};

/// X-macro listing every opcode exactly once, in enum order. The
/// threaded dispatch core (vm/Vm.cpp) builds its computed-goto table
/// from this list, and a static_assert there proves the list order
/// matches the enum — adding an opcode without a handler is a compile
/// error in the threaded build, not a silent misdispatch.
#define FLIX_VM_OPLIST(X)                                                      \
  X(LoadConst) X(Move)                                                         \
  X(AddInt) X(SubInt) X(MulInt) X(DivInt) X(RemInt) X(NegInt)                  \
  X(AddImm) X(SubImm) X(MulImm) X(DivImm) X(RemImm)                            \
  X(CmpLtImm) X(CmpLeImm) X(CmpGtImm) X(CmpGeImm) X(CmpEqImm) X(CmpNeImm)      \
  X(CmpLt) X(CmpLe) X(CmpGt) X(CmpGe) X(CmpEq) X(CmpNe) X(NotBool)             \
  X(Jump) X(JumpIfFalse) X(JumpIfTrue) X(Ret)                                  \
  X(JumpIfNeConst) X(JumpIfNotTag) X(JumpIfNotTuple) X(TagDispatch)            \
  X(GetPayload) X(GetTupleElem)                                                \
  X(MakeTag) X(MakeTuple) X(MakeSet)                                           \
  X(CallFn) X(CallNative) X(FailNoMatch)                                       \
  X(LeqPrologue) X(LubPrologue) X(GlbPrologue)

/// One fixed-width instruction. A/B/C are register numbers, counts,
/// constant-pool slots or symbol ids depending on the opcode; Imm is a
/// jump target, constant index or function index.
struct Instr {
  Op K;
  uint16_t A = 0;
  uint32_t B = 0;
  uint16_t C = 0;
  int32_t Imm = 0;
};

/// One entry of a TagDispatch site's symbol → pc table.
struct TagTableEntry {
  uint32_t Symbol; ///< interned tag name ("Enum.Case")
  int32_t Target;  ///< pc of the first case testing this tag
};

/// A compiled function: parameters arrive in registers 0..NumParams-1.
struct VmFunction {
  std::string Name;
  uint32_t NumParams = 0;
  uint32_t NumRegs = 0; ///< frame size, parameters included
  std::vector<Instr> Code;
  std::vector<Value> Consts;
  /// Tag-dispatch side tables, indexed by Instr::B of TagDispatch.
  std::vector<std::vector<TagTableEntry>> TagTables;
  /// Pre-rendered "name at file:line:col" for the call-depth diagnostic,
  /// identical to the interpreter's (satellite of ISSUE 8; the source
  /// span is static, so it is cheaper to render once at compile time).
  std::string DepthErrWhere;
  /// False when compilation failed or a callee is unusable; the caller
  /// keeps the interpreter implementation instead.
  bool Ok = false;
  /// Function indexes this body calls via CallFn, for the usability
  /// closure computed after all bodies are compiled.
  std::vector<uint32_t> Callees;
};

/// A compiled module: every def of a CheckedModule plus one anonymous
/// function per rule wrapper (filter/binder/transfer). Immutable after
/// compilation except the inline-cache words, which are monotone
/// single-word caches (see file comment).
struct VmModule {
  std::vector<VmFunction> Functions;
  /// Native (ext def) slots referenced by CallNative, by registration
  /// name. Implementations are filled in by the host before solving;
  /// calling an empty slot faults like the interpreter does.
  std::vector<std::string> NativeNames;
  std::vector<std::function<Value(ValueFactory &, std::span<const Value>)>>
      Natives;
  /// Inline-cache words, shared by all executions. TagDispatch packs
  /// (tag symbol id << 32 | target pc); JumpIfNotTuple stores the raw
  /// bits of the last tuple handle that passed the site's check. A
  /// deque so cache words allocated during compilation never move —
  /// executing threads hold stable references.
  std::deque<std::atomic<uint64_t>> Caches;

  static constexpr uint64_t EmptyCache = ~uint64_t{0};
};

} // namespace flix::vm

#endif // FLIX_VM_BYTECODE_H
