//===- vm/VmCompiler.h - Typed AST → bytecode lowering --------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers the type-checked functional sub-language to the register
/// bytecode of vm/Bytecode.h. Compilation is per function: every named
/// def becomes a VmFunction (ext defs become CallNative thunks), and the
/// rule-lowering pass adds one anonymous wrapper function per
/// filter/binder/transfer site. The compiler performs constant folding
/// (literal subtrees collapse to one LoadConst of a pre-interned value —
/// in particular constant tags and tuples are hash-consed at compile
/// time, where the interpreter re-interns per evaluation), emits
/// tag-dispatch jump tables with inline caches for matches over enum
/// constructors, and prepends fused lattice prologues to the functions a
/// lattice binding names as leq/lub/glb.
///
/// Compilation never fails a build: an expression the compiler cannot
/// place (register pressure past the frame cap) just leaves that
/// function without a VM body, and the engines fall back to the
/// interpreter for it (counted in SolveStats::InterpFallbacks).
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_VM_VMCOMPILER_H
#define FLIX_VM_VMCOMPILER_H

#include "lang/Sema.h"
#include "vm/Bytecode.h"

#include <optional>

namespace flix::vm {

class VmCompiler {
public:
  VmCompiler(const CheckedModule &CM, ValueFactory &F,
             const SourceManager *SM, VmModule &M)
      : CM(CM), F(F), SM(SM), M(M) {}

  /// Declares that \p Fn is a lattice operation with the given ⊥/⊤
  /// constants; its compiled body gets the matching fused prologue.
  /// Call before compileDefs().
  enum class LatRole { Leq, Lub, Glb };
  void markLatticeOp(const std::string &Fn, LatRole Role, Value Bot,
                     Value Top);

  /// Compiles every def of the checked module and resolves the
  /// usability closure (a function is usable iff its body and all its
  /// CallFn callees compiled). Returns the number of usable functions.
  size_t compileDefs();

  /// Compiles an anonymous wrapper evaluating \p Exprs under parameters
  /// \p Params (the free rule variables, in order). When \p Callee is
  /// non-empty the wrapper returns Callee(e1, ..., en); otherwise it
  /// returns e1 (the transfer-function identity form). Returns the
  /// function index, or nullopt when the wrapper (or anything it calls)
  /// is not compilable.
  std::optional<uint32_t>
  compileWrapper(const std::string &Name, std::span<const std::string> Params,
                 std::span<const ast::Expr *const> Exprs,
                 const std::string &Callee);

  /// Index of the compiled function for def \p Name, if usable.
  std::optional<uint32_t> functionIndex(const std::string &Name) const;

private:
  struct FnBuilder;
  friend struct FnBuilder;

  uint32_t nativeSlot(const std::string &Name);
  bool usable(uint32_t FnIx) const;
  std::string renderWhere(const std::string &Name, SourceLoc Loc) const;

  const CheckedModule &CM;
  ValueFactory &F;
  const SourceManager *SM;
  VmModule &M;

  struct LatInfo {
    LatRole Role;
    Value Bot, Top;
  };
  std::map<std::string, LatInfo> LatticeOps;
  std::map<std::string, uint32_t> FnIndex;     ///< def name → function ix
  std::map<std::string, uint32_t> NativeIndex; ///< ext name → native slot
  bool DefsDone = false;
};

} // namespace flix::vm

#endif // FLIX_VM_VMCOMPILER_H
