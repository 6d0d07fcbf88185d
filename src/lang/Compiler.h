//===- lang/Compiler.h - FLIX compiler driver ------------------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FLIX compiler: lexes, parses, type checks and lowers FLIX source to
/// a fixpoint Program ready for the Solver. Mirrors the paper's toolchain
/// ("a parser, a type checker, an interpreter, an indexed database, and a
/// semi-naive fixed-point solver", §4).
///
/// Typical use:
/// \code
///   ValueFactory F;
///   FlixCompiler C(F);
///   if (!C.compile(Source, "analysis.flix")) {
///     errs() << C.diagnostics();
///     return;
///   }
///   Solver S(C.program());
///   S.solve();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_LANG_COMPILER_H
#define FLIX_LANG_COMPILER_H

#include "fixpoint/Program.h"
#include "lang/Interp.h"
#include "lang/Sema.h"
#include "vm/Vm.h"
#include "vm/VmCompiler.h"

#include <memory>

namespace flix {

/// Owns everything a compiled FLIX program needs: source buffers,
/// diagnostics, the AST, the interpreter, interpreted lattices and the
/// lowered fixpoint Program. Keep the compiler alive while solving.
class FlixCompiler {
public:
  explicit FlixCompiler(ValueFactory &F);
  ~FlixCompiler();
  FlixCompiler(const FlixCompiler &) = delete;
  FlixCompiler &operator=(const FlixCompiler &) = delete;

  /// Registers a native implementation for an `ext def`. May be called
  /// before or after compile(), but before solving. Natives reach both
  /// execution engines (interpreter and bytecode VM).
  void registerNative(const std::string &Name, NativeFn Fn);

  /// Enables or disables the bytecode VM (`flixc --no-vm`). Must be
  /// called before compile(); disabled, every function runs on the
  /// interpreter and no VM is constructed.
  void setUseVm(bool Enabled) { UseVm = Enabled; }

  /// The bytecode VM, or nullptr when disabled or before compile().
  vm::Vm *vm() { return TheVm.get(); }

  /// VM function index for def \p Name, if the VM is enabled and the
  /// function compiled (see vm::VmCompiler::functionIndex). Used by the
  /// differential tests to call the same def on both engines.
  std::optional<uint32_t> vmFunctionIndex(const std::string &Name) const {
    return VmComp ? VmComp->functionIndex(Name) : std::nullopt;
  }

  /// Compiles \p Source. Returns false (and records diagnostics) on any
  /// lex/parse/type/lowering error.
  bool compile(std::string Source, std::string BufferName = "<input>");

  /// Renders all diagnostics accumulated so far.
  std::string diagnostics() const;
  bool hasErrors() const;

  /// The lowered program; valid after a successful compile().
  Program &program();

  /// The expression interpreter (for direct function calls in tests and
  /// for checking runtime errors after solving).
  Interp &interp();

  /// Looks up a predicate id by source name.
  std::optional<PredId> predicate(std::string_view Name) const;

  /// Injects facts programmatically after compilation (used by the
  /// benchmark harness to feed generated workloads). Returns false if the
  /// predicate does not exist or arity mismatches.
  bool addFact(std::string_view PredName, std::span<const Value> Tuple);
  bool addLatFact(std::string_view PredName, std::span<const Value> Key,
                  Value LatVal);

  /// The checked module (symbol tables), for tooling.
  const CheckedModule &checkedModule() const { return CM; }

private:
  class Lowering;

  ValueFactory &F;
  SourceManager SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<ast::Module> Mod;
  CheckedModule CM;
  std::unique_ptr<Interp> Interpreter;
  std::vector<std::pair<std::string, NativeFn>> PendingNatives;
  /// Natives awaiting VM installation: slots exist only after lowering
  /// compiles the module, so pre-compile registrations park here.
  std::vector<std::pair<std::string, NativeFn>> VmNatives;
  bool UseVm = true;
  std::unique_ptr<vm::VmModule> VmMod;
  std::unique_ptr<vm::VmCompiler> VmComp;
  std::unique_ptr<vm::Vm> TheVm;
  std::vector<std::unique_ptr<Lattice>> Lattices;
  std::unique_ptr<Program> Prog;
  std::map<std::string, PredId, std::less<>> PredIds;
  bool Compiled = false;
};

} // namespace flix

#endif // FLIX_LANG_COMPILER_H
