//===- fixpoint/Program.h - FLIX fixpoint program IR ----------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver-facing intermediate representation of a FLIX program: a set
/// of predicate declarations (relations and lattice predicates), external
/// functions (monotone transfer functions, filter functions and
/// set-producing binder functions), rules and facts.
///
/// Programs are built either directly through ProgramBuilder (the C++ API
/// used by the analyses in src/analyses) or by lowering FLIX source
/// (src/lang/Lowering.*). The IR corresponds to the abstract syntax of
/// §3.1–§3.3 of the paper, with two extensions: stratified negation on
/// relational atoms (§7 future work) and set-binder body elements — the
/// `x <- f(...)` arrow syntax used by the IFDS/IDE rules (Figures 5–6).
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_FIXPOINT_PROGRAM_H
#define FLIX_FIXPOINT_PROGRAM_H

#include "runtime/Lattice.h"
#include "support/SmallVector.h"
#include "support/SourceManager.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace flix {

using PredId = uint32_t;
using FnId = uint32_t;
using VarId = uint32_t;

/// A declared predicate. A `rel` is a predicate where every column is a
/// key column; a `lat` additionally carries a lattice element in its last
/// column, and rows with equal keys are joined with ⊔ (§3.2 cells).
struct PredicateDecl {
  std::string Name;
  unsigned Arity = 0;          ///< total number of columns
  const Lattice *Lat = nullptr; ///< lattice of the last column (lat only)

  bool isRelational() const { return Lat == nullptr; }
  /// Number of key columns (all of them for rel, all but last for lat).
  unsigned keyArity() const { return isRelational() ? Arity : Arity - 1; }
};

/// Signature of an external function: called with the argument values, must
/// be pure. Transfer functions return a lattice element; filters return a
/// Bool value; binders return a Set value.
using ExternImpl = std::function<Value(std::span<const Value>)>;

/// Role of an external function, used for validation and (optionally) for
/// monotonicity checking.
enum class FnRole {
  Transfer, ///< monotone, strict; allowed only in the head's last term
  Filter,   ///< monotone into Bool; allowed in rule bodies
  Binder,   ///< returns a Set whose elements are bound by `<-`
};

struct ExternFn {
  std::string Name;
  unsigned Arity = 0;
  FnRole Role = FnRole::Transfer;
  ExternImpl Impl;
  /// Bytecode-VM implementation of the same pure function (src/vm),
  /// attached by the FLIX compiler when lowering succeeded. Engines
  /// dispatch to it when SolverOptions::UseVm is set and it is present;
  /// Impl stays authoritative (and is the differential oracle).
  ExternImpl VmImpl;
  /// True for interpreted FLIX functions whose bytecode compilation
  /// failed: dispatching them with UseVm on counts as an
  /// InterpFallback in SolveStats. Native (C++) externs leave this
  /// false — falling back to them is not a fallback at all.
  bool InterpOnly = false;
};

/// A term: a rule-local variable or a constant value.
struct Term {
  enum KindTy : uint8_t { Var, Const } Kind = Const;
  VarId Variable = 0;
  Value Constant;

  static Term var(VarId V) {
    Term T;
    T.Kind = Var;
    T.Variable = V;
    return T;
  }
  static Term constant(Value V) {
    Term T;
    T.Kind = Const;
    T.Constant = V;
    return T;
  }
  bool isVar() const { return Kind == Var; }
};

/// A body atom `p(t1, ..., tn)`, possibly negated (relational atoms only).
struct BodyAtom {
  PredId Pred = 0;
  SmallVector<Term, 4> Terms;
  bool Negated = false;
};

/// A filter application `f(t1, ..., tn)` in a rule body. The function must
/// be monotone over the booleans (§3.3).
struct BodyFilter {
  FnId Fn = 0;
  SmallVector<Term, 4> Args;
};

/// A binder `pat <- f(t1, ..., tn)` in a rule body (the arrow syntax of
/// Figure 5). The function returns a set; for each element, the pattern
/// variables are bound (a single variable binds the element itself; k > 1
/// variables destructure a k-tuple element).
struct BodyBinder {
  SmallVector<VarId, 2> Pattern;
  FnId Fn = 0;
  SmallVector<Term, 4> Args;
};

using BodyElem = std::variant<BodyAtom, BodyFilter, BodyBinder>;

/// The head of a rule: `p(t1, ..., t(n-1), last)` where `last` is either a
/// plain term or a transfer-function application `f(args...)` (§3.3 allows
/// function applications only in the last term of the head). The split is
/// uniform for rel and lat predicates: KeyTerms holds the first Arity-1
/// terms and LastTerm/LastFn the final column.
struct HeadAtom {
  PredId Pred = 0;
  SmallVector<Term, 4> KeyTerms; ///< the first Arity-1 terms
  /// Last column: either LastTerm (when LastFn is empty) or LastFn(FnArgs).
  std::optional<FnId> LastFn;
  Term LastTerm;
  SmallVector<Term, 4> FnArgs;
};

/// One rule `H :- B1, ..., Bn.`; variables are rule-local, numbered
/// 0..NumVars-1.
struct Rule {
  HeadAtom Head;
  std::vector<BodyElem> Body;
  uint32_t NumVars = 0;
  std::vector<std::string> VarNames; ///< for diagnostics; index = VarId
  SourceLoc Loc;
};

/// A ground fact: key values plus lattice value (Bool true for relations).
struct Fact {
  PredId Pred = 0;
  SmallVector<Value, 4> Key;
  Value LatValue;
};

/// A complete fixpoint program: declarations, functions, rules and facts.
/// Tied to the ValueFactory that produced its constant Values.
class Program {
public:
  explicit Program(ValueFactory &Factory) : Factory(Factory) {}
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;
  Program(Program &&) = default;

  /// Declares a relation (powerset predicate) of the given arity.
  PredId relation(std::string Name, unsigned Arity);

  /// Declares a lattice predicate; the last of \p Arity columns holds an
  /// element of \p L.
  PredId lattice(std::string Name, unsigned Arity, const Lattice *L);

  /// Registers an external function.
  FnId function(std::string Name, unsigned Arity, FnRole Role,
                ExternImpl Impl);

  /// Attaches the bytecode-VM implementation of function \p Fn; a null
  /// \p Impl instead marks the function interpreter-only (its VM
  /// compilation failed), which UseVm runs report as InterpFallbacks.
  void setVmImpl(FnId Fn, ExternImpl Impl) {
    if (Impl) {
      Fns[Fn].VmImpl = std::move(Impl);
      Fns[Fn].InterpOnly = false;
    } else {
      Fns[Fn].InterpOnly = true;
    }
  }

  /// Installs the provider of the VM's cumulative inline-cache hit
  /// count. Solvers snapshot it around a run to report the per-solve
  /// delta in SolveStats::VmInlineCacheHits.
  void setVmIcHitCounter(std::function<uint64_t()> Fn) {
    VmIcHits = std::move(Fn);
  }
  /// Cumulative VM inline-cache hits, or 0 when no VM is attached.
  uint64_t vmIcHits() const { return VmIcHits ? VmIcHits() : 0; }

  /// Adds a finished rule. Asserts basic well-formedness (arities, var
  /// ranges); full validation happens in validate().
  void addRule(Rule R);

  /// Adds a relational fact p(v1, ..., vn).
  void addFact(PredId P, std::span<const Value> Tuple);
  void addFact(PredId P, std::initializer_list<Value> Tuple) {
    addFact(P, std::span<const Value>(Tuple.begin(), Tuple.size()));
  }

  /// Adds a lattice fact p(v1, ..., v(n-1), LatVal).
  void addLatFact(PredId P, std::span<const Value> Key, Value LatVal);

  /// Registers an index hint: build the secondary index over the key
  /// columns in \p Mask (bit i = key column i) eagerly at solver start.
  void addIndexHint(PredId P, uint64_t Mask);
  void addLatFact(PredId P, std::initializer_list<Value> Key, Value LatVal) {
    addLatFact(P, std::span<const Value>(Key.begin(), Key.size()), LatVal);
  }

  /// Checks rule well-formedness: arity agreement, left-to-right
  /// boundedness of filter/binder arguments and of head variables, negated
  /// atoms only on relations, transfer/filter/binder role agreement.
  /// Returns an error description, or nullopt if the program is valid.
  std::optional<std::string> validate() const;

  const std::vector<PredicateDecl> &predicates() const { return Preds; }
  const PredicateDecl &predicate(PredId P) const { return Preds[P]; }
  const std::vector<ExternFn> &functions() const { return Fns; }
  const ExternFn &functionDecl(FnId F) const { return Fns[F]; }
  const std::vector<Rule> &rules() const { return Rules; }
  const std::vector<Fact> &facts() const { return Facts; }
  const std::vector<std::pair<PredId, uint64_t>> &indexHints() const {
    return IndexHints;
  }
  ValueFactory &factory() const { return Factory; }

  /// Looks up a predicate by name; returns nullopt if absent.
  std::optional<PredId> findPredicate(std::string_view Name) const;

  /// Renders the program as FLIX-like source, for debugging and tests.
  std::string dump() const;

private:
  ValueFactory &Factory;
  std::vector<PredicateDecl> Preds;
  std::vector<ExternFn> Fns;
  std::vector<Rule> Rules;
  std::vector<Fact> Facts;
  std::vector<std::pair<PredId, uint64_t>> IndexHints;
  std::function<uint64_t()> VmIcHits;
};

/// Convenience builder for rules in the C++ API. Variables are referred to
/// by name and mapped to dense VarIds when the rule is finished.
///
/// \code
///   RuleBuilder(B).head(VPT, {rv("v"), rv("h")})
///       .atom(New, {rv("v"), rv("h")})
///       .addTo(Prog);
/// \endcode
class RuleBuilder {
public:
  /// A named variable or a constant, as written in the builder API.
  struct Spec {
    // Implicit conversions make rule literals read naturally.
    Spec(Value V) : IsVar(false), Constant(V) {}
    Spec(std::string VarName) : IsVar(true), Name(std::move(VarName)) {}
    Spec(const char *VarName) : IsVar(true), Name(VarName) {}

    bool IsVar;
    std::string Name;
    Value Constant;
  };

  RuleBuilder() = default;

  /// Sets the head `P(keys..., last)` with a plain last term.
  RuleBuilder &head(PredId P, std::vector<Spec> Terms);

  /// Sets the head `P(keys..., Fn(args...))` with a transfer function
  /// computing the last column.
  RuleBuilder &headFn(PredId P, std::vector<Spec> KeyTerms, FnId Fn,
                      std::vector<Spec> FnArgs);

  /// Appends a positive body atom.
  RuleBuilder &atom(PredId P, std::vector<Spec> Terms);

  /// Appends a negated body atom (relational predicates only).
  RuleBuilder &negated(PredId P, std::vector<Spec> Terms);

  /// Appends a filter `Fn(args...)`.
  RuleBuilder &filter(FnId Fn, std::vector<Spec> Args);

  /// Appends a binder `(pattern...) <- Fn(args...)`.
  RuleBuilder &bind(std::vector<std::string> Pattern, FnId Fn,
                    std::vector<Spec> Args);

  /// Finishes the rule and adds it to \p P.
  void addTo(Program &P);

  /// Finishes and returns the rule without adding it.
  Rule build();

private:
  Term resolve(const Spec &S);
  VarId resolveVar(const std::string &Name);

  Rule R;
  std::vector<std::string> VarNames;
};

/// Shorthand for a rule variable in builder literals, to disambiguate from
/// string constants: `rv("x")` is the variable x, `F.string("x")` the
/// constant "x".
inline RuleBuilder::Spec rv(std::string Name) {
  return RuleBuilder::Spec(std::move(Name));
}

} // namespace flix

#endif // FLIX_FIXPOINT_PROGRAM_H
