//===- workload/RandomExpr.cpp - Random functional FLIX modules ----------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "workload/RandomExpr.h"

namespace flix {
namespace {

using Type = RandomExprType;

/// xorshift64*: deterministic across platforms, unlike <random>
/// distributions.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed ? Seed : 0x9e3779b97f4a7c15ull) {}
  uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545f4914f6cdd1dull;
  }
  /// Uniform in [0, N).
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }
  bool chance(uint32_t Percent) { return below(100) < Percent; }
};

struct Var {
  std::string Name;
  Type T;
};

class Gen {
public:
  Gen(uint64_t Seed, int MaxDepth) : R(Seed), MaxDepth(MaxDepth) {}

  RandomExprModule run(int NumFns) {
    RandomExprModule M;
    M.Source = "enum Shape { case Dot, case Box(Int), "
               "case Pair((Int, Bool)) }\n\n";
    emitHelpers(M);
    emitRecursive(M);
    emitChain(M);
    for (int I = 0; I < NumFns; ++I) {
      RandomExprFn Fn;
      Fn.Name = "f" + std::to_string(I);
      int NumParams = 1 + R.below(3);
      Env.clear();
      std::string Sig;
      for (int P = 0; P < NumParams; ++P) {
        Type T = anyType();
        std::string Name = "p" + std::to_string(P);
        Fn.Params.push_back(T);
        Env.push_back({Name, T});
        if (P)
          Sig += ", ";
        Sig += Name + ": " + typeName(T);
      }
      Fn.Ret = anyType();
      M.Source += "def " + Fn.Name + "(" + Sig +
                  "): " + typeName(Fn.Ret) + " =\n  " +
                  gen(Fn.Ret, MaxDepth) + "\n\n";
      M.Fns.push_back(std::move(Fn));
      Done.push_back(M.Fns.back());
    }
    return M;
  }

private:
  /// Appends a finished Int→Int def to the module and makes it callable
  /// from every later body (pickFn draws from Done).
  void addIntDef(RandomExprModule &M, const std::string &Name,
                 const std::string &Body) {
    RandomExprFn Fn;
    Fn.Name = Name;
    Fn.Params.push_back(Type::Int);
    Fn.Ret = Type::Int;
    M.Source += "def " + Name + "(p0: Int): Int =\n  " + Body + "\n\n";
    M.Fns.push_back(Fn);
    Done.push_back(std::move(Fn));
  }

  /// Small single-parameter helpers (r0..r3). Each body is one
  /// compare-against-literal branch — the canonical CmpXxImm +
  /// JumpIfFalse pair — and every random def may call them.
  void emitHelpers(RandomExprModule &M) {
    static const char *const Cmps[] = {"<", "<=", ">", ">=", "==", "!="};
    for (int H = 0; H < 4; ++H) {
      std::string Body = "(if (p0 " + std::string(Cmps[R.below(6)]) + " " +
                         std::to_string(static_cast<int>(R.below(5))) +
                         ") (p0 + " +
                         std::to_string(1 + static_cast<int>(R.below(3))) +
                         ") else (p0 - " +
                         std::to_string(1 + static_cast<int>(R.below(3))) +
                         "))";
      addIntDef(M, "r" + std::to_string(H), Body);
    }
  }

  /// One controlled self-recursive def, terminating on the small
  /// argument magnitudes the grammar produces. Calls that do run deep
  /// exercise the call-depth diagnostic on both engines identically.
  void emitRecursive(RandomExprModule &M) {
    addIntDef(M, "rec0", "(if (p0 <= 0) 0 else (rec0(p0 - 1) + 1))");
  }

  /// A deep non-recursive call chain c0 → c1 → ... → c7: calling the
  /// last link traverses eight frames, and the differential harness
  /// checks identity through every one of them.
  void emitChain(RandomExprModule &M) {
    addIntDef(M, "c0", "(if (p0 <= 0) 0 else (p0 + 1))");
    for (int K = 1; K < 8; ++K)
      addIntDef(M, "c" + std::to_string(K),
                "(c" + std::to_string(K - 1) + "((p0 % 5) - 1) + r" +
                    std::to_string(K % 4) + "(p0))");
  }

  static const char *typeName(Type T) {
    switch (T) {
    case Type::Int:
      return "Int";
    case Type::Bool:
      return "Bool";
    case Type::Shape:
      return "Shape";
    }
    return "Int";
  }

  Type anyType() { return static_cast<Type>(R.below(3)); }

  std::string fresh() { return "v" + std::to_string(NextVar++); }

  /// A variable of type T from the environment, if any.
  const Var *pickVar(Type T) {
    uint32_t N = 0;
    for (const Var &V : Env)
      N += V.T == T;
    if (!N)
      return nullptr;
    uint32_t K = R.below(N);
    for (const Var &V : Env)
      if (V.T == T && !K--)
        return &V;
    return nullptr;
  }

  /// An earlier def returning T, if any (backwards calls only — never
  /// recursive).
  const RandomExprFn *pickFn(Type T) {
    uint32_t N = 0;
    for (const RandomExprFn &F : Done)
      N += F.Ret == T;
    if (!N)
      return nullptr;
    uint32_t K = R.below(N);
    for (const RandomExprFn &F : Done)
      if (F.Ret == T && !K--)
        return &F;
    return nullptr;
  }

  std::string leaf(Type T) {
    switch (T) {
    case Type::Int:
      if (const Var *V = R.chance(50) ? pickVar(T) : nullptr)
        return V->Name;
      // Small magnitudes so arithmetic chains stay far from overflow,
      // but 0 stays frequent enough to hit / and % faults.
      return std::to_string(static_cast<int>(R.below(5)));
    case Type::Bool:
      if (const Var *V = R.chance(50) ? pickVar(T) : nullptr)
        return V->Name;
      return R.chance(50) ? "true" : "false";
    case Type::Shape:
      if (const Var *V = R.chance(50) ? pickVar(T) : nullptr)
        return V->Name;
      switch (R.below(3)) {
      case 0:
        return "Shape.Dot";
      case 1:
        return "Shape.Box(" + leaf(Type::Int) + ")";
      default:
        return "Shape.Pair((" + leaf(Type::Int) + ", " + leaf(Type::Bool) +
               "))";
      }
    }
    return "0";
  }

  std::string call(const RandomExprFn &F, int D) {
    std::string Out = F.Name + "(";
    for (size_t I = 0; I < F.Params.size(); ++I) {
      if (I)
        Out += ", ";
      Out += gen(F.Params[I], D - 1);
    }
    return Out + ")";
  }

  std::string genLet(Type T, int D) {
    Type VT = anyType();
    std::string Name = fresh();
    std::string Init = gen(VT, D - 1);
    Env.push_back({Name, VT});
    std::string Body = gen(T, D - 1);
    Env.pop_back();
    return "(let " + Name + " = " + Init + "; " + Body + ")";
  }

  std::string genIf(Type T, int D) {
    return "(if (" + gen(Type::Bool, D - 1) + ") " + gen(T, D - 1) +
           " else " + gen(T, D - 1) + ")";
  }

  /// Match over a Shape scrutinee: tag cases with payload patterns, a
  /// wildcard arm most of the time (dropping it exercises the engines'
  /// identical "no case matched" fault).
  std::string genMatchShape(Type T, int D) {
    std::string Out = "(match " + gen(Type::Shape, D - 1) + " with {";
    Out += " case Shape.Dot => " + gen(T, D - 1);
    if (R.chance(80)) {
      std::string V = fresh();
      Env.push_back({V, Type::Int});
      Out += " case Shape.Box(" + V + ") => " + gen(T, D - 1);
      Env.pop_back();
    }
    if (R.chance(80)) {
      std::string A = fresh(), B = fresh();
      Env.push_back({A, Type::Int});
      Env.push_back({B, Type::Bool});
      Out += " case Shape.Pair((" + A + ", " + B + ")) => " + gen(T, D - 1);
      Env.pop_back();
      Env.pop_back();
    }
    if (R.chance(85))
      Out += " case _ => " + gen(T, D - 1);
    return Out + " })";
  }

  /// Match over an Int scrutinee with literal cases; sometimes
  /// non-exhaustive on purpose.
  std::string genMatchInt(Type T, int D) {
    std::string Out = "(match " + gen(Type::Int, D - 1) + " with {";
    int Cases = 1 + R.below(3);
    for (int I = 0; I < Cases; ++I)
      Out += " case " + std::to_string(R.below(5)) + " => " + gen(T, D - 1);
    if (R.chance(70)) {
      if (R.chance(50)) {
        std::string V = fresh();
        Env.push_back({V, Type::Int});
        Out += " case " + V + " => " + gen(T, D - 1);
        Env.pop_back();
      } else {
        Out += " case _ => " + gen(T, D - 1);
      }
    }
    return Out + " })";
  }

  /// Match over a fresh 2-tuple, destructured by a tuple pattern.
  std::string genMatchTuple(Type T, int D) {
    std::string A = fresh(), B = fresh();
    std::string Out = "(match (" + gen(Type::Int, D - 1) + ", " +
                      gen(Type::Bool, D - 1) + ") with { case (" + A + ", " +
                      B + ") => ";
    Env.push_back({A, Type::Int});
    Env.push_back({B, Type::Bool});
    Out += gen(T, D - 1);
    Env.pop_back();
    Env.pop_back();
    return Out + " })";
  }

  std::string genInt(int D) {
    switch (R.below(10)) {
    case 0:
    case 1:
    case 2: {
      static const char *const Ops[] = {"+", "-", "*", "/", "%"};
      const char *Op = Ops[R.below(5)];
      return "(" + gen(Type::Int, D - 1) + " " + Op + " " +
             gen(Type::Int, D - 1) + ")";
    }
    case 3:
      return "(-(" + gen(Type::Int, D - 1) + "))";
    case 4:
      return genIf(Type::Int, D);
    case 5:
      return genLet(Type::Int, D);
    case 6:
      return genMatchShape(Type::Int, D);
    case 7:
      return R.chance(50) ? genMatchInt(Type::Int, D)
                          : genMatchTuple(Type::Int, D);
    default:
      if (const RandomExprFn *F = pickFn(Type::Int))
        return call(*F, D);
      return leaf(Type::Int);
    }
  }

  std::string genBool(int D) {
    switch (R.below(10)) {
    case 0:
    case 1: {
      static const char *const Ops[] = {"==", "!=", "<", "<=", ">", ">="};
      const char *Op = Ops[R.below(6)];
      return "(" + gen(Type::Int, D - 1) + " " + Op + " " +
             gen(Type::Int, D - 1) + ")";
    }
    case 2:
      // Handle equality on tags/tuples — both engines compare interned
      // handles.
      return "(" + gen(Type::Shape, D - 1) +
             (R.chance(50) ? " == " : " != ") + gen(Type::Shape, D - 1) +
             ")";
    case 3:
      return "(" + gen(Type::Bool, D - 1) +
             (R.chance(50) ? " && " : " || ") + gen(Type::Bool, D - 1) + ")";
    case 4:
      return "(!(" + gen(Type::Bool, D - 1) + "))";
    case 5:
      return genIf(Type::Bool, D);
    case 6:
      return genLet(Type::Bool, D);
    case 7:
      return genMatchShape(Type::Bool, D);
    default:
      if (const RandomExprFn *F = pickFn(Type::Bool))
        return call(*F, D);
      return leaf(Type::Bool);
    }
  }

  std::string genShape(int D) {
    switch (R.below(8)) {
    case 0:
      return "Shape.Box(" + gen(Type::Int, D - 1) + ")";
    case 1:
      return "Shape.Pair((" + gen(Type::Int, D - 1) + ", " +
             gen(Type::Bool, D - 1) + "))";
    case 2:
      return genIf(Type::Shape, D);
    case 3:
      return genLet(Type::Shape, D);
    case 4:
      return genMatchShape(Type::Shape, D);
    default:
      if (const RandomExprFn *F = pickFn(Type::Shape))
        return call(*F, D);
      return leaf(Type::Shape);
    }
  }

  std::string gen(Type T, int D) {
    if (D <= 0)
      return leaf(T);
    switch (T) {
    case Type::Int:
      return genInt(D);
    case Type::Bool:
      return genBool(D);
    case Type::Shape:
      return genShape(D);
    }
    return leaf(T);
  }

  Rng R;
  int MaxDepth;
  int NextVar = 0;
  std::vector<Var> Env;
  std::vector<RandomExprFn> Done;
};

} // namespace

RandomExprModule generateRandomExprModule(uint64_t Seed, int NumFns,
                                          int MaxDepth) {
  return Gen(Seed, MaxDepth).run(NumFns);
}

} // namespace flix
