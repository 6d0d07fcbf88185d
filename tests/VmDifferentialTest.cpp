//===- tests/VmDifferentialTest.cpp - bytecode VM vs. interpreter --------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential gates for the bytecode VM (DESIGN.md S15). Two layers:
///
///  * Randomized engine identity: seeded random functional modules
///    (workload/RandomExpr.h) compiled once, then every def is called on
///    both engines with random argument vectors. Values must be handle-
///    identical; when a call faults (division/remainder by zero, missed
///    match case, call-depth overflow) both engines must fault with the
///    exact same message.
///
///  * Suite matrix: the three paper case-study workloads solved with
///    UseVm {off, on} x NumThreads {0, 1, 8} (x EnableMemo on the
///    FLIX-source pipeline) must produce identical models. On the source
///    pipeline the VM must fully cover the program: InterpFallbacks == 0
///    and every extern dispatch runs on the VM.
///
/// The test names are wired into the CI TSan/ASan --gtest_filter lists,
/// so the 8-thread configurations run under both sanitizers.
///
//===----------------------------------------------------------------------===//

#include "analyses/Ifds.h"
#include "analyses/ShortestPaths.h"
#include "analyses/StrongUpdate.h"
#include "lang/Compiler.h"
#include "workload/GraphWorkload.h"
#include "workload/IcfgWorkload.h"
#include "workload/PointerWorkload.h"
#include "workload/RandomExpr.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace flix;

namespace {

/// Deterministic argument-vector RNG (mirrors RandomExpr.cpp's xorshift
/// so failures reproduce across platforms).
struct ArgRng {
  uint64_t S;
  explicit ArgRng(uint64_t Seed) : S(Seed ? Seed : 1) {}
  uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545f4914f6cdd1dull;
  }
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }
};

Value randomArg(ValueFactory &F, ArgRng &R, RandomExprType T) {
  switch (T) {
  case RandomExprType::Int:
    // Small values keep division-by-zero reachable.
    return F.integer(static_cast<int64_t>(R.below(7)) - 2);
  case RandomExprType::Bool:
    return F.boolean(R.below(2) != 0);
  case RandomExprType::Shape:
    switch (R.below(3)) {
    case 0:
      return F.tag("Shape.Dot");
    case 1:
      return F.tag("Shape.Box", F.integer(static_cast<int64_t>(R.below(5))));
    default:
      return F.tag("Shape.Pair",
                   F.tuple({F.integer(static_cast<int64_t>(R.below(5))),
                            F.boolean(R.below(2) != 0)}));
    }
  }
  return F.unit();
}

/// Calls \p Fn on both engines with the same arguments and asserts
/// identical outcome: same value, or same fault message. Increments
/// \p FaultCount when both engines faulted.
void checkCall(FlixCompiler &C, const RandomExprFn &Fn, uint32_t VmIx,
               std::span<const Value> Args, const std::string &Ctx,
               int &FaultCount) {
  Interp &I = C.interp();

  I.clearError();
  Value FromInterp = I.call(Fn.Name, Args);
  bool InterpFaulted = I.hasError();
  std::string InterpMsg = I.error();

  I.clearError();
  Value FromVm = C.vm()->call(VmIx, Args);
  bool VmFaulted = I.hasError(); // the VM reports faults into the Interp
  std::string VmMsg = I.error();
  I.clearError();

  ASSERT_EQ(InterpFaulted, VmFaulted)
      << Ctx << ": interp=" << (InterpFaulted ? InterpMsg : "ok")
      << " vm=" << (VmFaulted ? VmMsg : "ok");
  if (InterpFaulted) {
    // Fault identity is exact, message and all: the VM must surface the
    // same first fault the interpreter does.
    EXPECT_EQ(InterpMsg, VmMsg) << Ctx;
    ++FaultCount;
  } else {
    // Values are hash-consed, so handle equality is structural equality.
    EXPECT_EQ(FromInterp, FromVm) << Ctx << ": interp=" << Fn.Name;
  }
}

TEST(VmDifferentialTest, RandomExprEngineIdentity) {
  int FaultCount = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    RandomExprModule M = generateRandomExprModule(Seed, 6, 4);
    ValueFactory F;
    FlixCompiler C(F);
    ASSERT_TRUE(C.compile(M.Source, "random-expr.flix"))
        << "seed " << Seed << ":\n"
        << C.diagnostics() << "\n"
        << M.Source;
    ASSERT_NE(C.vm(), nullptr);
    ArgRng R(Seed * 0x9e3779b97f4a7c15ull);
    for (const RandomExprFn &Fn : M.Fns) {
      std::optional<uint32_t> Ix = C.vmFunctionIndex(Fn.Name);
      // The generated grammar stays inside the compilable fragment, so a
      // missing VM body is a compiler bug, not an acceptable fallback.
      ASSERT_TRUE(Ix.has_value()) << "seed " << Seed << " fn " << Fn.Name;
      for (int Trial = 0; Trial < 8; ++Trial) {
        std::vector<Value> Args;
        for (RandomExprType T : Fn.Params)
          Args.push_back(randomArg(F, R, T));
        std::string Ctx = "seed " + std::to_string(Seed) + " fn " + Fn.Name +
                          " trial " + std::to_string(Trial);
        checkCall(C, Fn, *Ix, Args, Ctx, FaultCount);
        if (::testing::Test::HasFatalFailure())
          return;
      }
    }
  }
  // The grammar includes /, % and non-exhaustive matches precisely so the
  // fault path is exercised — a zero here means the generator regressed
  // into the happy path only.
  EXPECT_GT(FaultCount, 0);
}

TEST(VmDifferentialTest, DepthOverflowDiagnosticIdentity) {
  ValueFactory F;
  FlixCompiler C(F);
  ASSERT_TRUE(C.compile("def loop(x: Int): Int = loop(x + 1)\n",
                        "overflow.flix"))
      << C.diagnostics();
  std::optional<uint32_t> Ix = C.vmFunctionIndex("loop");
  ASSERT_TRUE(Ix.has_value());
  Value A[1] = {F.integer(0)};

  Interp &I = C.interp();
  I.clearError();
  I.call("loop", A);
  ASSERT_TRUE(I.hasError());
  std::string InterpMsg = I.error();

  I.clearError();
  C.vm()->call(*Ix, A);
  ASSERT_TRUE(I.hasError());
  std::string VmMsg = I.error();

  // Identical diagnostic, function name and source span included.
  EXPECT_EQ(InterpMsg, VmMsg);
  EXPECT_NE(InterpMsg.find("call depth exceeded in 'loop'"),
            std::string::npos)
      << InterpMsg;
  EXPECT_NE(InterpMsg.find("overflow.flix:1:"), std::string::npos)
      << InterpMsg;
}

TEST(VmDifferentialTest, RecursionAndDepthOverflowIdentity) {
  // Self-recursion and a long straight-line callee body must compute the
  // interpreter's values, and a call-depth overflow that unwinds through
  // mutual recursion must carry the interpreter's diagnostic.
  {
    ValueFactory F;
    FlixCompiler C(F);
    ASSERT_TRUE(C.compile("def down(x: Int): Int = "
                          "(if (x <= 0) 0 else (down(x - 1) + 1))\n"
                          "def use(y: Int): Int = down(y) + down(y - 1)\n",
                          "rec.flix"))
        << C.diagnostics();
    std::optional<uint32_t> Ix = C.vmFunctionIndex("use");
    ASSERT_TRUE(Ix.has_value());
    Value A[1] = {F.integer(9)};
    EXPECT_EQ(C.vm()->call(*Ix, A), C.interp().call("use", A));
    EXPECT_FALSE(C.interp().hasError());
  }
  {
    // 80 chained additions of the parameter: a long callee body whose
    // every instruction depends on the argument.
    std::string Big = "def big(x: Int): Int = x";
    for (int I = 0; I < 80; ++I)
      Big += " + x";
    Big += "\ndef use(y: Int): Int = big(y) + 1\n";
    ValueFactory F;
    FlixCompiler C(F);
    ASSERT_TRUE(C.compile(Big, "big.flix")) << C.diagnostics();
    std::optional<uint32_t> Ix = C.vmFunctionIndex("use");
    ASSERT_TRUE(Ix.has_value());
    Value A[1] = {F.integer(3)};
    EXPECT_EQ(C.vm()->call(*Ix, A), C.interp().call("use", A));
    EXPECT_FALSE(C.interp().hasError());
  }
  {
    // ping/pong recurse forever through the helper bump; the overflow
    // must fault with a diagnostic identical to the interpreter's.
    ValueFactory F;
    FlixCompiler C(F);
    ASSERT_TRUE(C.compile("def bump(x: Int): Int = x - 1\n"
                          "def ping(x: Int): Int = pong(bump(x))\n"
                          "def pong(x: Int): Int = ping(bump(x))\n",
                          "mutual.flix"))
        << C.diagnostics();
    std::optional<uint32_t> Ix = C.vmFunctionIndex("ping");
    ASSERT_TRUE(Ix.has_value());
    Value A[1] = {F.integer(0)};

    Interp &I = C.interp();
    I.clearError();
    I.call("ping", A);
    ASSERT_TRUE(I.hasError());
    std::string InterpMsg = I.error();

    I.clearError();
    C.vm()->call(*Ix, A);
    ASSERT_TRUE(I.hasError());
    std::string VmMsg = I.error();
    I.clearError();

    EXPECT_EQ(InterpMsg, VmMsg);
    EXPECT_NE(InterpMsg.find("call depth exceeded"), std::string::npos)
        << InterpMsg;
  }
}

std::string describe(const SolverOptions &O) {
  return "vm=" + std::to_string(O.UseVm) +
         " memo=" + std::to_string(O.EnableMemo) +
         " threads=" + std::to_string(O.NumThreads);
}

/// UseVm {off, on} x NumThreads {0, 1, 8}.
std::vector<SolverOptions> engineMatrix() {
  std::vector<SolverOptions> Out;
  for (bool Vm : {false, true})
    for (unsigned Threads : {0u, 1u, 8u}) {
      SolverOptions O;
      O.UseVm = Vm;
      O.NumThreads = Threads;
      Out.push_back(O);
    }
  return Out;
}

SolverOptions interpBaseline() {
  SolverOptions O;
  O.UseVm = false;
  return O;
}

TEST(VmDifferentialTest, ShortestPathsEngineMatrix) {
  WeightedGraph G = generateGraph(11, 150, 4.0, 12);
  SsspResult Base = runShortestPathsFlix(G, 0, interpBaseline());
  ASSERT_TRUE(Base.Ok);
  EXPECT_EQ(Base.Dist, runDijkstra(G, 0).Dist);
  for (const SolverOptions &O : engineMatrix()) {
    SsspResult R = runShortestPathsFlix(G, 0, O);
    ASSERT_TRUE(R.Ok) << describe(O);
    EXPECT_EQ(R.Dist, Base.Dist) << describe(O);
  }
}

TEST(VmDifferentialTest, IfdsEngineMatrix) {
  IcfgProgram G = generateIcfg(5, 10, 32, 90, 3);
  IfdsProblem Prob = G.toIfdsProblem();
  IfdsResult Base = runIfdsFlix(Prob, interpBaseline());
  ASSERT_TRUE(Base.Ok) << Base.Error;
  EXPECT_TRUE(Base.sameResult(runIfdsImperative(Prob)));
  for (const SolverOptions &O : engineMatrix()) {
    IfdsResult R = runIfdsFlix(Prob, O);
    ASSERT_TRUE(R.Ok) << describe(O) << ": " << R.Error;
    EXPECT_TRUE(R.sameResult(Base)) << describe(O);
    // Native externs are not interpreter fallbacks in either engine mode.
    EXPECT_EQ(R.Stats.InterpFallbacks, 0u) << describe(O);
  }
}

TEST(VmDifferentialTest, StrongUpdateSourceEngineMatrix) {
  // The FLIX-source pipeline: every lattice operation and filter extern
  // is compiled bytecode when UseVm is on, an interpreter call when off.
  PointerProgram In = generatePointerProgram(13, 300);
  StrongUpdateResult Base = runStrongUpdateFlixSource(In, interpBaseline());
  ASSERT_TRUE(Base.ok()) << Base.Error;
  // Anchor against the native-lattice implementation too.
  StrongUpdateResult Native = runStrongUpdateFlix(In, interpBaseline());
  ASSERT_TRUE(Native.ok()) << Native.Error;
  EXPECT_TRUE(Base.samePointsTo(Native));
  for (bool Memo : {false, true})
    for (const SolverOptions &Engine : engineMatrix()) {
      SolverOptions O = Engine;
      O.EnableMemo = Memo;
      StrongUpdateResult R = runStrongUpdateFlixSource(In, O);
      ASSERT_TRUE(R.ok()) << describe(O) << ": " << R.Error;
      EXPECT_TRUE(R.samePointsTo(Base)) << describe(O);
      // The VM must cover the whole program — any interpreter fallback
      // on the standard suites is a compiler regression.
      EXPECT_EQ(R.Stats.InterpFallbacks, 0u) << describe(O);
      if (O.UseVm)
        EXPECT_GT(R.Stats.VmCalls, 0u) << describe(O);
      else
        EXPECT_EQ(R.Stats.VmCalls, 0u) << describe(O);
    }
}

} // namespace
