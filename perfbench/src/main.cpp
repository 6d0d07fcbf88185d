//===- perfbench/src/main.cpp - Repository benchmark binary ---------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// Runs one workload of the repository benchmark in this process and
// prints two lines: the run record (build, machine, seed, sample counts),
// then the result object {"correct", "attempted", "failed", "metrics"}
// holding the workload's end-to-end metrics (--trace 0) or its per-layer
// metrics (--trace 1). perfbench/run.py builds and calls it, and checks
// the metrics against those BENCHMARK.json declares:
//
//   flix_perfbench --workload W --seed N --seconds S --trace 0|1
//                  [--tiny] [--spans FILE]
//
// --tiny runs a small instance for the correctness self-test and turns
// any failed operation into exit status 1.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "vm/Vm.h"

#include <cerrno>
#include <cmath>
#include <thread>

using namespace perfbench;

namespace {

#ifdef __OPTIMIZE__
constexpr bool Optimized = true;
#else
constexpr bool Optimized = false;
#endif

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += static_cast<unsigned char>(C) < 0x20 ? ' ' : C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

int usage(const std::string &Why) {
  std::fprintf(stderr,
               "flix_perfbench: %s\n"
               "usage: flix_perfbench --workload "
               "ifds_trivial|su_source_par2|serve_churn --seed N "
               "--seconds S --trace 0|1 [--tiny] [--spans FILE]\n",
               Why.c_str());
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (!Optimized) {
    std::fprintf(stderr,
                 "flix_perfbench: refusing to measure a build without "
                 "optimization (build type '%s')\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  RunConfig C;
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--tiny") {
      C.Tiny = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage("missing value for " + A);
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      C.Workload = V;
    } else if (A == "--seed") {
      errno = 0;
      C.Seed = std::strtoull(V, &End, 10);
      if (errno || *End || End == V || *V == '-')
        return usage("--seed wants a non-negative integer");
      HaveSeed = true;
    } else if (A == "--seconds") {
      C.Seconds = std::strtod(V, &End);
      if (*End || End == V || !(C.Seconds > 0) || C.Seconds > 3600)
        return usage("--seconds wants a number in (0, 3600]");
      HaveSeconds = true;
    } else if (A == "--trace") {
      if (std::string(V) != "0" && std::string(V) != "1")
        return usage("--trace wants 0 or 1");
      C.Trace = V[0] == '1';
    } else if (A == "--spans") {
      C.SpansPath = V;
    } else {
      return usage("unknown argument " + A);
    }
  }
  if (!HaveSeed || !HaveSeconds)
    return usage("--seed and --seconds are required");

  Result (*Run)(const RunConfig &) = nullptr;
  if (C.Workload == "ifds_trivial")
    Run = runIfdsTrivial;
  else if (C.Workload == "su_source_par2")
    Run = runSuSourcePar2;
  else if (C.Workload == "serve_churn")
    Run = runServeChurn;
  else
    return usage("unknown workload '" + C.Workload + "'");

  Result R = Run(C);

  // run.py checks the metrics against BENCHMARK.json, the one place that
  // declares them, and orders them as it does.
  const std::vector<Result::Metric> &Out = R.Metrics;

  std::string Rec =
      "{\"record\": {\"workload\": " + jsonString(C.Workload) +
      ", \"seed\": " + std::to_string(C.Seed) +
      ", \"seconds\": " + jsonNumber(C.Seconds) +
      ", \"trace\": " + (C.Trace ? "1" : "0") +
      ", \"tiny\": " + (C.Tiny ? "true" : "false") +
      ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
      ", \"hardware_threads\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"vm_threaded_dispatch\": " +
      (flix::vm::Vm::threadedDispatch() ? "true" : "false");
  for (const auto &[K, V] : R.Record)
    Rec += ", " + jsonString(K) + ": " + jsonString(V);
  Rec += ", \"samples\": {";
  for (size_t I = 0; I < Out.size(); ++I)
    Rec += (I ? ", " : "") + jsonString(Out[I].Name) + ": " +
           std::to_string(Out[I].Samples);
  Rec += "}, \"failures\": [";
  for (size_t I = 0; I < R.Failures.size(); ++I)
    Rec += (I ? ", " : "") + jsonString(R.Failures[I]);
  Rec += "]}}";
  std::printf("%s\n", Rec.c_str());

  bool Correct = R.Failed == 0 && R.Attempted > 0;
  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I)
    Line += (I ? ", " : "") + jsonString(Out[I].Name) +
            ": {\"value\": " + jsonNumber(Out[I].Value) +
            ", \"unit\": " + jsonString(Out[I].Unit) + "}";
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);

  for (const std::string &F : R.Failures)
    std::fprintf(stderr, "FAILED: %s\n", F.c_str());
  return C.Tiny && !Correct ? 1 : 0;
}
