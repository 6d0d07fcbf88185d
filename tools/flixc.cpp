//===- tools/flixc.cpp - FLIX command-line driver --------------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// flixc: compile and solve a FLIX program.
//
//   flixc [options] <file.flix>
//
//   --naive            use naive instead of semi-naive evaluation
//   --no-index         disable automatic secondary indexes
//   --no-memo          disable the pure-function memo cache
//   --no-vm            run FLIX functions on the tree-walking
//                      interpreter instead of the bytecode VM
//   --no-cost-plans    evaluate rule bodies in their written order (the
//                      driver atom first) instead of the cost-based order
//   --threads <n>      solve with the parallel engine on <n> worker
//                      threads (0 = sequential solver, the default)
//   --spill-threshold <n>  split index buckets / scans longer than <n>
//                      rows into stealable sub-tasks (parallel engine;
//                      0 disables intra-rule splitting)
//   --time-limit <s>   abort after <s> seconds
//   --facts <dir>      load input facts from <dir>/<Pred>.facts files
//                      (tab-separated, one tuple per line)
//   --update-script <file>  after the initial solve, replay incremental
//                      fact updates from <file> (see below)
//   --dump-program     print the lowered fixpoint program and exit
//   --print <pred>     print all tuples of one predicate (repeatable)
//   --explain <pred>   print derivation trees for a predicate's rows
//   --stats            print solver statistics
//   --json             print solver statistics as one JSON object on
//                      stdout (one object per update in update-script
//                      mode) and suppress the default model dump
//
// With no --print option, prints every predicate's row count and the full
// contents of predicates with at most 50 rows.
//
// Fact files use one tuple per line with tab-separated columns; columns
// are parsed according to the predicate's declared attribute types (Int,
// Str, Bool, or a nullary enum tag written Enum.Case).
//
// Update scripts drive the incremental engine (src/incremental). Each
// line is whitespace-separated tokens:
//
//   add <Pred> <col>...       stage a fact insertion
//   retract <Pred> <col>...   stage a fact retraction
//   update                    apply staged mutations incrementally
//   # ...                     comment
//
// For lattice predicates the last column is the lattice value. A final
// `update` is implied if mutations remain staged at end of file. The
// model printed at exit reflects the last update.
//
//===----------------------------------------------------------------------===//

#include "incremental/IncrementalSolver.h"
#include "lang/Compiler.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace flix;

static void printUsage() {
  std::printf(
      "usage: flixc [options] <file.flix>\n"
      "  --naive            use naive instead of semi-naive evaluation\n"
      "  --no-index         disable automatic secondary indexes\n"
      "  --no-memo          disable the pure-function memo cache\n"
      "  --no-vm            interpret FLIX functions (disable the bytecode "
      "VM)\n"
      "  --no-cost-plans    freeze written (driver-first) join orders "
      "(disable the cost-based planner)\n"
      "  --replan-threshold <x>  adaptive re-plan hysteresis factor "
      "(0 disables between-round re-planning; default 4)\n"
      "  --threads <n>      parallel engine with <n> workers (0 = "
      "sequential)\n"
      "  --spill-threshold <n>  intra-rule split threshold (parallel "
      "engine; 0 = off)\n"
      "  --time-limit <s>   abort after <s> seconds\n"
      "  --facts <dir>      load input facts from <dir>/<Pred>.facts\n"
      "  --update-script <file>  replay incremental add/retract/update "
      "commands\n"
      "  --dump-program     print the lowered fixpoint program and exit\n"
      "  --print <pred>     print all tuples of one predicate\n"
      "  --explain <pred>   print derivation trees for a predicate's rows\n"
      "  --stats            print solver statistics\n"
      "  --json             print statistics as JSON; suppresses the "
      "default model dump\n");
}

/// Checked float-flag parse (same discipline as flixd's parseFloatFlag):
/// rejects trailing junk and out-of-range values with exit code 2
/// instead of silently reading garbage the way std::atof would.
static double parseFloatFlag(const char *Flag, const char *Text,
                             double Min) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || errno == ERANGE || !(V >= Min)) {
    std::fprintf(stderr, "flixc: %s wants a number >= %g, got '%s'\n",
                 Flag, Min, Text);
    std::exit(2);
  }
  return V;
}

/// Checked integer-flag parse (same exit-2 discipline): rejects
/// trailing junk and values outside [Min, Max].
static long parseIntFlag(const char *Flag, const char *Text, long Min,
                         long Max) {
  errno = 0;
  char *End = nullptr;
  long V = std::strtol(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || V < Min || V > Max) {
    std::fprintf(stderr, "flixc: %s wants an integer in [%ld, %ld], got '%s'\n",
                 Flag, Min, Max, Text);
    std::exit(2);
  }
  return V;
}

/// Parses one fact-file column according to its declared type. Returns
/// false (with a message) on malformed input.
static bool parseColumn(ValueFactory &F, const Type &T,
                        const std::string &Text, Value &Out,
                        std::string &Err) {
  switch (T.K) {
  case Type::Kind::Int: {
    char *End = nullptr;
    long long V = std::strtoll(Text.c_str(), &End, 10);
    if (End == Text.c_str() || *End != '\0') {
      Err = "expected an integer, got '" + Text + "'";
      return false;
    }
    Out = F.integer(V);
    return true;
  }
  case Type::Kind::Str:
    Out = F.string(Text);
    return true;
  case Type::Kind::Bool:
    if (Text == "true" || Text == "false") {
      Out = F.boolean(Text == "true");
      return true;
    }
    Err = "expected true/false, got '" + Text + "'";
    return false;
  case Type::Kind::Enum:
    if (Text.rfind(T.EnumName + ".", 0) == 0) {
      Out = F.tag(Text);
      return true;
    }
    Err = "expected a " + T.EnumName + " tag (Enum.Case), got '" + Text +
          "'";
    return false;
  default:
    Err = "unsupported column type " + T.str() + " in fact files";
    return false;
  }
}

/// Loads <Dir>/<Pred>.facts for every declared predicate that has one.
/// Returns the number of facts loaded, or -1 on error.
static long loadFactsDir(FlixCompiler &C, ValueFactory &F,
                         const std::string &Dir) {
  long Loaded = 0;
  const CheckedModule &CM = C.checkedModule();
  for (const auto &[Name, Info] : CM.Preds) {
    std::string Path = Dir + "/" + Name + ".facts";
    std::ifstream In(Path);
    if (!In)
      continue;
    bool IsLat = Info.Decl->IsLat;
    std::string Line;
    unsigned LineNo = 0;
    while (std::getline(In, Line)) {
      ++LineNo;
      if (Line.empty() || Line[0] == '#')
        continue;
      // Split on tabs.
      std::vector<std::string> Cols;
      size_t Start = 0;
      for (;;) {
        size_t Tab = Line.find('\t', Start);
        Cols.push_back(Line.substr(Start, Tab - Start));
        if (Tab == std::string::npos)
          break;
        Start = Tab + 1;
      }
      if (Cols.size() != Info.AttrTypes.size()) {
        std::fprintf(stderr, "%s:%u: error: expected %zu columns, got "
                             "%zu\n",
                     Path.c_str(), LineNo, Info.AttrTypes.size(),
                     Cols.size());
        return -1;
      }
      std::vector<Value> Vals(Cols.size());
      for (size_t I = 0; I < Cols.size(); ++I) {
        std::string Err;
        if (!parseColumn(F, Info.AttrTypes[I], Cols[I], Vals[I], Err)) {
          std::fprintf(stderr, "%s:%u: error: column %zu: %s\n",
                       Path.c_str(), LineNo, I + 1, Err.c_str());
          return -1;
        }
      }
      bool Ok;
      if (IsLat)
        Ok = C.addLatFact(Name,
                          std::span<const Value>(Vals.data(),
                                                 Vals.size() - 1),
                          Vals.back());
      else
        Ok = C.addFact(Name,
                       std::span<const Value>(Vals.data(), Vals.size()));
      if (!Ok) {
        std::fprintf(stderr, "%s:%u: error: fact rejected\n", Path.c_str(),
                     LineNo);
        return -1;
      }
      ++Loaded;
    }
  }
  return Loaded;
}

template <typename SolverT>
static void printPredicate(const Program &P, const SolverT &S, PredId Id) {
  const PredicateDecl &D = P.predicate(Id);
  const ValueFactory &F = P.factory();
  // Count via tuples(): the incremental engine's tables may hold
  // tombstoned (logically absent) rows that size() would include.
  std::vector<std::vector<Value>> Rows = S.tuples(Id);
  std::printf("%s (%zu rows)\n", D.Name.c_str(), Rows.size());
  for (const auto &Row : Rows) {
    std::printf("  %s(", D.Name.c_str());
    for (size_t I = 0; I < Row.size(); ++I) {
      if (I)
        std::printf(", ");
      Value V = Row[I];
      if (V.isStr())
        std::printf("\"%s\"", F.strings().text(V.asStr()).c_str());
      else
        std::printf("%s", F.toString(V).c_str());
    }
    std::printf(")\n");
  }
}

/// Prints the model the way every solve path does: the --print
/// predicates, else (without --json) every predicate with at most 50
/// live rows and the row count of the others, then the --explain
/// derivation trees. Returns the process exit code.
template <typename SolverT>
static int printModel(FlixCompiler &C, const SolverT &S,
                      const std::vector<std::string> &PrintPreds,
                      const std::vector<std::string> &ExplainPreds,
                      bool Json) {
  const Program &P = C.program();
  if (!PrintPreds.empty()) {
    for (const std::string &Name : PrintPreds) {
      auto Id = C.predicate(Name);
      if (!Id) {
        std::fprintf(stderr, "error: unknown predicate '%s'\n",
                     Name.c_str());
        return 1;
      }
      printPredicate(P, S, *Id);
    }
  } else if (!Json) {
    for (PredId Id = 0; Id < P.predicates().size(); ++Id) {
      if (S.table(Id).liveSize() <= 50)
        printPredicate(P, S, Id);
      else
        std::printf("%s (%zu rows, use --print %s to list)\n",
                    P.predicate(Id).Name.c_str(), S.table(Id).liveSize(),
                    P.predicate(Id).Name.c_str());
    }
  }

  for (const std::string &Name : ExplainPreds) {
    auto Id = C.predicate(Name);
    if (!Id) {
      std::fprintf(stderr, "error: unknown predicate '%s'\n", Name.c_str());
      return 1;
    }
    std::printf("derivations of %s:\n", Name.c_str());
    size_t Shown = 0;
    for (const auto &Row : S.tuples(*Id)) {
      std::span<const Value> Key(Row.data(), P.predicate(*Id).keyArity());
      std::printf("%s", S.explainString(*Id, Key).c_str());
      if (++Shown >= 20) {
        std::printf("  ... (%zu more rows)\n",
                    S.table(*Id).liveSize() - Shown);
        break;
      }
    }
  }
  return 0;
}

static const char *statusName(SolveStats::Status St) {
  switch (St) {
  case SolveStats::Status::Fixpoint:
    return "fixpoint";
  case SolveStats::Status::Timeout:
    return "timeout";
  case SolveStats::Status::IterationLimit:
    return "iteration_limit";
  case SolveStats::Status::Error:
    return "error";
  }
  return "unknown";
}

/// Replays an update script (see the file comment) against the
/// incremental engine, then prints the final model like the one-shot
/// path. Returns the process exit code.
static int runUpdateScript(FlixCompiler &C, ValueFactory &F,
                           const SolverOptions &Opts,
                           const std::string &ScriptPath,
                           const std::vector<std::string> &PrintPreds,
                           const std::vector<std::string> &ExplainPreds,
                           bool Stats, bool Json) {
  std::ifstream Script(ScriptPath);
  if (!Script) {
    std::fprintf(stderr, "error: cannot open '%s'\n", ScriptPath.c_str());
    return 1;
  }

  const Program &P = C.program();
  const CheckedModule &CM = C.checkedModule();
  IncrementalSolver IS(P, Opts);

  unsigned UpdateNo = 0;
  UpdateStats Cum; // running totals, reported on every --json line
  auto runUpdate = [&]() -> bool {
    UpdateStats U = IS.update();
    if (U.St == SolveStats::Status::Error) {
      std::fprintf(stderr, "error: %s\n", U.Error.c_str());
      return false;
    }
    if (C.interp().hasError()) {
      std::fprintf(stderr, "runtime error: %s\n",
                   C.interp().error().c_str());
      return false;
    }
    if (U.St != SolveStats::Status::Fixpoint)
      std::fprintf(stderr, "warning: update %u did not reach a fixpoint; "
                           "the next update re-solves from scratch\n",
                   UpdateNo);
    Cum.accumulate(U);
    if (Stats)
      std::printf("update %u: %s%s\n", UpdateNo,
                  renderStats(U, StatsFormat::Text).c_str(),
                  U.FullResolve ? " (full re-solve)" : "");
    if (Json)
      std::printf("{\"status\": \"%s\", \"update\": %u, \"threads\": %u, "
                  "\"batch_seconds\": %.6f, \"full_resolve\": %s, %s, "
                  "\"cumulative\": {\"updates\": %u, %s}}\n",
                  statusName(U.St), UpdateNo, Opts.NumThreads, U.Seconds,
                  U.FullResolve ? "true" : "false",
                  renderStats(U, StatsFormat::Json).c_str(), UpdateNo + 1,
                  renderStats(Cum, StatsFormat::Json).c_str());
    ++UpdateNo;
    return true;
  };

  // The initial solve (update 0) establishes the support index.
  if (!runUpdate())
    return 1;

  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(Script, Line)) {
    ++LineNo;
    std::istringstream Toks(Line);
    std::vector<std::string> Tok;
    for (std::string T; Toks >> T;)
      Tok.push_back(std::move(T));
    if (Tok.empty() || Tok[0][0] == '#')
      continue;

    if (Tok[0] == "update") {
      if (!runUpdate())
        return 1;
      continue;
    }
    bool IsAdd = Tok[0] == "add";
    if (!IsAdd && Tok[0] != "retract") {
      std::fprintf(stderr,
                   "%s:%u: error: expected add/retract/update, got '%s'\n",
                   ScriptPath.c_str(), LineNo, Tok[0].c_str());
      return 1;
    }
    if (Tok.size() < 2) {
      std::fprintf(stderr, "%s:%u: error: %s needs a predicate name\n",
                   ScriptPath.c_str(), LineNo, Tok[0].c_str());
      return 1;
    }
    auto Id = C.predicate(Tok[1]);
    auto InfoIt = CM.Preds.find(Tok[1]);
    if (!Id || InfoIt == CM.Preds.end()) {
      std::fprintf(stderr, "%s:%u: error: unknown predicate '%s'\n",
                   ScriptPath.c_str(), LineNo, Tok[1].c_str());
      return 1;
    }
    const PredInfo &Info = InfoIt->second;
    if (Tok.size() - 2 != Info.AttrTypes.size()) {
      std::fprintf(stderr, "%s:%u: error: %s expects %zu columns, got "
                           "%zu\n",
                   ScriptPath.c_str(), LineNo, Tok[1].c_str(),
                   Info.AttrTypes.size(), Tok.size() - 2);
      return 1;
    }
    std::vector<Value> Vals(Info.AttrTypes.size());
    for (size_t I = 0; I < Vals.size(); ++I) {
      std::string Err;
      if (!parseColumn(F, Info.AttrTypes[I], Tok[I + 2], Vals[I], Err)) {
        std::fprintf(stderr, "%s:%u: error: column %zu: %s\n",
                     ScriptPath.c_str(), LineNo, I + 1, Err.c_str());
        return 1;
      }
    }
    bool IsLat = Info.Decl->IsLat;
    std::span<const Value> Key(Vals.data(),
                               IsLat ? Vals.size() - 1 : Vals.size());
    if (IsAdd) {
      if (IsLat)
        IS.addLatFact(*Id, Key, Vals.back());
      else
        IS.addFact(*Id, Key);
    } else {
      if (IsLat)
        IS.retractLatFact(*Id, Key, Vals.back());
      else
        IS.retractFact(*Id, Key);
    }
  }
  if (IS.pendingMutations() > 0 && !runUpdate())
    return 1;
  return printModel(C, IS, PrintPreds, ExplainPreds, Json);
}

int main(int Argc, char **Argv) {
  SolverOptions Opts;
  bool DumpProgram = false;
  bool Stats = false;
  bool Json = false;
  std::vector<std::string> PrintPreds;
  std::vector<std::string> ExplainPreds;
  std::string InputPath;
  std::string FactsDir;
  std::string UpdateScriptPath;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--naive") {
      Opts.Strat = Strategy::Naive;
    } else if (Arg == "--no-index") {
      Opts.UseIndexes = false;
    } else if (Arg == "--no-memo") {
      Opts.EnableMemo = false;
    } else if (Arg == "--no-vm") {
      Opts.UseVm = false;
    } else if (Arg == "--no-cost-plans") {
      Opts.CostBasedPlans = false;
    } else if (Arg == "--replan-threshold") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --replan-threshold needs a value\n");
        return 1;
      }
      Opts.ReplanThreshold =
          parseFloatFlag("--replan-threshold", Argv[I], 0.0);
    } else if (Arg == "--threads") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --threads needs a value\n");
        return 1;
      }
      long N = std::atol(Argv[I]);
      if (N < 0) {
        std::fprintf(stderr, "error: --threads needs a value >= 0\n");
        return 1;
      }
      Opts.NumThreads = static_cast<unsigned>(N);
    } else if (Arg == "--spill-threshold") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --spill-threshold needs a value\n");
        return 1;
      }
      long N = std::atol(Argv[I]);
      if (N < 0) {
        std::fprintf(stderr,
                     "error: --spill-threshold needs a value >= 0\n");
        return 1;
      }
      Opts.SpillThreshold = static_cast<uint32_t>(N);
    } else if (Arg == "--update-script") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --update-script needs a file\n");
        return 1;
      }
      UpdateScriptPath = Argv[I];
    } else if (Arg == "--time-limit") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --time-limit needs a value\n");
        return 1;
      }
      Opts.TimeLimitSeconds = std::atof(Argv[I]);
    } else if (Arg == "--facts") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --facts needs a directory\n");
        return 1;
      }
      FactsDir = Argv[I];
    } else if (Arg == "--dump-program") {
      DumpProgram = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--print") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --print needs a predicate name\n");
        return 1;
      }
      PrintPreds.push_back(Argv[I]);
    } else if (Arg == "--explain") {
      if (++I >= Argc) {
        std::fprintf(stderr, "error: --explain needs a predicate name\n");
        return 1;
      }
      ExplainPreds.push_back(Argv[I]);
      Opts.TrackProvenance = true;
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage();
      return 1;
    } else {
      InputPath = Arg;
    }
  }
  if (InputPath.empty()) {
    printUsage();
    return 1;
  }
  if (Opts.NumThreads > 0 && Opts.Strat == Strategy::Naive)
    std::fprintf(stderr, "warning: rounds on --threads workers always "
                         "evaluate semi-naively; --naive is ignored\n");

  std::ifstream File(InputPath);
  if (!File) {
    std::fprintf(stderr, "error: cannot open '%s'\n", InputPath.c_str());
    return 1;
  }
  std::ostringstream Buf;
  Buf << File.rdbuf();

  ValueFactory F;
  FlixCompiler C(F);
  C.setUseVm(Opts.UseVm);
  if (!C.compile(Buf.str(), InputPath)) {
    std::fprintf(stderr, "%s", C.diagnostics().c_str());
    return 1;
  }
  // Surface warnings (e.g. non-exhaustive matches) even on success.
  std::string Diags = C.diagnostics();
  if (!Diags.empty())
    std::fprintf(stderr, "%s", Diags.c_str());
  if (!FactsDir.empty()) {
    long Loaded = loadFactsDir(C, F, FactsDir);
    if (Loaded < 0)
      return 1;
    std::fprintf(stderr, "loaded %ld facts from %s\n", Loaded,
                 FactsDir.c_str());
  }
  if (DumpProgram) {
    std::printf("%s", C.program().dump().c_str());
    return 0;
  }

  // No interpreter serialization: Interp is intrinsically thread-safe
  // (Interp.h), so compiled programs run parallel with no outer lock.

  if (!UpdateScriptPath.empty())
    return runUpdateScript(C, F, Opts, UpdateScriptPath, PrintPreds,
                           ExplainPreds, Stats, Json);

  Solver S(C.program(), Opts);
  SolveStats St = S.solve();
  if (St.St == SolveStats::Status::Error) {
    std::fprintf(stderr, "error: %s\n", St.Error.c_str());
    return 1;
  }
  if (St.St == SolveStats::Status::Timeout)
    std::fprintf(stderr, "warning: time limit reached; results are a "
                         "sound under-approximation of the fixpoint\n");
  if (C.interp().hasError()) {
    std::fprintf(stderr, "runtime error: %s\n", C.interp().error().c_str());
    return 1;
  }

  if (int Rc = printModel(C, S, PrintPreds, ExplainPreds, Json))
    return Rc;

  if (Stats)
    std::printf("\nstats: %s\n", renderStats(St, StatsFormat::Text).c_str());
  if (Json)
    std::printf("{\"status\": \"%s\", \"threads\": %u, \"memo\": %s, "
                "\"vm\": %s, %s}\n",
                statusName(St.St), Opts.NumThreads,
                Opts.EnableMemo ? "true" : "false",
                Opts.UseVm ? "true" : "false",
                renderStats(St, StatsFormat::Json).c_str());
  return 0;
}
