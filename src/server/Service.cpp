//===- server/Service.cpp - Single-app analysis service --------*- C++ -*-===//

#include "server/Service.h"

#include "core/TaintAnalysis.h"
#include "frontend/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"
#include "persist/Cache.h"
#include "report/ReportGenerator.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include <sys/stat.h>

using namespace taj;
using namespace taj::server;

namespace {

/// Turns a refused flag value into its usage diagnostic.
bool flagParsed(NumberParse R, const char *Flag, const char *Text,
                uint64_t Max) {
  if (R == NumberParse::Malformed)
    std::fprintf(stderr, "error: %s requires a non-negative number, got '%s'\n",
                 Flag, Text);
  else if (R == NumberParse::OutOfRange)
    std::fprintf(stderr,
                 "error: %s value '%s' is out of range (integer 0..%llu)\n",
                 Flag, Text, static_cast<unsigned long long>(Max));
  return R == NumberParse::Ok;
}

} // namespace

bool server::parseNum(const char *Flag, const char *Text, double &Out) {
  return flagParsed(parseNumber(Text, Out), Flag, Text, 0);
}

bool server::parseUInt(const char *Flag, const char *Text, uint64_t Max,
                       uint64_t &Out) {
  return flagParsed(parseInteger(Text, Max, Out), Flag, Text, Max);
}

bool server::parseU32(const char *Flag, const char *Text, uint32_t &Out) {
  uint64_t V;
  if (!parseUInt(Flag, Text, UINT32_MAX, V))
    return false;
  Out = static_cast<uint32_t>(V);
  return true;
}

OptionParse server::parseRunOption(const char *A, RunOptions &O) {
  auto Bad = [](bool Ok) {
    return Ok ? OptionParse::Matched : OptionParse::Bad;
  };
  if (std::strncmp(A, "--config=", 9) == 0) {
    O.ConfigName = A + 9;
    return OptionParse::Matched;
  }
  if (std::strncmp(A, "--budget=", 9) == 0)
    return Bad(parseU32("--budget", A + 9, O.Budget));
  if (std::strncmp(A, "--max-flow-length=", 18) == 0)
    return Bad(parseU32("--max-flow-length", A + 18, O.MaxLen));
  if (std::strncmp(A, "--nested-depth=", 15) == 0)
    return Bad(parseU32("--nested-depth", A + 15, O.NestedDepth));
  // Slicing runs on one thread. suitebench/ServeWorkload.cpp:217 still
  // starts the daemon with --threads=1, so that one value is accepted and
  // ignored until that line goes.
  if (std::strncmp(A, "--threads=", 10) == 0) {
    if (std::strcmp(A + 10, "1") == 0)
      return OptionParse::Matched;
    std::fprintf(stderr, "error: --threads accepts only 1, got '%s'\n",
                 A + 10);
    return OptionParse::Bad;
  }
  if (std::strncmp(A, "--deadline-ms=", 14) == 0)
    return Bad(parseNum("--deadline-ms", A + 14, O.DeadlineMs));
  if (std::strncmp(A, "--max-memory-mb=", 16) == 0)
    return Bad(
        parseUInt("--max-memory-mb", A + 16, MaxMebibytes, O.MaxMemoryMb));
  if (std::strncmp(A, "--fail-at=", 10) == 0)
    return Bad(parseUInt("--fail-at", A + 10, MaxExactU64, O.FailAt));
  if (std::strncmp(A, "--crash-at=", 11) == 0)
    return Bad(parseUInt("--crash-at", A + 11, MaxExactU64, O.CrashAt));
  if (std::strncmp(A, "--hang-at=", 10) == 0)
    return Bad(parseUInt("--hang-at", A + 10, MaxExactU64, O.HangAt));
  if (std::strncmp(A, "--string-analysis=", 18) == 0) {
    if (!parseStringAnalysisMode(A + 18, O.StringAnalysis)) {
      std::fprintf(stderr,
                   "error: --string-analysis requires off|local|ipa, "
                   "got '%s'\n",
                   A + 18);
      return OptionParse::Bad;
    }
    return OptionParse::Matched;
  }
  if (std::strncmp(A, "--verify=", 9) == 0) {
    if (!verify::parseVerifyMode(A + 9, O.Verify)) {
      std::fprintf(stderr, "error: --verify requires off|fast|full, got '%s'\n",
                   A + 9);
      return OptionParse::Bad;
    }
    return OptionParse::Matched;
  }
  if (std::strcmp(A, "--raw") == 0) {
    O.Raw = true;
    return OptionParse::Matched;
  }
  if (std::strcmp(A, "--dump-ir") == 0) {
    O.DumpIr = true;
    return OptionParse::Matched;
  }
  if (std::strcmp(A, "--stats") == 0) {
    O.ShowStats = true;
    return OptionParse::Matched;
  }
  return OptionParse::NoMatch;
}

bool server::buildConfig(const RunOptions &O, AnalysisConfig &C) {
  if (O.ConfigName == "hybrid")
    C = AnalysisConfig::hybridUnbounded();
  else if (O.ConfigName == "hybrid-prioritized")
    C = AnalysisConfig::hybridPrioritized(O.Budget ? O.Budget : 20000);
  else if (O.ConfigName == "hybrid-optimized")
    C = AnalysisConfig::hybridOptimized(O.Budget ? O.Budget : 20000);
  else if (O.ConfigName == "cs")
    C = AnalysisConfig::cs();
  else if (O.ConfigName == "ci")
    C = AnalysisConfig::ci();
  else {
    std::fprintf(stderr, "error: unknown config '%s'\n", O.ConfigName.c_str());
    return false;
  }
  if (O.Budget)
    C.MaxCallGraphNodes = O.Budget;
  if (O.MaxLen)
    C.MaxFlowLength = O.MaxLen;
  C.NestedTaintDepth = O.NestedDepth;
  // Explicit flags win over the TAJ_* environment (TaintAnalysis overlays
  // the environment only onto unset limits, since flags default to 0 the
  // overlay applies exactly when no flag was given).
  if (O.DeadlineMs > 0)
    C.DeadlineMs = O.DeadlineMs;
  if (O.MaxMemoryMb)
    C.MaxMemoryMb = O.MaxMemoryMb;
  if (O.FailAt)
    C.FailAtCheckpoint = O.FailAt;
  if (O.CrashAt)
    C.CrashAtCheckpoint = O.CrashAt;
  if (O.HangAt)
    C.HangAtCheckpoint = O.HangAt;
  C.StringAnalysis = O.StringAnalysis;
  C.Verify = O.Verify;
  return true;
}

std::vector<std::string> server::encodeRunOptions(const RunOptions &O) {
  std::vector<std::string> A;
  A.push_back("--config=" + O.ConfigName);
  if (O.Budget)
    A.push_back("--budget=" + std::to_string(O.Budget));
  if (O.MaxLen)
    A.push_back("--max-flow-length=" + std::to_string(O.MaxLen));
  A.push_back("--nested-depth=" + std::to_string(O.NestedDepth));
  if (O.DeadlineMs > 0)
    A.push_back("--deadline-ms=" + formatNumber(O.DeadlineMs));
  if (O.MaxMemoryMb)
    A.push_back("--max-memory-mb=" + std::to_string(O.MaxMemoryMb));
  if (O.FailAt)
    A.push_back("--fail-at=" + std::to_string(O.FailAt));
  if (O.CrashAt)
    A.push_back("--crash-at=" + std::to_string(O.CrashAt));
  if (O.HangAt)
    A.push_back("--hang-at=" + std::to_string(O.HangAt));
  A.push_back(std::string("--string-analysis=") +
              stringAnalysisModeName(O.StringAnalysis));
  // Always explicit: the built-in default is build-type dependent (fast in
  // debug/sanitizer builds), so the wire form must pin what was chosen.
  A.push_back(std::string("--verify=") + verify::verifyModeName(O.Verify));
  if (O.Raw)
    A.push_back("--raw");
  if (O.DumpIr)
    A.push_back("--dump-ir");
  if (O.ShowStats)
    A.push_back("--stats");
  return A;
}

std::string server::optionsFingerprint(const RunOptions &O) {
  // The deadline is spelled as the wire spells it. No deadline keeps its
  // old spelling, so a journal of a run without one still resumes.
  const std::string Deadline =
      O.DeadlineMs > 0 ? formatNumber(O.DeadlineMs) : "0.000000";
  std::string S = "cfg:" + O.ConfigName + ";b=" + std::to_string(O.Budget) +
                  ";fl=" + std::to_string(O.MaxLen) +
                  ";nd=" + std::to_string(O.NestedDepth) + ";dl=" + Deadline +
                  ";mm=" + std::to_string(O.MaxMemoryMb) +
                  ";fa=" + std::to_string(O.FailAt) +
                  ";ca=" + std::to_string(O.CrashAt) +
                  ";ha=" + std::to_string(O.HangAt) +
                  ";sa=" + stringAnalysisModeName(O.StringAnalysis) +
                  ";vf=" + verify::verifyModeName(O.Verify) +
                  ";raw=" + std::to_string(O.Raw) +
                  ";ir=" + std::to_string(O.DumpIr);
  uint64_t H = persist::fnv1a(S.data(), S.size());
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(H));
  return Hex;
}

RunOptions server::degradeForRetry(const RunOptions &O) {
  RunOptions R = O;
  AnalysisConfig C;
  if (buildConfig(O, C) && C.MaxCallGraphNodes)
    R.Budget = std::max(C.MaxCallGraphNodes / 2, 1u);
  if (R.StringAnalysis == StringAnalysisMode::Ipa)
    R.StringAnalysis = StringAnalysisMode::Local;
  // Injected faults are first-attempt scenarios: a retry that kept them
  // could never recover.
  R.FailAt = R.CrashAt = R.HangAt = 0;
  return R;
}

bool server::readFileText(const char *Path, std::string &Out,
                          std::string &Err) {
  struct stat St;
  if (::stat(Path, &St) != 0) {
    Err = std::strerror(errno);
    return false;
  }
  if (S_ISDIR(St.st_mode)) {
    Err = "is a directory";
    return false;
  }
  std::ifstream In(Path);
  if (!In) {
    Err = std::strerror(errno);
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  if (In.bad()) {
    Err = "read failed";
    return false;
  }
  Out = SS.str();
  return true;
}

bool server::writeArtifacts(const std::string &StatsJsonPath,
                            const std::string &StatsJson,
                            const std::string &TracePath,
                            const std::vector<std::string> &TraceBlobs) {
  bool Ok = true;
  auto Failed = [&Ok](const std::string &Path) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    Ok = false;
  };
  if (!StatsJsonPath.empty()) {
    std::FILE *F = std::fopen(StatsJsonPath.c_str(), "w");
    bool Wrote = F &&
                 std::fwrite(StatsJson.data(), 1, StatsJson.size(), F) ==
                     StatsJson.size() &&
                 std::fputc('\n', F) != EOF;
    if (F && std::fclose(F) != 0)
      Wrote = false; // the buffered tail never reached the file
    if (!Wrote)
      Failed(StatsJsonPath);
  }
  if (!TracePath.empty() && !trace::writeJsonMerged(TracePath, TraceBlobs))
    Failed(TracePath);
  return Ok;
}

RunOutcome server::analyzeApp(const std::vector<AppSource> &Sources,
                              const RunOptions &Opt,
                              persist::ArtifactCache *Cache,
                              Stats *MergedStats) {
  RunOutcome Out;

  // Per-app profile covering parse and report on top of the run-internal
  // phases (handed to the analysis via ExternalProfile). Every return
  // path below exports it, so a failed app still accounts its time.
  PhaseProfile Prof;
  // The frontend's counter window. The analysis reports its own window in
  // RunStats, so this one covers the cache traffic around it, and every
  // exit that exports the profile exports this window too: with a cache,
  // an app's stats carry its persist.* rows whichever way it leaves.
  const bool CacheOn = Cache && Cache->enabled();
  const persist::ArtifactCache::Counters Since =
      CacheOn ? Cache->counters() : persist::ArtifactCache::Counters();
  auto ExportFrontend = [&](Stats &S) {
    if (CacheOn)
      Cache->exportSince(Since, S);
  };
  // Unreadable/unparseable inputs must still leave a mark in the stats
  // artifact: the counter tells a supervising parent the app failed on
  // input, not inside the analysis.
  auto FailInput = [&]() -> RunOutcome {
    if (MergedStats) {
      MergedStats->add("cli.input_errors");
      ExportFrontend(*MergedStats);
      Prof.exportStats(*MergedStats);
    }
    return Out; // Exit stays ExitError
  };

  // Read every input up front: the content fingerprint keys all cache
  // entries, so it must cover exactly the bytes the frontend would parse.
  // Inline sources (server requests) are already in hand.
  std::vector<std::string> Texts(Sources.size());
  bool InputError = false;
  for (size_t I = 0; I < Sources.size(); ++I) {
    if (Sources[I].Inline) {
      Texts[I] = Sources[I].Content;
      continue;
    }
    std::string IoErr;
    if (!readFileText(Sources[I].Name.c_str(), Texts[I], IoErr)) {
      Out.Diag +=
          "error: cannot read '" + Sources[I].Name + "': " + IoErr + "\n";
      InputError = true;
    }
  }
  if (InputError)
    return FailInput();

  uint64_t H = persist::fnv1a("taj-input", 9);
  for (const std::string &S : Texts) {
    H = persist::fnv1a(S.data(), S.size(), H);
    H = persist::fnv1a("|", 1, H); // file boundaries matter
  }
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(H));
  const std::string InputFp = Hex;

  // One violation sink for the whole app: frontend checks below and the
  // analysis-internal checkers (via AnalysisConfig::Violations) fold into
  // it, and any violation fails the run with exit 1 at the bottom.
  verify::Violations Vio;

  // Frontend, warm path: a valid "ir" entry replaces builtin installation,
  // parsing and verification wholesale (the stored program was verified
  // before it was stored). Any restore failure falls back cold.
  auto P = std::make_unique<Program>();
  std::string IrKey;
  bool IrWarm = false;
  if (CacheOn) {
    PhaseScope S(&Prof, "persist_load");
    IrKey = persist::ArtifactCache::makeKey("ir", InputFp, "");
    if (std::optional<persist::LoadedPayload> Payload =
            Cache->load(IrKey, persist::ArtifactKind::Ir)) {
      persist::Reader R(Payload->data(), Payload->size());
      {
        trace::Span RS("restore: ir", "persist");
        IrWarm = persist::Access::restoreProgram(*P, R);
      }
      if (!IrWarm) {
        Cache->noteRestoreFailure(IrKey);
        P = std::make_unique<Program>(); // restore may leave partial state
      }
    }
  }
  // IRVerifier over a warm restore (--verify=full): the cold path verifies
  // before storing, so a violating restored program means the artifact —
  // not the input — is bad. Count it as a rejected persisted artifact,
  // drop the poisoned entry, and fail the run rather than analyze a
  // structurally broken program.
  if (IrWarm && Opt.Verify == verify::VerifyMode::Full) {
    PhaseScope S(&Prof, "verify");
    const uint64_t Before = Vio.total();
    verify::verifyIr(*P, Vio);
    if (Vio.total() != Before) {
      Vio.noteRestoreRejected();
      Cache->noteRestoreFailure(IrKey);
      if (MergedStats) {
        Vio.exportStats(*MergedStats);
        ExportFrontend(*MergedStats);
        Prof.exportStats(*MergedStats);
      }
      return Out; // Exit stays ExitError
    }
  }
  if (!IrWarm) {
    PhaseScope S(&Prof, "parse");
    // Frontend: every input file gets its own diagnostics; one bad file
    // does not silently hide behind another, and none aborts the process.
    installBuiltinLibrary(*P);
    for (size_t I = 0; I < Sources.size(); ++I) {
      std::vector<std::string> Errors;
      if (!parseTaj(*P, Texts[I], &Errors)) {
        if (Errors.empty())
          Out.Diag += Sources[I].Name + ": parse failed\n";
        for (const std::string &E : Errors)
          Out.Diag += Sources[I].Name + ":" + E + "\n";
        InputError = true;
      }
    }
    if (InputError)
      return FailInput();
    std::vector<std::string> VErrors = verifyProgram(*P);
    if (!VErrors.empty()) {
      for (const std::string &E : VErrors)
        Out.Diag += "verifier: " + E + "\n";
      return FailInput();
    }
    if (CacheOn) {
      PhaseScope SS(&Prof, "persist_store");
      persist::Writer W;
      persist::Access::serializeProgram(*P, W);
      Cache->store(IrKey, persist::ArtifactKind::Ir, W.bytes());
    }
  }
  if (Opt.DumpIr) {
    Out.Report = printProgram(*P);
    if (MergedStats) {
      ExportFrontend(*MergedStats);
      Prof.exportStats(*MergedStats);
    }
    Out.Exit = ExitClean;
    return Out;
  }

  AnalysisConfig C;
  if (!buildConfig(Opt, C))
    return Out;
  C.Cache = Cache;
  C.InputFingerprint = InputFp;
  C.ExternalProfile = &Prof;
  C.Violations = &Vio;

  // Close the frontend window before the analysis opens its own; its rows
  // join the run's stats so --stats and --stats-json see the full per-app
  // persist.* picture.
  Stats FrontendStats;
  ExportFrontend(FrontendStats);
  MethodId Root = synthesizeEntrypointDriver(*P);
  TaintAnalysis TA(*P, std::move(C));
  AnalysisResult R = TA.run({Root});
  R.RunStats.merge(FrontendStats);

  if (Opt.Raw) {
    for (const Issue &I : R.Issues)
      Out.Report += std::string(rules::ruleName(I.Rule)) + ": " +
                    describeStmt(*P, I.Source) + " -> " +
                    describeStmt(*P, I.Sink) + " (length " +
                    std::to_string(I.Length) + ")\n";
  } else {
    PhaseScope RS(&Prof, "report");
    Out.Report = renderReports(*P, generateReports(*P, R.Issues), &R.Status);
  }

  // The profile now covers parse, report and the run-internal phases;
  // export it into this run's stats before folding them into the merged
  // set (run() skipped the export because the profile is external).
  Prof.exportStats(R.RunStats);
  if (MergedStats)
    MergedStats->merge(R.RunStats); // includes the solver counters

  if (R.degraded())
    Out.Diag += "run-status: " + R.Status.toString() + "\n";
  if (Opt.ShowStats) {
    char Line[128];
    std::snprintf(Line, sizeof(Line),
                  "-- %zu raw flows, %.1f ms, %u call-graph nodes%s\n",
                  R.Issues.size(), R.Millis, R.CgNodesProcessed,
                  R.BudgetExhausted ? " (budget exhausted)" : "");
    Out.Diag += Line;
    Out.Diag += R.RunStats.toString();
  }
  Out.NumIssues = R.Issues.size();
  Out.Exit = R.degraded() ? ExitTruncated : ExitClean;
  // Self-verification trumps the clean/truncated contract: an artifact
  // inconsistency means nothing about this run can be trusted.
  if (Vio.total()) {
    Out.Diag += "verify: " + std::to_string(Vio.total()) +
                " violation(s), failing run\n";
    Out.Exit = ExitError;
  }
  // The issue count rides the stats channel so a supervising parent can
  // recover it from the worker's --stats-json file.
  if (MergedStats)
    MergedStats->add("cli.issues", Out.NumIssues);
  return Out;
}
