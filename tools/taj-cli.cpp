//===- tools/taj-cli.cpp - Command-line driver ---------------------------===//
//
// Analyzes .taj files from the command line:
//
//   taj-cli [options] file.taj [file2.taj ...]
//   taj-cli [options] --batch=LISTFILE
//   taj-cli [options] --serve=SOCKET
//   taj-cli [options] --connect=SOCKET file.taj [file2.taj ...]
//
// Options:
//   --config=<hybrid|hybrid-prioritized|hybrid-optimized|cs|ci>
//   --budget=<n>          call-graph node budget (0 = unbounded)
//   --string-analysis=<off|local|ipa>
//                         string-constant inference feeding the §4.2
//                         dictionary and reflection models: off = none,
//                         local = per-method ConstStr+Copy chains, ipa =
//                         interprocedural propagation (default)
//   --max-flow-length=<n> drop flows longer than n
//   --nested-depth=<n>    taint-carrier field-dereference bound
//   --verify=<off|fast|full>
//                         self-verification over the run's own artifacts:
//                         fast re-checks SDG endpoint liveness and replays
//                         every reported flow as an HSDG witness path;
//                         full additionally justifies call-graph and heap
//                         edges, re-checks the points-to fixpoint and
//                         structurally re-verifies every warm cache
//                         restore. Violations print `verify: ...`, land in
//                         the verify.* counters and fail the run with exit
//                         1. Default: fast in debug/sanitizer builds, off
//                         in release.
//   --deadline-ms=<n>     wall-clock deadline for the analysis run
//   --max-memory-mb=<n>   resident-memory ceiling for the analysis run
//   --fail-at=<n>         fault injection: trip the guard at checkpoint n
//   --crash-at=<n>        hard fault injection: die (abort, or raise
//                         TAJ_CRASH_SIGNAL) at checkpoint n
//   --hang-at=<n>         hard fault injection: block forever at
//                         checkpoint n (exercises the watchdog)
//   --cache-dir=<path>    persistent artifact cache: parsed IR, points-to
//                         solutions and SDGs are stored there and reused
//                         by later runs over the same input/config
//   --cache-max-mb=<n>    cache byte cap, LRU-evicted (0 = uncapped).
//                         Pool workers (--jobs>=1, --serve) never evict an
//                         entry touched within the last 60 s, which a
//                         concurrent worker may be reading
//   --batch=<listfile>    analyze many apps through one shared warm
//                         cache; each list line names one app's .taj
//                         files (whitespace-separated; blank lines and
//                         #-comments skipped)
//   --jobs=<n>            batch supervision: run the batch on the same
//                         supervised worker pool --serve uses (watchdog,
//                         retries, journal), n workers at a time, each
//                         app attempt in a fresh one-shot worker process
//                         under rlimit backstops; 0 (default) keeps the
//                         in-process batch loop. --jobs=N output is
//                         byte-identical to --jobs=0.
//   --retry=<n>           re-runs granted to a crashed / timed-out /
//                         OOM-killed app, each with a degraded config
//                         (halved call-graph budget, local string
//                         analysis; default 1). Applies to
//                         --jobs>=1 batches and to --serve requests.
//   --journal=<path>      append-only JSONL journal of per-app attempts
//                         (crash-safe; enables --resume for batches and
//                         records per-request attempts under --serve)
//   --resume              skip apps whose terminal outcome the journal
//                         already records; re-run only the rest
//   --serve=<socket>      analysis server: run as a persistent daemon on
//                         the named Unix-domain socket, serving requests
//                         from a pre-forked pool of warm workers sharing
//                         the artifact cache plus a per-worker in-memory
//                         hot tier. Drains cleanly on SIGTERM/SIGINT.
//   --connect=<socket>    client mode: ship the positional files (read
//                         locally, sent inline) plus this command line's
//                         analysis flags to a running server, print the
//                         returned report, exit with the usual contract
//   --pool-size=<n>       server worker pool size (>= 1, default 2)
//   --queue-depth=<n>     server admission queue bound; a request
//                         arriving with the queue full and no idle
//                         worker is answered `busy` (default 16)
//   --hot-max-mb=<n>      per-worker in-memory hot-tier byte cap
//                         (0 = uncapped, default 256)
//   --stats-json=<path>   write every statistics counter (solver, run
//                         governance, persist.*, supervise.*, server.*,
//                         and the per-phase phase.* wall/CPU/peak-RSS
//                         breakdown) as one JSON object; under --serve
//                         written at drain, under --connect from the
//                         response's per-request counters
//   --trace=PATH          write a Chrome trace-event JSON timeline of the
//                         run (loadable in chrome://tracing / Perfetto):
//                         spans for every pipeline phase, instant events
//                         for guard stops and cache hits/misses. Under
//                         --jobs>=1 each worker's trace is collected and
//                         merged into one batch timeline keyed by pid/tid;
//                         under --serve each request additionally gets a
//                         span on a synthetic per-worker lane.
//   --raw                 print raw flows instead of LCP-grouped reports
//   --dump-ir             print the parsed (SSA) program and exit
//   --stats               print analysis statistics
//
// The governance knobs are also readable from the environment
// (TAJ_DEADLINE_MS, TAJ_MAX_MEMORY_MB, TAJ_FAIL_AT, TAJ_CRASH_AT,
// TAJ_CRASH_SIGNAL, TAJ_HANG_AT); the worker pool's non-cooperative
// backstops from TAJ_HARD_DEADLINE_MS, TAJ_HARD_MAX_MEMORY_MB and
// TAJ_WATCHDOG_GRACE_MS. Explicit flags win. Every one of these variables
// is parsed like a numeric flag (a non-negative number, an integer where
// the setting is one); a value that parse rejects, e.g. "4abc" or "-1",
// counts as unset.
//
// Slicing runs on one thread. `--threads=1` is still accepted, and
// ignored, for callers written when the thread count was a flag; any
// other `--threads` value is a usage error.
//
// Exit codes (the documented contract):
//   0  clean: the analysis ran to completion (issues, if any, printed)
//   2  completed with truncation: a deadline/memory/budget/fault cutoff
//      degraded the run; partial results printed, run-status on stderr
//   1  error: bad usage, unreadable input, parse/verify failure, a
//      self-verification violation (--verify), or an internal error that
//      prevented analysis
// In batch mode the process exit code is the worst across all apps
// (error > truncated > clean); one failing app does not stop the batch.
// Under --jobs>=1 a crashed, timed-out or OOM-killed worker counts as an
// error for its app after the retry ladder is exhausted. Under --connect
// the exit code mirrors the response status (busy, shutting-down, crash,
// timeout and oom all map to error, with the reason on stderr). A daemon
// exits 0 after a clean drain.
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisConfig.h"
#include "persist/Cache.h"
#include "server/Client.h"
#include "server/Server.h"
#include "server/Service.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include <csignal>

using namespace taj;
using namespace taj::server;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: taj-cli [--config=NAME] [--budget=N] [--max-flow-length=N]\n"
      "               [--string-analysis=off|local|ipa]\n"
      "               [--nested-depth=N] [--verify=MODE]\n"
      "               [--deadline-ms=N]\n"
      "               [--max-memory-mb=N] [--fail-at=N] [--crash-at=N]\n"
      "               [--hang-at=N] [--cache-dir=PATH] [--cache-max-mb=N]\n"
      "               [--jobs=N] [--retry=N]\n"
      "               [--journal=PATH] [--resume] [--stats-json=PATH]\n"
      "               [--trace=PATH] [--raw] [--dump-ir] [--stats]\n"
      "               [--pool-size=N] [--queue-depth=N] [--hot-max-mb=N]\n"
      "               (file.taj [more.taj ...] | --batch=LISTFILE\n"
      "                | --serve=SOCKET | --connect=SOCKET file.taj ...)\n");
}

/// Client mode: read the apps locally, ship them inline with this command
/// line's analysis flags, print the response report.
int runConnect(const std::string &SocketPath,
               const std::vector<std::string> &Files, const RunOptions &Opt,
               const std::string &StatsJsonPath,
               const std::string &TracePath) {
  Request Req;
  for (const std::string &F : Files) {
    AppSource S;
    S.Name = F;
    S.Inline = true;
    std::string IoErr;
    if (!readFileText(F.c_str(), S.Content, IoErr)) {
      std::fprintf(stderr, "error: cannot read '%s': %s\n", F.c_str(),
                   IoErr.c_str());
      return ExitError;
    }
    Req.Sources.push_back(std::move(S));
  }
  Req.Overrides = encodeRunOptions(Opt);

  Response Resp;
  std::string Err;
  if (!requestAnalysis(SocketPath, Req, Resp, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return ExitError;
  }
  std::fwrite(Resp.Diag.data(), 1, Resp.Diag.size(), stderr);
  if (!Resp.Report.empty() &&
      std::fwrite(Resp.Report.data(), 1, Resp.Report.size(), stdout) !=
          Resp.Report.size()) {
    std::fprintf(stderr, "error: stdout write failed\n");
    return ExitError;
  }
  if (Resp.St != Status::Ok && Resp.St != Status::Truncated)
    std::fprintf(stderr, "server: %s%s%s\n", statusName(Resp.St),
                 Resp.Message.empty() ? "" : ": ", Resp.Message.c_str());
  if (!writeArtifacts(StatsJsonPath, Resp.StatsJson, TracePath,
                      {Resp.TraceBlob}))
    return ExitError;
  return exitCodeForStatus(Resp.St);
}

/// A truncated stdout (closed pipe, full disk) must not masquerade as a
/// clean run: SIGPIPE is ignored, so the failure surfaces here.
bool checkStdout() {
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr, "error: stdout write failed\n");
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  // SIGPIPE is a process-wide hazard for anything that writes to peers
  // that may vanish — a closed client socket, a `head`-truncated stdout.
  // Ignore it everywhere (the disposition survives fork into pool
  // workers) and surface write failures as error returns.
  std::signal(SIGPIPE, SIG_IGN);

  RunOptions Opt;
  std::string CacheDir, BatchFile, StatsJsonPath, JournalPath, TracePath;
  std::string ServePath, ConnectPath;
  uint64_t CacheMaxMb = 0, Jobs = 0, Retry = 1;
  uint64_t PoolSize = 2, QueueDepth = 16, HotMaxMb = 256;
  bool RetrySet = false, Resume = false;
  bool PoolSizeSet = false, QueueDepthSet = false, HotMaxSet = false;
  std::vector<std::string> Files;

  for (int K = 1; K < Argc; ++K) {
    const char *A = Argv[K];
    // The shared analysis options first (one parser for CLI, batch
    // workers and server requests), then the driver-level flags.
    OptionParse PR = parseRunOption(A, Opt);
    if (PR == OptionParse::Bad)
      return ExitError;
    if (PR == OptionParse::Matched)
      continue;
    if (std::strncmp(A, "--cache-dir=", 12) == 0)
      CacheDir = A + 12;
    else if (std::strncmp(A, "--cache-max-mb=", 15) == 0) {
      if (!parseUInt("--cache-max-mb", A + 15, MaxExactU64, CacheMaxMb))
        return ExitError;
    } else if (std::strncmp(A, "--jobs=", 7) == 0) {
      if (!parseUInt("--jobs", A + 7, 1024, Jobs))
        return ExitError;
    } else if (std::strncmp(A, "--retry=", 8) == 0) {
      if (!parseUInt("--retry", A + 8, 100, Retry))
        return ExitError;
      RetrySet = true;
    } else if (std::strncmp(A, "--journal=", 10) == 0)
      JournalPath = A + 10;
    else if (std::strcmp(A, "--resume") == 0)
      Resume = true;
    else if (std::strncmp(A, "--batch=", 8) == 0)
      BatchFile = A + 8;
    else if (std::strncmp(A, "--serve=", 8) == 0)
      ServePath = A + 8;
    else if (std::strncmp(A, "--connect=", 10) == 0)
      ConnectPath = A + 10;
    else if (std::strncmp(A, "--pool-size=", 12) == 0) {
      if (!parseUInt("--pool-size", A + 12, 1024, PoolSize))
        return ExitError;
      PoolSizeSet = true;
    } else if (std::strncmp(A, "--queue-depth=", 14) == 0) {
      if (!parseUInt("--queue-depth", A + 14, 1u << 20, QueueDepth))
        return ExitError;
      QueueDepthSet = true;
    } else if (std::strncmp(A, "--hot-max-mb=", 13) == 0) {
      if (!parseUInt("--hot-max-mb", A + 13, MaxExactU64, HotMaxMb))
        return ExitError;
      HotMaxSet = true;
    } else if (std::strncmp(A, "--stats-json=", 13) == 0)
      StatsJsonPath = A + 13;
    else if (std::strncmp(A, "--trace=", 8) == 0)
      TracePath = A + 8;
    else if (A[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", A);
      usage();
      return ExitError;
    } else
      Files.push_back(A);
  }

  // Mode resolution and the flag-dependency matrix. The four modes —
  // local single-app, batch, serve, connect — are mutually exclusive,
  // and every mode-scoped flag must name its mode.
  const bool Serving = !ServePath.empty();
  const bool Connecting = !ConnectPath.empty();
  if (Serving && Connecting) {
    std::fprintf(stderr, "error: --serve and --connect are exclusive\n");
    return ExitError;
  }
  if (Serving && (!BatchFile.empty() || !Files.empty())) {
    std::fprintf(stderr,
                 "error: --serve is exclusive with --batch and positional "
                 "files\n");
    return ExitError;
  }
  if (Serving && (Jobs > 0 || Resume)) {
    std::fprintf(stderr, "error: --jobs/--resume do not apply to --serve\n");
    return ExitError;
  }
  if (Connecting && Files.empty()) {
    std::fprintf(stderr, "error: --connect requires input files to send\n");
    usage();
    return ExitError;
  }
  if (Connecting &&
      (!BatchFile.empty() || Jobs > 0 || RetrySet || !JournalPath.empty() ||
       Resume || !CacheDir.empty())) {
    std::fprintf(stderr,
                 "error: batch/cache flags do not apply to --connect (the "
                 "server owns its cache and retry policy)\n");
    return ExitError;
  }
  if ((PoolSizeSet || QueueDepthSet || HotMaxSet) && !Serving) {
    std::fprintf(stderr,
                 "error: --pool-size/--queue-depth/--hot-max-mb require "
                 "--serve\n");
    return ExitError;
  }
  if (Serving && PoolSize == 0) {
    std::fprintf(stderr, "error: --pool-size must be >= 1\n");
    return ExitError;
  }
  if (!Serving && !Connecting) {
    if (BatchFile.empty() ? Files.empty() : !Files.empty()) {
      if (!BatchFile.empty())
        std::fprintf(stderr,
                     "error: --batch and positional files are exclusive\n");
      usage();
      return ExitError;
    }
    if (Jobs > 0 && BatchFile.empty()) {
      std::fprintf(stderr, "error: --jobs requires --batch\n");
      return ExitError;
    }
    if ((RetrySet || !JournalPath.empty() || Resume) && Jobs == 0) {
      std::fprintf(stderr,
                   "error: --retry/--journal/--resume require --jobs>=1\n");
      return ExitError;
    }
    if (Resume && JournalPath.empty()) {
      std::fprintf(stderr, "error: --resume requires --journal\n");
      return ExitError;
    }
  }
  {
    // Fail fast on a bad config name instead of once per batch line.
    AnalysisConfig Probe;
    if (!buildConfig(Opt, Probe))
      return ExitError;
  }

  // Arm the trace sink before any instrumented work runs; usage errors
  // above deliberately exit without producing an (empty) trace file.
  if (!TracePath.empty())
    trace::enable();

  // The supervised worker pool behind --serve and --batch --jobs>=1.
  ServerOptions SO;
  SO.SocketPath = ServePath;
  SO.PoolSize = static_cast<unsigned>(Serving ? PoolSize : Jobs);
  SO.QueueDepth = static_cast<unsigned>(QueueDepth);
  SO.MaxRetries = static_cast<unsigned>(Retry);
  SO.Base = Opt;
  SO.CacheDir = CacheDir;
  SO.CacheMaxMb = CacheMaxMb;
  SO.HotMaxMb = HotMaxMb;
  SO.JournalPath = JournalPath;
  SO.StatsJsonPath = StatsJsonPath;
  SO.TracePath = TracePath;
  if (Serving)
    return runServer(SO);

  int Exit;
  if (Connecting) {
    Exit = runConnect(ConnectPath, Files, Opt, StatsJsonPath, TracePath);
    // The artifacts were written from the response; only the final
    // stdout check remains.
    return checkStdout() ? Exit : ExitError;
  }

  std::unique_ptr<persist::ArtifactCache> Cache;
  if (!CacheDir.empty() && Jobs == 0)
    Cache = std::make_unique<persist::ArtifactCache>(CacheDir,
                                                     CacheMaxMb * 1024 * 1024);

  Stats MergedStats;
  Stats *JsonStats = StatsJsonPath.empty() ? nullptr : &MergedStats;

  // Every exit path past this point (normal, truncated, parse failure,
  // batch-list errors) writes the stats/trace artifacts, here or in the
  // pool, so they exist whenever the flags were given — a CI step never
  // reads a missing file just because the run degraded.
  auto WriteArtifacts = [&] {
    return writeArtifacts(StatsJsonPath, MergedStats.toJson(), TracePath);
  };

  auto ToSources = [](const std::vector<std::string> &Paths) {
    std::vector<AppSource> S;
    S.reserve(Paths.size());
    for (const std::string &P : Paths)
      S.push_back({P, false, ""});
    return S;
  };

  if (BatchFile.empty()) {
    RunOutcome O = analyzeApp(ToSources(Files), Opt, Cache.get(), JsonStats);
    std::fwrite(O.Diag.data(), 1, O.Diag.size(), stderr);
    std::fwrite(O.Report.data(), 1, O.Report.size(), stdout);
    Exit = O.Exit;
  } else {
    std::string List, IoErr;
    if (!readFileText(BatchFile.c_str(), List, IoErr)) {
      std::fprintf(stderr, "error: cannot read '%s': %s\n", BatchFile.c_str(),
                   IoErr.c_str());
      if (JsonStats)
        JsonStats->add("cli.input_errors");
      WriteArtifacts();
      return ExitError;
    }
    // Parse the list up front: blank lines and #-comments skipped, each
    // remaining line one app (whitespace-separated .taj files).
    std::vector<BatchApp> Apps;
    std::istringstream LS(List);
    std::string Line;
    while (std::getline(LS, Line)) {
      std::istringstream WS(Line);
      std::vector<std::string> AppFiles;
      std::string Tok;
      while (WS >> Tok) {
        if (Tok[0] == '#')
          break; // rest of line is a comment
        AppFiles.push_back(Tok);
      }
      if (AppFiles.empty())
        continue;
      std::string AppName = AppFiles[0];
      for (size_t I = 1; I < AppFiles.size(); ++I)
        AppName += " " + AppFiles[I];
      Apps.push_back({std::move(AppName), std::move(AppFiles)});
    }
    if (Apps.empty()) {
      std::fprintf(stderr, "error: batch list '%s' names no apps\n",
                   BatchFile.c_str());
      if (JsonStats)
        JsonStats->add("cli.input_errors");
      WriteArtifacts();
      return ExitError;
    }
    if (Jobs == 0) {
      // In-process batch loop: the regression baseline every supervised
      // configuration's stdout is compared against.
      Exit = ExitClean;
      for (const BatchApp &App : Apps) {
        std::printf("=== %s\n", App.Name.c_str());
        RunOutcome O =
            analyzeApp(ToSources(App.Files), Opt, Cache.get(), JsonStats);
        std::fwrite(O.Diag.data(), 1, O.Diag.size(), stderr);
        std::fwrite(O.Report.data(), 1, O.Report.size(), stdout);
        // Deterministic per-app summary (no timings: batch output must be
        // byte-comparable against separate runs).
        std::printf("--- %s: exit=%d issues=%zu\n", App.Name.c_str(), O.Exit,
                    O.NumIssues);
        std::fflush(stdout);
        Exit = worstExit(Exit, O.Exit);
      }
    } else {
      // Supervised batch on the worker pool, which writes the stats and
      // trace artifacts itself.
      Exit = runBatch(SO, Apps, Resume);
      return checkStdout() ? Exit : ExitError;
    }
  }

  if (!WriteArtifacts())
    return ExitError;
  return checkStdout() ? Exit : ExitError;
}
