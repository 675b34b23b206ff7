//===- server/Service.h - Single-app analysis service ----------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-app analysis pipeline as a reusable service: everything
/// taj-cli does for one app — read inputs, warm-start the frontend from
/// the artifact cache, run the governed analysis, render the report —
/// factored out of the CLI driver so the analysis server's pool workers
/// run the *same* code path request after request. The option set, its
/// strict flag parsing, its canonical flag re-encoding and the retry
/// degradation all live here too: the CLI and the worker pool behind
/// `--batch --jobs=N` and `--serve` must agree byte-for-byte on what a
/// configuration means, and one definition is the only way they stay
/// agreed.
///
/// Output contract: analyzeApp() returns the report as bytes
/// (RunOutcome::Report) and its diagnostics as bytes too
/// (RunOutcome::Diag). taj-cli prints them, and a pool worker ships them
/// in its response, so server-mode output is byte-identical to a local run
/// by construction, not by comparison, and a batch prints each app's
/// diagnostics in list order whatever order its workers finish in.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SERVER_SERVICE_H
#define TAJ_SERVER_SERVICE_H

#include "dataflow/ConstString.h"
#include "support/Number.h"
#include "verify/Verify.h"

#include <cstdint>
#include <string>
#include <vector>

namespace taj {

class Stats;
struct AnalysisConfig;

namespace persist {
class ArtifactCache;
}

namespace server {

/// The documented taj-cli exit contract, shared by every driver.
enum ExitCode { ExitClean = 0, ExitError = 1, ExitTruncated = 2 };

/// A batch's exit code after one more app exited with \p App: the worst of
/// the two, error > truncated > clean.
inline int worstExit(int Batch, int App) {
  if (Batch == ExitError || App == ExitError)
    return ExitError;
  return App == ExitTruncated ? ExitTruncated : Batch;
}

/// Numeric flags through the strict parser of support/Number.h, with a
/// usage diagnostic on stderr: "--fail-at=abc" or "--deadline-ms=" must be
/// a usage error, not a silently ignored limit, and "--budget=5e9" must
/// not wrap silently to a small uint32_t.
bool parseNum(const char *Flag, const char *Text, double &Out);
bool parseUInt(const char *Flag, const char *Text, uint64_t Max,
               uint64_t &Out);
bool parseU32(const char *Flag, const char *Text, uint32_t &Out);

/// Everything one analysis run needs besides its input files: the
/// analysis-shaping flags of taj-cli, identically interpreted by the CLI
/// and the worker pool (batch and serve).
struct RunOptions {
  std::string ConfigName = "hybrid";
  uint32_t Budget = 0, MaxLen = 0, NestedDepth = 32;
  double DeadlineMs = 0;
  uint64_t MaxMemoryMb = 0, FailAt = 0, CrashAt = 0, HangAt = 0;
  StringAnalysisMode StringAnalysis = StringAnalysisMode::Ipa;
  /// Self-verification over the run's own artifacts (--verify): any
  /// violation fails the run with exit 1, in every driver mode.
  verify::VerifyMode Verify = verify::defaultMode();
  bool Raw = false, DumpIr = false, ShowStats = false;
};

/// Result of offering one command-line argument to the shared option set.
enum class OptionParse {
  Matched, ///< recognized and applied
  NoMatch, ///< not an analysis option (caller handles or rejects)
  Bad,     ///< recognized but malformed (diagnostic already on stderr)
};

/// Applies \p Arg (e.g. "--budget=100") to \p O when it is one of the
/// shared analysis options. This is the one parser behind taj-cli's
/// analysis flags and the server's per-request config overrides.
OptionParse parseRunOption(const char *Arg, RunOptions &O);

/// Materializes the AnalysisConfig \p O describes (preset + overrides).
/// False (with a stderr diagnostic) on an unknown config name.
bool buildConfig(const RunOptions &O, AnalysisConfig &C);

/// Re-encodes \p O as the canonical flag list parseRunOption() accepts:
/// the wire form of client overrides and of every pool worker request.
/// A round trip through encode+parse reproduces the run exactly.
std::vector<std::string> encodeRunOptions(const RunOptions &O);

/// Fingerprint of the result-relevant configuration, stamped into journal
/// records so --resume (and the server journal) never trusts records from
/// a differently-configured run. --stats is excluded: it does not change
/// per-app results.
std::string optionsFingerprint(const RunOptions &O);

/// The degraded flag set for retry attempts: the effective call-graph
/// budget halved (at least 1), local-only string analysis, fault
/// injection stripped.
RunOptions degradeForRetry(const RunOptions &O);

/// One input of an app: a file path, or an inline source shipped over the
/// server protocol (Name is then only a display name for diagnostics).
struct AppSource {
  std::string Name;
  bool Inline = false;
  std::string Content;
};

struct RunOutcome {
  int Exit = ExitError;
  size_t NumIssues = 0;
  /// The bytes a local run prints to stdout: the rendered report, the raw
  /// flows under --raw, or the IR under --dump-ir ("" on input errors).
  std::string Report;
  /// The bytes a local run prints to stderr for this app: input, parse and
  /// verifier errors, the run-status line, the --stats block and the
  /// verify-failure line.
  std::string Diag;
};

/// Reads \p Path into \p Out; false (with strerror-ish \p Err) on failure.
bool readFileText(const char *Path, std::string &Out, std::string &Err);

/// Writes a run's --stats-json and --trace artifacts, the one writer of
/// every taj-cli mode: \p StatsJson and a newline to \p StatsJsonPath, and
/// this process's trace events merged with \p TraceBlobs to \p TracePath.
/// An empty path skips its file. A file that cannot be written in full,
/// its closing flush included, gets an `error: cannot write '<path>'` line
/// on stderr; false when any did.
bool writeArtifacts(const std::string &StatsJsonPath,
                    const std::string &StatsJson,
                    const std::string &TracePath,
                    const std::vector<std::string> &TraceBlobs = {});

/// Analyzes one app (a set of .taj sources forming one program) end to
/// end: frontend (IR cache aware), analysis (points-to/SDG cache aware
/// via AnalysisConfig), report rendering into RunOutcome::Report.
/// \p MergedStats, when set, accumulates every counter for --stats-json;
/// the persist.* rows are the deltas of the frontend's and the
/// analysis's counter windows, so a long-lived caller (a server worker)
/// gets clean per-request numbers from a shared cache.
RunOutcome analyzeApp(const std::vector<AppSource> &Sources,
                      const RunOptions &Opt, persist::ArtifactCache *Cache,
                      Stats *MergedStats);

} // namespace server
} // namespace taj

#endif // TAJ_SERVER_SERVICE_H
