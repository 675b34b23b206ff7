//===- server/Journal.h - Append-only batch journal ------------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-safe record of a supervised batch run: one JSONL line per
/// worker attempt, appended (and flushed) the moment the attempt's exit
/// is classified. Because every line is self-contained, a supervisor
/// killed mid-batch leaves a journal whose terminal records identify
/// exactly the apps that need no re-work — `taj-cli --resume` skips them
/// and re-runs only the rest. A torn trailing line (the supervisor died
/// mid-write) is silently ignored by the loader.
///
/// Record shape (one line, no nesting):
///
///   {"line":3,"app":"a.taj b.taj","config":"<hex16>","attempt":1,
///    "class":"crashed","signal":11,"exit":-1,"issues":0,"terminal":false}
///
/// - line/app identify the batch entry (the list position disambiguates
///   duplicate lines); config fingerprints the batch flags so a journal
///   from a differently-configured run never satisfies --resume;
/// - class is the supervisor's exit classification; signal/exit carry the
///   raw wait-status detail; issues the reported flow count;
/// - terminal marks a final outcome (clean/truncated/error, or a
///   crash/timeout/oom whose retry budget is spent).
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SERVER_JOURNAL_H
#define TAJ_SERVER_JOURNAL_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace taj {
namespace server {

/// How a supervised worker left the world, derived from its exit code or
/// wait status. The first six wire statuses (server::Status) mirror it; a
/// journal record holds one of these, never a server-side refusal.
enum class ExitClass : uint8_t {
  Clean,     ///< exited 0: analysis ran to completion
  Truncated, ///< exited 2: governance cutoff degraded the run
  Error,     ///< exited with any other code: deterministic failure
  Crashed,   ///< killed by a signal (segfault, abort, ...)
  Timeout,   ///< killed by the watchdog (or RLIMIT_CPU's SIGXCPU)
  Oom,       ///< killed by SIGKILL (kernel OOM discipline) or the
             ///< worker's allocation-failure handler under RLIMIT_AS
};

const char *exitClassName(ExitClass C);
bool exitClassFromName(const std::string &Name, ExitClass &Out);

/// One journal record: the outcome of one attempt at one app.
struct Attempt {
  uint64_t Line = 0;      ///< position in the batch list
  std::string App;        ///< display name (files joined by spaces)
  std::string ConfigFp;   ///< batch config fingerprint
  unsigned AttemptNo = 1; ///< 1 = first attempt, 2 = first retry, ...
  ExitClass Class = ExitClass::Error;
  int Signal = 0;     ///< terminating signal (0 when exited normally)
  int Exit = -1;      ///< exit code (-1 when killed by a signal)
  uint64_t Issues = 0;
  bool Terminal = false;
};

/// Append-side of the journal. Opens lazily, appends one flushed line per
/// record; append failures are reported once on stderr and swallowed (a
/// broken journal must not take down the batch it exists to protect).
class Journal {
public:
  Journal() = default;
  explicit Journal(std::string Path) : Path(std::move(Path)) {}
  ~Journal();
  Journal(const Journal &) = delete;
  Journal &operator=(const Journal &) = delete;

  bool configured() const { return !Path.empty(); }
  void append(const Attempt &A);

  /// Serializes \p A as one JSONL line (no trailing newline).
  static std::string toLine(const Attempt &A);
  /// Parses one journal line; false on any malformation.
  static bool fromLine(const std::string &Line, Attempt &Out);
  /// Loads every well-formed record of \p Path (a missing file yields an
  /// empty journal; torn or foreign lines are skipped).
  static std::vector<Attempt> load(const std::string &Path);

private:
  std::string Path;
  std::FILE *Out = nullptr;
  bool OpenFailed = false;
};

} // namespace server
} // namespace taj

#endif // TAJ_SERVER_JOURNAL_H
