//===- tests/persist_test.cpp - Artifact store properties ----------------===//
//
// The persistent artifact cache is strictly an accelerator, and these
// tests pin down that contract:
//  - record framing: version/checksum/kind verification rejects anything
//    that is not exactly what was stored;
//  - program serialization round-trips print-identically;
//  - warm runs are byte-identical to cold runs for every Table 1 preset
//    and at every thread count;
//  - corrupted, truncated and version-mismatched entries fall back to
//    cold computation without changing results;
//  - LRU eviction respects the byte cap;
//  - an app's persist.* rows are its cache windows' deltas, so over one
//    cache they add up to the cache's lifetime counters;
//  - the taj-cli batch mode matches separate cold runs exactly.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generator.h"
#include "core/TaintAnalysis.h"
#include "ir/Printer.h"
#include "persist/Cache.h"
#include "report/ReportGenerator.h"
#include "server/Service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace taj;
namespace fs = std::filesystem;

namespace {

/// Self-cleaning scratch directory for one test.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/taj-persist-XXXXXX";
    const char *D = ::mkdtemp(Buf);
    EXPECT_NE(D, nullptr);
    Path = D ? D : "";
  }
  ~TempDir() {
    if (!Path.empty()) {
      std::error_code Ec;
      fs::remove_all(Path, Ec);
    }
  }
};

const AppSpec &specByName(const char *Name) {
  static std::vector<AppSpec> Suite = benchmarkSuite();
  for (const AppSpec &S : Suite)
    if (S.Name == Name)
      return S;
  return Suite[0];
}

/// Everything one analysis run produced that a caching layer could break.
struct RunOut {
  std::set<std::tuple<StmtId, StmtId, RuleMask>> Set;
  std::string Report;
  uint64_t Hits = 0, Misses = 0, Stores = 0, Evicts = 0, Corrupt = 0,
           VersionMiss = 0;
};

RunOut runApp(const char *Name, AnalysisConfig C,
              persist::ArtifactCache *Cache) {
  GeneratedApp A = generateApp(specByName(Name));
  if (Cache) {
    C.Cache = Cache;
    C.InputFingerprint = std::string("app:") + Name;
  }
  TaintAnalysis TA(*A.P, std::move(C));
  AnalysisResult R = TA.run({A.Root});
  RunOut O;
  for (const Issue &I : R.Issues)
    O.Set.insert({I.Source, I.Sink, I.Rule});
  O.Report = renderReports(*A.P, generateReports(*A.P, R.Issues), &R.Status);
  O.Hits = R.RunStats.get("persist.hit");
  O.Misses = R.RunStats.get("persist.miss");
  O.Stores = R.RunStats.get("persist.store");
  O.Evicts = R.RunStats.get("persist.evict");
  O.Corrupt = R.RunStats.get("persist.corrupt");
  O.VersionMiss = R.RunStats.get("persist.version_miss");
  return O;
}

std::vector<fs::path> cacheEntries(const std::string &Dir) {
  std::vector<fs::path> Out;
  for (const auto &DE : fs::directory_iterator(Dir))
    if (DE.path().extension() == ".tajc")
      Out.push_back(DE.path());
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<uint8_t> readAll(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
}

void writeAll(const fs::path &P, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

/// Patches the stored checksum to match the (mutated) payload, so the
/// mutation survives record verification and exercises the structural
/// restore validation instead.
void refreshChecksum(std::vector<uint8_t> &Record) {
  ASSERT_GE(Record.size(), 32u);
  uint64_t Sum = persist::fnv1aWords(Record.data() + 32, Record.size() - 32);
  for (int I = 0; I < 8; ++I)
    Record[24 + I] = static_cast<uint8_t>(Sum >> (8 * I));
}

std::string runCli(const std::string &Args, int &ExitCode) {
  std::string Cmd = std::string(TAJ_CLI_PATH) + " " + Args;
  FILE *P = ::popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr);
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int St = ::pclose(P);
  ExitCode = WIFEXITED(St) ? WEXITSTATUS(St) : -1;
  return Out;
}

//===----------------------------------------------------------------------===//
// Record framing
//===----------------------------------------------------------------------===//

TEST(RecordFraming, RoundTripsAndRejectsEveryMutation) {
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5, 6, 7};
  std::vector<uint8_t> Rec =
      persist::wrapRecord(persist::ArtifactKind::PointsTo, Payload);
  const uint8_t *P = nullptr;
  size_t N = 0;
  std::string Err;
  ASSERT_TRUE(
      persist::unwrapRecord(Rec, persist::ArtifactKind::PointsTo, P, N, Err))
      << Err;
  EXPECT_EQ(std::vector<uint8_t>(P, P + N), Payload);

  // Kind mismatch: a pts record must not unwrap as an SDG.
  EXPECT_FALSE(persist::unwrapRecord(Rec, persist::ArtifactKind::Sdg, P, N,
                                     Err));
  EXPECT_FALSE(Err.empty());

  // Truncation, at the header and inside the payload.
  std::vector<uint8_t> Short(Rec.begin(), Rec.begin() + 16);
  EXPECT_FALSE(persist::unwrapRecord(Short, persist::ArtifactKind::PointsTo,
                                     P, N, Err));
  std::vector<uint8_t> Cut(Rec.begin(), Rec.end() - 1);
  EXPECT_FALSE(persist::unwrapRecord(Cut, persist::ArtifactKind::PointsTo, P,
                                     N, Err));

  // A single flipped payload bit fails the checksum.
  std::vector<uint8_t> Flip = Rec;
  Flip[34] ^= 0x10;
  EXPECT_FALSE(persist::unwrapRecord(Flip, persist::ArtifactKind::PointsTo, P,
                                     N, Err));

  // A bumped format version is a mismatch even with a valid checksum, and
  // the extended API tells it apart from corruption.
  std::vector<uint8_t> Ver = Rec;
  Ver[4] ^= 1;
  EXPECT_FALSE(persist::unwrapRecord(Ver, persist::ArtifactKind::PointsTo, P,
                                     N, Err));
  EXPECT_EQ(persist::unwrapRecordEx(Ver, persist::ArtifactKind::PointsTo, P,
                                    N, Err),
            persist::UnwrapStatus::VersionMismatch);
  EXPECT_EQ(persist::unwrapRecordEx(Flip, persist::ArtifactKind::PointsTo, P,
                                    N, Err),
            persist::UnwrapStatus::Corrupt);

  // Bad magic.
  std::vector<uint8_t> Magic = Rec;
  Magic[0] ^= 0xff;
  EXPECT_FALSE(persist::unwrapRecord(Magic, persist::ArtifactKind::PointsTo,
                                     P, N, Err));
}

TEST(RecordFraming, FormatV2RecordsAreVersionMissesNotCorruption) {
  // v3 dropped the points-to representative column. A record of the v2
  // generation is stale, not damaged: it must unwrap as a version
  // mismatch (persist.version_miss), never as corruption.
  std::vector<uint8_t> Rec =
      persist::wrapRecord(persist::ArtifactKind::PointsTo, {1, 2, 3});
  ASSERT_GT(Rec.size(), 8u);
  Rec[4] = 2; // little-endian u32 format version
  Rec[5] = Rec[6] = Rec[7] = 0;
  const uint8_t *P = nullptr;
  size_t N = 0;
  std::string Err;
  EXPECT_EQ(persist::unwrapRecordEx(Rec, persist::ArtifactKind::PointsTo, P,
                                    N, Err),
            persist::UnwrapStatus::VersionMismatch);
  EXPECT_NE(Err.find("format version 2"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Program serialization
//===----------------------------------------------------------------------===//

TEST(ProgramSerialization, RoundTripIsPrintIdentical) {
  for (const char *Name : {"A", "BlueBlog"}) {
    GeneratedApp App = generateApp(specByName(Name));
    App.P->indexStatements();
    persist::Writer W;
    persist::Access::serializeProgram(*App.P, W);

    Program Restored;
    persist::Reader R(W.bytes().data(), W.bytes().size());
    ASSERT_TRUE(persist::Access::restoreProgram(Restored, R)) << Name;
    EXPECT_EQ(printProgram(*App.P), printProgram(Restored)) << Name;
    EXPECT_EQ(App.P->numStmts(), Restored.numStmts()) << Name;
  }
}

TEST(ProgramSerialization, RestoreRejectsGarbageWithoutCrashing) {
  GeneratedApp App = generateApp(specByName("A"));
  App.P->indexStatements();
  persist::Writer W;
  persist::Access::serializeProgram(*App.P, W);

  // Truncations at every prefix length of the first 200 bytes, plus a
  // handful of deeper cuts: restore must fail cleanly, never crash.
  const std::vector<uint8_t> &Bytes = W.bytes();
  for (size_t Len = 0; Len < std::min<size_t>(Bytes.size(), 200); ++Len) {
    Program P2;
    persist::Reader R(Bytes.data(), Len);
    EXPECT_FALSE(persist::Access::restoreProgram(P2, R)) << "len=" << Len;
  }
}

//===----------------------------------------------------------------------===//
// Warm == cold
//===----------------------------------------------------------------------===//

TEST(WarmStart, MatchesColdForEveryPreset) {
  TempDir D;
  persist::ArtifactCache Cache(D.Path);
  ASSERT_TRUE(Cache.enabled());

  auto Presets = [] {
    return std::vector<AnalysisConfig>{
        AnalysisConfig::hybridUnbounded(), AnalysisConfig::hybridPrioritized(200),
        AnalysisConfig::hybridOptimized(), AnalysisConfig::cs(),
        AnalysisConfig::ci()};
  };
  std::vector<RunOut> Cold;
  for (AnalysisConfig &C : Presets())
    Cold.push_back(runApp("BlueBlog", std::move(C), &Cache));
  std::vector<RunOut> Warm;
  for (AnalysisConfig &C : Presets())
    Warm.push_back(runApp("BlueBlog", std::move(C), &Cache));

  for (size_t I = 0; I < Cold.size(); ++I) {
    EXPECT_EQ(Cold[I].Set, Warm[I].Set) << "preset " << I;
    EXPECT_EQ(Cold[I].Report, Warm[I].Report) << "preset " << I;
    EXPECT_EQ(Warm[I].Corrupt, 0u) << "preset " << I;
    // Whatever the cold run stored, the warm run must find. Hits can
    // exceed stores: presets sharing a points-to fingerprint (cs/ci with
    // hybrid-unbounded) reuse the pts entry an earlier preset stored and
    // only add their own sdg. Budget-truncated runs store like clean
    // ones; only governance stops (deadline, memory, cancellation) store
    // nothing.
    EXPECT_GE(Warm[I].Hits, Cold[I].Stores) << "preset " << I;
  }
  // The unbounded hybrid preset completes cleanly, so it must actually
  // exercise the warm path.
  EXPECT_EQ(Cold[0].Stores, 2u);
  EXPECT_EQ(Warm[0].Hits, 2u);
}

TEST(WarmStart, ByteIdenticalAcrossThreadCounts) {
  TempDir D;
  persist::ArtifactCache Cache(D.Path);
  AnalysisConfig C1 = AnalysisConfig::hybridUnbounded();
  C1.Threads = 1;
  RunOut Cold = runApp("I", std::move(C1), &Cache);
  ASSERT_EQ(Cold.Stores, 2u);

  // The thread count is excluded from the fingerprints on purpose: an
  // 8-thread warm run reuses the single-threaded entries and still
  // produces byte-identical output.
  AnalysisConfig C8 = AnalysisConfig::hybridUnbounded();
  C8.Threads = 8;
  RunOut Warm = runApp("I", std::move(C8), &Cache);
  EXPECT_EQ(Warm.Hits, 2u);
  EXPECT_EQ(Cold.Set, Warm.Set);
  EXPECT_EQ(Cold.Report, Warm.Report);
}

TEST(WarmStart, SlicingOnlyConfigChangeReusesPrefix) {
  TempDir D;
  persist::ArtifactCache Cache(D.Path);
  RunOut Cold = runApp("A", AnalysisConfig::hybridUnbounded(), &Cache);
  ASSERT_EQ(Cold.Stores, 2u);

  // MaxFlowLength only affects slicing, so both the pts and sdg entries
  // are reused; the tightened run just filters more flows.
  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.MaxFlowLength = 6;
  RunOut Bounded = runApp("A", std::move(C), &Cache);
  EXPECT_EQ(Bounded.Hits, 2u);
  for (const auto &T : Bounded.Set)
    EXPECT_TRUE(Cold.Set.count(T)) << "bounded warm run invented a flow";
}

/// Everything a warm run must reproduce exactly, down to the string pool
/// the run leaves behind.
struct FullRun {
  std::string Report;
  std::vector<std::tuple<StmtId, StmtId, RuleMask, uint32_t,
                         std::vector<StmtId>>>
      Issues;
  std::vector<std::string> Pool;
  std::string ConstStrStats;
  bool BudgetExhausted = false;
  Stats RunStats;
};

/// One run on a freshly generated program, so a warm start cannot lean on
/// symbols an earlier run left in the pool.
FullRun runFresh(const char *Name, AnalysisConfig C,
                 persist::ArtifactCache &Cache) {
  GeneratedApp A = generateApp(specByName(Name));
  C.Cache = &Cache;
  C.InputFingerprint = std::string("app:") + Name;
  TaintAnalysis TA(*A.P, std::move(C));
  AnalysisResult R = TA.run({A.Root});
  FullRun O;
  O.Report = renderReports(*A.P, generateReports(*A.P, R.Issues), &R.Status);
  for (const Issue &I : R.Issues)
    O.Issues.emplace_back(I.Source, I.Sink, I.Rule, I.Length, I.Path);
  for (Symbol S = 0; S < A.P->Pool.size(); ++S)
    O.Pool.emplace_back(A.P->Pool.str(S));
  O.ConstStrStats = TA.constStrings().stats().toString();
  O.BudgetExhausted = R.BudgetExhausted;
  O.RunStats = std::move(R.RunStats);
  return O;
}

TEST(WarmStart, BudgetedPresetsRestoreTheWholePointerPhase) {
  // The paper's recommended presets at bench scale. At budget 400 Roller
  // and VQWiki truncate the call graph and SBM does not; either way the
  // pts record carries the string facts and the pool symbols, so the warm
  // run neither reruns string analysis nor ends with a different pool.
  const std::pair<const char *, bool> Apps[] = {
      {"Roller", true}, {"VQWiki", true}, {"SBM", false}};
  for (const auto &[Name, Truncated] : Apps) {
    for (bool Optimized : {false, true}) {
      auto Config = [&] {
        return Optimized ? AnalysisConfig::hybridOptimized(400, 20000, 14, 2)
                         : AnalysisConfig::hybridPrioritized(400);
      };
      SCOPED_TRACE(std::string(Name) +
                   (Optimized ? " hybrid-optimized" : " hybrid-prioritized"));
      TempDir D;
      persist::ArtifactCache Cache(D.Path);
      FullRun Cold = runFresh(Name, Config(), Cache);
      FullRun Warm = runFresh(Name, Config(), Cache);
      EXPECT_EQ(Cold.BudgetExhausted, Truncated);
      EXPECT_EQ(Cold.RunStats.get("persist.store"), 2u);
      EXPECT_EQ(Warm.RunStats.get("persist.hit"), 2u);
      EXPECT_EQ(Warm.RunStats.toString().find("phase.conststr_us"),
                std::string::npos);
      EXPECT_EQ(Warm.RunStats.toString().find("phase.pointsto_us"),
                std::string::npos);
      EXPECT_EQ(Cold.Report, Warm.Report);
      EXPECT_EQ(Cold.Issues, Warm.Issues);
      EXPECT_EQ(Cold.Pool, Warm.Pool);
      EXPECT_EQ(Cold.ConstStrStats, Warm.ConstStrStats);
      EXPECT_FALSE(Cold.ConstStrStats.empty());
    }
  }
}

TEST(WarmStart, OnlyGovernanceStopsStayUncached) {
  TempDir D;
  persist::ArtifactCache Cache(D.Path);

  // A cancellation is a governance stop: nothing it produced may be
  // replayed, so the run stores no pts record (and, having skipped the
  // SDG phase, no sdg record either).
  RunGuard Cancelled;
  Cancelled.cancel();
  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.ExternalGuard = &Cancelled;
  FullRun Stopped = runFresh("A", std::move(C), Cache);
  EXPECT_EQ(Stopped.RunStats.get("guard.cutoff.cancelled"), 1u);
  EXPECT_EQ(Stopped.RunStats.get("persist.store"), 0u);
  EXPECT_TRUE(cacheEntries(D.Path).empty());

  // A node-budget truncation is deterministic: its solution is stored
  // alongside the SDG, and a warm run replays the banner's work count.
  AnalysisConfig B = AnalysisConfig::hybridUnbounded();
  B.MaxCallGraphNodes = 2;
  FullRun Budgeted = runFresh("A", B, Cache);
  ASSERT_TRUE(Budgeted.BudgetExhausted);
  EXPECT_EQ(Budgeted.RunStats.get("persist.store"), 2u);
  EXPECT_EQ(cacheEntries(D.Path).size(), 2u);
  FullRun Warm = runFresh("A", B, Cache);
  EXPECT_EQ(Warm.RunStats.get("persist.hit"), 2u);
  EXPECT_NE(Budgeted.Report.find("truncated (node-budget) after"),
            std::string::npos);
  EXPECT_EQ(Budgeted.Report, Warm.Report);
}

//===----------------------------------------------------------------------===//
// Corruption handling
//===----------------------------------------------------------------------===//

TEST(Corruption, DamagedEntriesFallBackColdWithIdenticalResults) {
  TempDir D;
  persist::ArtifactCache Cache(D.Path);
  RunOut Cold = runApp("BlueBlog", AnalysisConfig::hybridUnbounded(), &Cache);
  ASSERT_EQ(Cold.Stores, 2u);

  // Round 1: truncate one entry, flip a payload bit in the other.
  std::vector<fs::path> Entries = cacheEntries(D.Path);
  ASSERT_EQ(Entries.size(), 2u);
  fs::resize_file(Entries[0], 16);
  std::vector<uint8_t> Bytes = readAll(Entries[1]);
  ASSERT_GT(Bytes.size(), 40u);
  Bytes[40] ^= 0x20;
  writeAll(Entries[1], Bytes);

  RunOut W1 = runApp("BlueBlog", AnalysisConfig::hybridUnbounded(), &Cache);
  EXPECT_EQ(Cold.Set, W1.Set);
  EXPECT_EQ(Cold.Report, W1.Report);
  EXPECT_EQ(W1.Hits, 0u);
  EXPECT_EQ(W1.Corrupt, 2u);
  EXPECT_EQ(W1.VersionMiss, 0u) << "damage is corruption, not staleness";
  EXPECT_EQ(W1.Stores, 2u) << "fallback cold run must refill the cache";

  // Round 2: bump the format-version byte of every (refilled) entry. A
  // record written by a different format generation is expected churn, so
  // it must fall back as a clean version miss — not count as corruption.
  for (const fs::path &E : cacheEntries(D.Path)) {
    std::vector<uint8_t> B = readAll(E);
    ASSERT_GT(B.size(), 4u);
    B[4] ^= 1;
    writeAll(E, B);
  }
  RunOut W2 = runApp("BlueBlog", AnalysisConfig::hybridUnbounded(), &Cache);
  EXPECT_EQ(Cold.Set, W2.Set);
  EXPECT_EQ(Cold.Report, W2.Report);
  EXPECT_EQ(W2.Hits, 0u);
  EXPECT_EQ(W2.Corrupt, 0u) << "a stale format generation is not corruption";
  EXPECT_EQ(W2.VersionMiss, 2u);
  EXPECT_EQ(W2.Stores, 2u) << "fallback cold run must refill the cache";

  // Round 3: untouched entries finally serve a clean warm start.
  RunOut W3 = runApp("BlueBlog", AnalysisConfig::hybridUnbounded(), &Cache);
  EXPECT_EQ(Cold.Set, W3.Set);
  EXPECT_EQ(Cold.Report, W3.Report);
  EXPECT_EQ(W3.Hits, 2u);
  EXPECT_EQ(W3.Corrupt, 0u);
  EXPECT_EQ(W3.VersionMiss, 0u);
}

TEST(Corruption, StructurallyInvalidPayloadFailsRestoreNotResults) {
  TempDir D;
  persist::ArtifactCache Cache(D.Path);
  RunOut Cold = runApp("A", AnalysisConfig::hybridUnbounded(), &Cache);
  ASSERT_EQ(Cold.Stores, 2u);

  // Blow up the leading element count of each payload and re-sign the
  // record, so it passes the checksum but must be caught by the bounds
  // validation inside the structural restore.
  for (const fs::path &E : cacheEntries(D.Path)) {
    std::vector<uint8_t> B = readAll(E);
    ASSERT_GT(B.size(), 36u);
    B[32] = B[33] = B[34] = B[35] = 0xff;
    refreshChecksum(B);
    writeAll(E, B);
  }
  RunOut Warm = runApp("A", AnalysisConfig::hybridUnbounded(), &Cache);
  EXPECT_EQ(Cold.Set, Warm.Set);
  EXPECT_EQ(Cold.Report, Warm.Report);
  EXPECT_EQ(Warm.Hits, 2u) << "records verify, so loads count as hits";
  EXPECT_EQ(Warm.Corrupt, 2u) << "but structural restore must reject them";
}

//===----------------------------------------------------------------------===//
// Eviction
//===----------------------------------------------------------------------===//

TEST(Eviction, ByteCapIsEnforced) {
  TempDir D;
  // A 1-byte cap can hold nothing: every store is immediately evicted,
  // results stay correct, and the directory never exceeds the cap.
  persist::ArtifactCache Cache(D.Path, 1);
  RunOut Cold = runApp("A", AnalysisConfig::hybridUnbounded(), &Cache);
  EXPECT_EQ(Cold.Stores, 2u);
  EXPECT_EQ(Cold.Evicts, 2u);
  EXPECT_TRUE(cacheEntries(D.Path).empty());

  RunOut Again = runApp("A", AnalysisConfig::hybridUnbounded(), &Cache);
  EXPECT_EQ(Cold.Set, Again.Set);
  EXPECT_EQ(Cold.Report, Again.Report);
  EXPECT_EQ(Again.Hits, 0u);
}

TEST(Eviction, GenerousCapKeepsEntries) {
  TempDir D;
  persist::ArtifactCache Cache(D.Path, 64ull * 1024 * 1024);
  RunOut Cold = runApp("A", AnalysisConfig::hybridUnbounded(), &Cache);
  EXPECT_EQ(Cold.Stores, 2u);
  EXPECT_EQ(Cold.Evicts, 0u);
  EXPECT_EQ(cacheEntries(D.Path).size(), 2u);
  RunOut Warm = runApp("A", AnalysisConfig::hybridUnbounded(), &Cache);
  EXPECT_EQ(Warm.Hits, 2u);
}

TEST(Eviction, GraceWindowShieldsFreshEntriesFromEviction) {
  TempDir D;
  // Same 1-byte cap as ByteCapIsEnforced, but a one-hour grace window:
  // the just-stored entries are exactly what a concurrent worker may be
  // mid-read on, so eviction must skip (and count) them instead.
  persist::ArtifactCache Cache(D.Path, 1, 3600 * 1000);
  RunOut Cold = runApp("A", AnalysisConfig::hybridUnbounded(), &Cache);
  EXPECT_EQ(Cold.Stores, 2u);
  EXPECT_EQ(Cold.Evicts, 0u);
  EXPECT_GT(Cache.counters().EvictSkipped, 0u);
  EXPECT_EQ(cacheEntries(D.Path).size(), 2u);

  // The shielded entries are still valid: the warm run hits them.
  RunOut Warm = runApp("A", AnalysisConfig::hybridUnbounded(), &Cache);
  EXPECT_EQ(Warm.Hits, 2u);
  EXPECT_EQ(Cold.Set, Warm.Set);
  EXPECT_EQ(Cold.Report, Warm.Report);
}

TEST(Eviction, GraceWindowSweepsStaleTempFiles) {
  TempDir D;
  // A crashed worker's leftover temp file, aged past the grace window,
  // is swept during eviction; a fresh one is left alone.
  std::ofstream(D.Path + "/dead.tajc.tmp.1234") << "leftover";
  std::ofstream(D.Path + "/live.tajc.tmp.5678") << "in flight";
  struct timespec Old[2] = {{1, 0}, {1, 0}}; // epoch-ish mtime
  ASSERT_EQ(::utimensat(AT_FDCWD, (D.Path + "/dead.tajc.tmp.1234").c_str(),
                        Old, 0),
            0);
  persist::ArtifactCache Cache(D.Path, 1, 60 * 1000);
  runApp("A", AnalysisConfig::hybridUnbounded(), &Cache);
  EXPECT_FALSE(fs::exists(D.Path + "/dead.tajc.tmp.1234"));
  EXPECT_TRUE(fs::exists(D.Path + "/live.tajc.tmp.5678"));
}

//===----------------------------------------------------------------------===//
// Counter windows
//===----------------------------------------------------------------------===//

/// The persist.* lines of \p S, as "name=value".
std::vector<std::string> persistRows(const Stats &S) {
  std::vector<std::string> Rows;
  std::istringstream In(S.toString());
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("persist.", 0) == 0)
      Rows.push_back(Line);
  return Rows;
}

TEST(CounterWindows, AppStatsAddUpToTheCacheLifetime) {
  TempDir D;
  // More than the 1 MiB cap in fresh filler entries, all inside the
  // one-hour grace window: every eviction pass skips every entry, the
  // filler and this app's own records alike.
  for (int I = 0; I < 3; ++I)
    writeAll(D.Path + "/filler-" + std::to_string(I) + ".tajc",
             std::vector<uint8_t>(600 * 1000, 0));
  persist::ArtifactCache Cache(D.Path, 1024 * 1024, 3600 * 1000);
  const std::vector<server::AppSource> Src = {{TAJ_EXAMPLE_TAJ, false, ""}};
  Stats S;
  for (const char *Pass : {"cold", "warm"})
    ASSERT_EQ(server::analyzeApp(Src, server::RunOptions(), &Cache, &S).Exit,
              server::ExitClean)
        << Pass;
  // An exit before the analysis reports its frontend window too.
  server::RunOptions DumpIr;
  DumpIr.DumpIr = true;
  ASSERT_EQ(server::analyzeApp(Src, DumpIr, &Cache, &S).Exit,
            server::ExitClean);

  const persist::ArtifactCache::Counters C = Cache.counters();
  EXPECT_EQ(C.Stores, 3u); // ir, pts, sdg
  EXPECT_EQ(C.Hits, 4u);   // the warm pass's three, then the ir record
  // One pass per stored record, over 3 filler entries plus the records
  // stored so far: 4 + 5 + 6.
  EXPECT_EQ(C.EvictSkipped, 15u);
  EXPECT_EQ(C.Evictions, 0u);
  Stats Lifetime;
  Cache.exportSince(persist::ArtifactCache::Counters(), Lifetime);
  EXPECT_EQ(persistRows(S), persistRows(Lifetime));
  EXPECT_EQ(persistRows(S).size(), 8u);
}

//===----------------------------------------------------------------------===//
// taj-cli end to end
//===----------------------------------------------------------------------===//

TEST(Cli, WarmRunIsByteIdenticalAndBatchMatchesSeparateRuns) {
  TempDir D;
  const std::string Example = TAJ_EXAMPLE_TAJ;
  const std::string Copy = D.Path + "/copy.taj";
  fs::copy_file(Example, Copy);

  int Exit = -1;
  std::string NoCache = runCli("\"" + Example + "\" 2>/dev/null", Exit);
  ASSERT_EQ(Exit, 0);
  ASSERT_FALSE(NoCache.empty());

  const std::string CacheDir = D.Path + "/cache";
  std::string ColdRun = runCli(
      "--cache-dir=\"" + CacheDir + "\" \"" + Example + "\" 2>/dev/null",
      Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(NoCache, ColdRun) << "cold cached run diverged from uncached";
  std::string WarmRun = runCli(
      "--cache-dir=\"" + CacheDir + "\" \"" + Example + "\" 2>/dev/null",
      Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(NoCache, WarmRun) << "warm run diverged from cold";

  // Raw flow count feeds the expected batch summary lines.
  std::string Raw = runCli("--raw \"" + Example + "\" 2>/dev/null", Exit);
  ASSERT_EQ(Exit, 0);
  size_t NumIssues = std::count(Raw.begin(), Raw.end(), '\n');

  // Batch over (example, identical copy): the copy shares the input
  // fingerprint and warm-starts from the first app's entries inside the
  // same process; output must still be the separate runs' concatenation.
  const std::string ListFile = D.Path + "/list.txt";
  {
    std::ofstream L(ListFile);
    L << "# taj-cli batch list\n\n" << Example << "\n" << Copy << "\n";
  }
  const std::string BatchCache = D.Path + "/batchcache";
  std::string Batch = runCli("--cache-dir=\"" + BatchCache + "\" --batch=\"" +
                                 ListFile + "\" 2>/dev/null",
                             Exit);
  EXPECT_EQ(Exit, 0);
  std::string Expected;
  for (const std::string &App : {Example, Copy})
    Expected += "=== " + App + "\n" + NoCache + "--- " + App +
                ": exit=0 issues=" + std::to_string(NumIssues) + "\n";
  EXPECT_EQ(Batch, Expected);
}

TEST(Cli, MalformedNumericFlagsAreUsageErrors) {
  const std::string Example = TAJ_EXAMPLE_TAJ;
  for (const char *Bad :
       {"--budget=abc", "--max-flow-length=12x", "--nested-depth=",
        "--cache-max-mb=-3", "--budget=1e"}) {
    int Exit = -1;
    std::string Out =
        runCli(std::string(Bad) + " \"" + Example + "\" 2>&1", Exit);
    EXPECT_EQ(Exit, 1) << Bad;
    EXPECT_NE(Out.find("non-negative number"), std::string::npos) << Bad;
  }
}

TEST(Cli, StatsJsonDumpsAllCounters) {
  TempDir D;
  const std::string Example = TAJ_EXAMPLE_TAJ;
  const std::string Json = D.Path + "/stats.json";
  int Exit = -1;
  runCli("--cache-dir=\"" + D.Path + "/cache\" --stats-json=\"" + Json +
             "\" \"" + Example + "\" 2>/dev/null",
         Exit);
  ASSERT_EQ(Exit, 0);
  std::ifstream In(Json);
  ASSERT_TRUE(In.good());
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  ASSERT_FALSE(Text.empty());
  EXPECT_EQ(Text.front(), '{');
  EXPECT_NE(Text.find("\"persist.hit\":"), std::string::npos);
  EXPECT_NE(Text.find("\"persist.miss\":"), std::string::npos);
  EXPECT_NE(Text.find("\"persist.store\":"), std::string::npos);
  EXPECT_NE(Text.find("\"persist.corrupt\":"), std::string::npos);
}

TEST(Cli, CorruptCacheNeverChangesExitCodeOrOutput) {
  TempDir D;
  const std::string Example = TAJ_EXAMPLE_TAJ;
  const std::string CacheDir = D.Path + "/cache";
  int Exit = -1;
  std::string Cold = runCli(
      "--cache-dir=\"" + CacheDir + "\" \"" + Example + "\" 2>/dev/null",
      Exit);
  ASSERT_EQ(Exit, 0);
  for (const fs::path &E : cacheEntries(CacheDir)) {
    std::vector<uint8_t> B = readAll(E);
    ASSERT_GT(B.size(), 4u);
    B[4] ^= 1; // future format version
    writeAll(E, B);
  }
  std::string Warm = runCli(
      "--cache-dir=\"" + CacheDir + "\" \"" + Example + "\" 2>/dev/null",
      Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(Cold, Warm);
}

} // namespace
