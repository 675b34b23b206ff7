//===- tests/persist_test.cpp - Artifact store properties ----------------===//
//
// The persistent artifact cache is strictly an accelerator, and these
// tests pin down that contract:
//  - record framing: version/checksum/kind verification rejects anything
//    that is not exactly what was stored;
//  - program serialization round-trips print-identically;
//  - warm runs are byte-identical to cold runs for every Table 1 preset;
//  - a restored solver answers every query exactly as the cold one did;
//  - a restored SDG answers every query exactly as the cold one did;
//  - corrupted, truncated and version-mismatched entries fall back to
//    cold computation without changing results, and each invariant of
//    the columnar points-to and SDG records rejects a record that breaks
//    it;
//  - LRU eviction respects the byte cap;
//  - an app's persist.* rows are its cache windows' deltas, so over one
//    cache they add up to the cache's lifetime counters;
//  - the taj-cli batch mode matches separate cold runs exactly.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generator.h"
#include "core/TaintAnalysis.h"
#include "dataflow/ConstString.h"
#include "frontend/Parser.h"
#include "ir/Printer.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"
#include "persist/Cache.h"
#include "report/ReportGenerator.h"
#include "server/Service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
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
  uint64_t Sum =
      persist::recordChecksum(Record.data() + 32, Record.size() - 32);
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

/// unwrapRecord over a whole record, for the tests that only need its
/// verdict and reason.
persist::UnwrapStatus unwrapStatus(const std::vector<uint8_t> &Rec,
                                   persist::ArtifactKind Kind,
                                   std::string &Err) {
  const uint8_t *P = nullptr;
  size_t N = 0;
  return persist::unwrapRecord(Rec.data(), Rec.size(), Kind, P, N, Err);
}

TEST(RecordFraming, RoundTripsAndRejectsEveryMutation) {
  using persist::UnwrapStatus;
  const persist::ArtifactKind Pts = persist::ArtifactKind::PointsTo;
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5, 6, 7};
  std::vector<uint8_t> Rec = persist::wrapRecord(Pts, Payload);
  const uint8_t *P = nullptr;
  size_t N = 0;
  std::string Err;
  ASSERT_EQ(persist::unwrapRecord(Rec.data(), Rec.size(), Pts, P, N, Err),
            UnwrapStatus::Ok)
      << Err;
  EXPECT_EQ(std::vector<uint8_t>(P, P + N), Payload);

  // Kind mismatch: a pts record must not unwrap as an SDG.
  Err.clear();
  EXPECT_EQ(unwrapStatus(Rec, persist::ArtifactKind::Sdg, Err),
            UnwrapStatus::Corrupt);
  EXPECT_FALSE(Err.empty());

  // Truncation, at the header and inside the payload.
  std::vector<uint8_t> Short(Rec.begin(), Rec.begin() + 16);
  EXPECT_EQ(unwrapStatus(Short, Pts, Err), UnwrapStatus::Corrupt);
  std::vector<uint8_t> Cut(Rec.begin(), Rec.end() - 1);
  EXPECT_EQ(unwrapStatus(Cut, Pts, Err), UnwrapStatus::Corrupt);

  // A single flipped payload bit fails the checksum.
  std::vector<uint8_t> Flip = Rec;
  Flip[34] ^= 0x10;
  EXPECT_EQ(unwrapStatus(Flip, Pts, Err), UnwrapStatus::Corrupt);

  // A bumped format version is a mismatch even with a valid checksum, told
  // apart from corruption.
  std::vector<uint8_t> Ver = Rec;
  Ver[4] ^= 1;
  EXPECT_EQ(unwrapStatus(Ver, Pts, Err), UnwrapStatus::VersionMismatch);

  // Bad magic.
  std::vector<uint8_t> Magic = Rec;
  Magic[0] ^= 0xff;
  EXPECT_EQ(unwrapStatus(Magic, Pts, Err), UnwrapStatus::Corrupt);
}

TEST(RecordFraming, EverySingleBitAndPairedTopBitFlipFailsTheChecksum) {
  // A damaged record that passes the checksum is left to the structural
  // checks, and a flipped points-to member or mask bit is structurally
  // valid. A checksum that XORs each word into its state and then
  // multiplies by an odd constant keeps a flip of a word's top bit in the
  // state's top bit, where a second such flip cancels it.
  std::vector<uint8_t> Payload(1024);
  for (size_t I = 0; I < Payload.size(); ++I)
    Payload[I] = static_cast<uint8_t>(I * 131 + 7);
  const persist::ArtifactKind Kind = persist::ArtifactKind::PointsTo;
  std::vector<uint8_t> Rec = persist::wrapRecord(Kind, Payload);
  auto Corrupt = [&] {
    std::string Err;
    return unwrapStatus(Rec, Kind, Err) == persist::UnwrapStatus::Corrupt;
  };
  ASSERT_FALSE(Corrupt());
  const size_t At = 32; // the payload's first byte in the record
  size_t Missed = 0;
  std::string FirstMiss;
  for (size_t Bit = 0; Bit < Payload.size() * 8; ++Bit) {
    const uint8_t Mask = static_cast<uint8_t>(1u << (Bit % 8));
    Rec[At + Bit / 8] ^= Mask;
    if (!Corrupt() && Missed++ == 0)
      FirstMiss = "bit " + std::to_string(Bit);
    Rec[At + Bit / 8] ^= Mask;
  }
  // Bit 7 of byte 8k + 7 is the top bit of little-endian word k.
  for (size_t A = 7; A < Payload.size(); A += 8)
    for (size_t B = A + 8; B < Payload.size(); B += 8) {
      Rec[At + A] ^= 0x80;
      Rec[At + B] ^= 0x80;
      if (!Corrupt() && Missed++ == 0)
        FirstMiss = "top bits of bytes " + std::to_string(A) + " and " +
                    std::to_string(B);
      Rec[At + A] ^= 0x80;
      Rec[At + B] ^= 0x80;
    }
  EXPECT_EQ(Missed, 0u) << "first undetected flip: " << FirstMiss;
  EXPECT_FALSE(Corrupt());
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
  std::string Err;
  EXPECT_EQ(unwrapStatus(Rec, persist::ArtifactKind::PointsTo, Err),
            persist::UnwrapStatus::VersionMismatch);
  EXPECT_NE(Err.find("format version 2"), std::string::npos) << Err;
}

TEST(RecordFraming, FormatV4RecordsAreVersionMissesNotCorruption) {
  // v5 stores the points-to record as columns, v6 the sdg record, v7
  // drops the pts record's in-edges and channels, and v8 changes the
  // header checksum. A v4, v6 or v7 pts or a v5 or v7 sdg record is
  // stale, not damaged: a cache dir written before any of these changes
  // warm-misses cleanly.
  const std::pair<persist::ArtifactKind, uint8_t> Stale[] = {
      {persist::ArtifactKind::PointsTo, 4},
      {persist::ArtifactKind::Sdg, 5},
      {persist::ArtifactKind::PointsTo, 6},
      {persist::ArtifactKind::PointsTo, 7},
      {persist::ArtifactKind::Sdg, 7},
  };
  for (const auto &[Kind, Version] : Stale) {
    std::vector<uint8_t> Rec = persist::wrapRecord(Kind, {1, 2, 3});
    Rec[4] = Version; // little-endian u32 format version
    Rec[5] = Rec[6] = Rec[7] = 0;
    std::string Err;
    EXPECT_EQ(unwrapStatus(Rec, Kind, Err),
              persist::UnwrapStatus::VersionMismatch);
    EXPECT_NE(Err.find("format version " + std::to_string(Version)),
              std::string::npos)
        << Err;
  }

  for (const auto &[Kind, Version] : Stale) {
    SCOPED_TRACE("v" + std::to_string(Version));
    TempDir D;
    {
      persist::ArtifactCache Cache(D.Path);
      runApp("A", AnalysisConfig::hybridUnbounded(), &Cache);
    }
    for (const fs::path &E : cacheEntries(D.Path)) {
      std::vector<uint8_t> B = readAll(E);
      ASSERT_GT(B.size(), 8u);
      B[4] = Version;
      B[5] = B[6] = B[7] = 0;
      writeAll(E, B);
    }
    persist::ArtifactCache Cache(D.Path);
    RunOut Warm = runApp("A", AnalysisConfig::hybridUnbounded(), &Cache);
    EXPECT_EQ(Warm.Hits, 0u);
    EXPECT_EQ(Warm.VersionMiss, 2u);
    EXPECT_EQ(Warm.Corrupt, 0u);
  }
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
        AnalysisConfig::hybridUnbounded(),
        AnalysisConfig::hybridPrioritized(200),
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

/// The pointer phase of one app under \p C, composed as a cold
/// TaintAnalysis::run composes it: string facts, then solve().
struct ColdPhase {
  GeneratedApp App;
  std::unique_ptr<ClassHierarchy> CHA;
  ConstStringResult Strings;
  std::unique_ptr<PointsToSolver> Solver;

  ColdPhase(GeneratedApp A, const AnalysisConfig &C) : App(std::move(A)) {
    App.P->indexStatements();
    CHA = std::make_unique<ClassHierarchy>(*App.P);
    ConstStringOptions CSO;
    CSO.Mode = C.StringAnalysis;
    Strings = analyzeConstStrings(*App.P, *CHA, CSO);
    PointsToOptions PO = C.pointsToOptions();
    PO.ConstStrings = &Strings;
    Solver = std::make_unique<PointsToSolver>(*App.P, *CHA, PO);
    Solver->solve({App.Root});
  }

  std::vector<uint8_t> record() const {
    persist::Writer W;
    persist::Access::serializeSolver(*Solver, W);
    return W.bytes();
  }
};

/// A fresh copy of an app and a never-solved solver over it, as a warm
/// TaintAnalysis::run builds them before restoring.
struct WarmPhase {
  GeneratedApp App;
  std::unique_ptr<ClassHierarchy> CHA;
  std::unique_ptr<PointsToSolver> Solver;

  WarmPhase(GeneratedApp A, const AnalysisConfig &C) : App(std::move(A)) {
    App.P->indexStatements();
    CHA = std::make_unique<ClassHierarchy>(*App.P);
    Solver =
        std::make_unique<PointsToSolver>(*App.P, *CHA, C.pointsToOptions());
  }

  bool restore(const std::vector<uint8_t> &Payload) {
    persist::Reader R(Payload.data(), Payload.size());
    return persist::Access::restoreSolver(*Solver, R);
  }

  std::vector<std::string> pool() const {
    std::vector<std::string> Out;
    for (Symbol S = 0; S < App.P->Pool.size(); ++S)
      Out.emplace_back(App.P->Pool.str(S));
    return Out;
  }
};

template <typename Range> std::vector<uint32_t> vec(const Range &R) {
  return std::vector<uint32_t>(R.begin(), R.end());
}

/// One call site dispatching to two methods, discovered in descending
/// method-id order (the suite apps have no multi-callee site).
constexpr const char *PolymorphicSrc = R"(
class Base extends Object {
  method m(this: Base): Object { o = new Object; return o; }
}
class Zed extends Base {
  method m(this: Zed): Object { o = new Object; return o; }
}
class Alpha extends Base {
  method m(this: Alpha): Object { o = new Object; return o; }
}
class Holder extends Object {
  field f: Base;
}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    h = new Holder;
    a = new Alpha;
    h.f = a;
    z = new Zed;
    h.f = z;
    r = h.f;
    x = r.m();
  }
}
)";

/// One get() site dispatching to two intrinsic models, HashMap.get and
/// List.get (the suite apps have no such site).
constexpr const char *TwoModelSiteSrc = R"(
class Box extends Object {
  field f: Object;
}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    a = req.getParameter("a");
    l = new List;
    m = new HashMap;
    m.put("k", a);
    l.add(a);
    b = new Box;
    b.f = l;
    b.f = m;
    c = b.f;
    g = c.get("k");
  }
}
)";

GeneratedApp parsedApp(const char *Src) {
  GeneratedApp A;
  A.P = std::make_unique<Program>();
  A.Lib = installBuiltinLibrary(*A.P);
  std::vector<std::string> Errors;
  EXPECT_TRUE(parseTaj(*A.P, Src, &Errors))
      << (Errors.empty() ? "?" : Errors.front());
  A.Root = synthesizeEntrypointDriver(*A.P);
  return A;
}

TEST(WarmStart, RestoredQuerySurfaceEqualsCold) {
  const std::pair<const char *, AnalysisConfig> Configs[] = {
      {"hybrid-unbounded", AnalysisConfig::hybridUnbounded()},
      {"hybrid-optimized", AnalysisConfig::hybridOptimized(400, 20000, 14, 2)},
      {"ci", AnalysisConfig::ci()}};
  std::vector<std::pair<std::string, std::function<GeneratedApp()>>> Apps;
  for (const AppSpec &Spec : benchmarkSuite())
    Apps.emplace_back(Spec.Name, [Spec] { return generateApp(Spec); });
  Apps.emplace_back("polymorphic", [] { return parsedApp(PolymorphicSrc); });
  Apps.emplace_back("two-model", [] { return parsedApp(TwoModelSiteSrc); });
  size_t MultiCalleeSites = 0, MultiModelSites = 0;
  for (const auto &[Name, Make] : Apps) {
    for (const auto &[CfgName, C] : Configs) {
      SCOPED_TRACE(Name + " " + CfgName);
      ColdPhase Cold(Make(), C);
      WarmPhase Warm(Make(), C);
      ASSERT_TRUE(Warm.restore(Cold.record()));
      const PointsToSolver &A = *Cold.Solver, &B = *Warm.Solver;
      const Program &P = *Cold.App.P;

      ASSERT_EQ(A.pointerKeys().size(), B.pointerKeys().size());
      size_t Diff = 0;
      for (PKId K = 0; K < A.pointerKeys().size(); ++K)
        Diff += vec(A.pointsTo(K)) != vec(B.pointsTo(K));
      EXPECT_EQ(Diff, 0u) << "pointsTo";
      Diff = 0;
      for (MethodId M = 0; M < P.Methods.size(); ++M)
        Diff += vec(A.callGraph().nodesOf(M)) !=
                    vec(B.callGraph().nodesOf(M)) ||
                A.isMethodProcessed(M) != B.isMethodProcessed(M);
      EXPECT_EQ(Diff, 0u) << "nodesOf / isMethodProcessed";
      ASSERT_EQ(A.callGraph().numNodes(), B.callGraph().numNodes());
      auto SameEdge = [](const CGEdge &X, const CGEdge &Y) {
        return X.Site == Y.Site && X.Callee == Y.Callee;
      };
      Diff = 0;
      for (CGNodeId N = 0; N < A.callGraph().numNodes(); ++N)
        Diff += !std::ranges::equal(A.callGraph().edges(N),
                                    B.callGraph().edges(N), SameEdge);
      EXPECT_EQ(Diff, 0u) << "edges";
      EXPECT_EQ(A.callGraph().numProcessed(), B.callGraph().numProcessed());
      EXPECT_EQ(A.instanceKeys().size(), B.instanceKeys().size());
      Diff = 0;
      for (StmtId S = 0; S < P.numStmts(); ++S) {
        MultiCalleeSites += A.callGraph().calleesAt(S).size() > 1;
        MultiModelSites += A.intrinsicCalleesAt(S).size() > 1;
        Diff += vec(A.callGraph().calleesAt(S)) !=
                    vec(B.callGraph().calleesAt(S)) ||
                vec(A.intrinsicCalleesAt(S)) != vec(B.intrinsicCalleesAt(S));
      }
      EXPECT_EQ(Diff, 0u) << "calleesAt / intrinsicCalleesAt";
      EXPECT_EQ(A.budgetExhausted(), B.budgetExhausted());
      EXPECT_EQ(A.phaseWork(), B.phaseWork());
      std::vector<std::string> ColdPool;
      for (Symbol S = 0; S < P.Pool.size(); ++S)
        ColdPool.emplace_back(P.Pool.str(S));
      EXPECT_EQ(ColdPool, Warm.pool());
    }
  }
  // The per-site callee order is covered only where a site has two.
  EXPECT_GT(MultiCalleeSites, 0u);
  EXPECT_GT(MultiModelSites, 0u);
}

/// The SDG options runSlicer derives from \p C.
SDGOptions sdgOptionsOf(const AnalysisConfig &C) {
  SDGOptions SO;
  SO.ContextExpanded = C.Slicer != SlicerKind::CI;
  SO.WithChanParams = C.Slicer == SlicerKind::CS;
  SO.ModelExceptionSources = C.ModelExceptionSources;
  if (C.Slicer == SlicerKind::CS)
    SO.ChanNodeBudget = C.CsChanBudget;
  return SO;
}

bool sameNode(const SDGNode &A, const SDGNode &B) {
  return A.Kind == B.Kind && A.Owner == B.Owner && A.M == B.M && A.S == B.S &&
         A.Index == B.Index && A.Access == B.Access && A.Aux == B.Aux &&
         A.SourceMask == B.SourceMask && A.SinkMask == B.SinkMask &&
         A.SanitizeMask == B.SanitizeMask && A.IsCall == B.IsCall;
}

bool sameEdges(std::span<const SDGEdge> A, std::span<const SDGEdge> B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end(),
                    [](const SDGEdge &X, const SDGEdge &Y) {
                      return X.To == Y.To && X.Kind == Y.Kind;
                    });
}

TEST(WarmStart, RestoredSdgEqualsCold) {
  const std::pair<const char *, AnalysisConfig> Configs[] = {
      {"hybrid-unbounded", AnalysisConfig::hybridUnbounded()},
      {"hybrid-optimized", AnalysisConfig::hybridOptimized(400, 20000, 14, 2)},
      {"cs", AnalysisConfig::cs()},
      {"ci", AnalysisConfig::ci()}};
  size_t CsGraphs = 0, ChanAnswers = 0;
  for (const AppSpec &Spec : benchmarkSuite()) {
    for (const auto &[CfgName, C] : Configs) {
      SCOPED_TRACE(Spec.Name + " " + CfgName);
      ColdPhase Ph(generateApp(Spec), C);
      const SDGOptions SO = sdgOptionsOf(C);
      persist::SdgArtifacts Cold = persist::loadOrBuildSdg(
          *Ph.App.P, *Ph.CHA, *Ph.Solver, SO, C.NestedTaintDepth, nullptr, "");
      if (Cold.G->chanBudgetExceeded())
        continue; // a CS channel overflow stores no record
      CsGraphs += SO.WithChanParams;
      persist::Writer W;
      persist::Access::serializeSdg(*Cold.G, Cold.HE.get(), W);
      std::unique_ptr<SDG> Warm;
      std::unique_ptr<HeapEdges> WarmHE;
      persist::Reader R(W.bytes().data(), W.bytes().size());
      ASSERT_TRUE(persist::Access::restoreSdg(Warm, WarmHE, *Ph.App.P,
                                              *Ph.Solver, SO, R));
      ASSERT_NE(WarmHE, nullptr);
      const SDG &A = *Cold.G, &B = *Warm;

      ASSERT_EQ(A.numNodes(), B.numNodes());
      size_t Diff = 0;
      for (SDGNodeId N = 0; N < A.numNodes(); ++N)
        Diff += !sameNode(A.node(N), B.node(N)) ||
                !sameEdges(A.succs(N), B.succs(N));
      EXPECT_EQ(Diff, 0u) << "node fields / succs";

      // Call sites, and every actualOutFor answer a summary can ask: each
      // formal-out-like node of each target owner, at each of its sites.
      std::map<SDGOwnerId, std::vector<SDGNodeId>> OutsOf;
      Diff = 0;
      for (SDGNodeId N = 0; N < A.numNodes(); ++N) {
        const SDGNode &Nd = A.node(N);
        if (Nd.Kind == SDGNodeKind::FormalOut ||
            Nd.Kind == SDGNodeKind::ChanFormalOut)
          OutsOf[Nd.Owner].push_back(N);
        const CallSiteInfo *X = A.callSite(N), *Y = B.callSite(N);
        Diff += (X == nullptr) != (Y == nullptr) ||
                (X && (X->StmtNode != Y->StmtNode ||
                       X->FirstActualIn != Y->FirstActualIn ||
                       X->NumActualIns != Y->NumActualIns));
      }
      EXPECT_EQ(Diff, 0u) << "callSite";
      Diff = 0;
      for (const auto &[Owner, Outs] : OutsOf)
        for (const SDGEdge &E : A.succs(Outs.front())) {
          const CallSiteInfo *X = A.callSite(E.To), *Y = B.callSite(E.To);
          if (E.Kind != SDGEdgeKind::ParamOut || !X || !Y)
            continue;
          for (SDGNodeId F : Outs) {
            const SDGNodeId AOut = A.actualOutFor(*X, F);
            Diff += AOut != B.actualOutFor(*Y, F);
            ChanAnswers += AOut != InvalidId &&
                           A.node(F).Kind == SDGNodeKind::ChanFormalOut;
          }
        }
      EXPECT_EQ(Diff, 0u) << "actualOutFor";

      EXPECT_EQ(A.storeNodes(), B.storeNodes());
      EXPECT_EQ(A.loadNodes(), B.loadNodes());
      EXPECT_EQ(A.sinkNodes(), B.sinkNodes());
      Diff = 0;
      for (SDGNodeId St : A.storeNodes())
        Diff += !std::ranges::equal(Cold.HE->loadsFor(St),
                                    WarmHE->loadsFor(St)) ||
                !std::ranges::equal(Cold.HE->carrierSinksFor(St),
                                    WarmHE->carrierSinksFor(St));
      EXPECT_EQ(Diff, 0u) << "loadsFor / carrierSinksFor";
      EXPECT_EQ(A.numChanNodes(), B.numChanNodes());
      EXPECT_EQ(A.chanBudgetExceeded(), B.chanBudgetExceeded());
    }
  }
  // CS graphs with channel plumbing are covered, not just skipped.
  EXPECT_GT(CsGraphs, 0u);
  EXPECT_GT(ChanAnswers, 0u);
}

//===----------------------------------------------------------------------===//
// PersistPoison: every column invariant of the pts and sdg records rejects
// its record
//===----------------------------------------------------------------------===//

/// Where each column of a pts record (layout unchanged since v7) starts,
/// found by walking the record the way restoreSolver reads it.
struct PtsLayout {
  uint32_t NumCtxs = 0, NumIKs = 0, NumNodes = 0, NumPKs = 0, NumKeys = 0,
           NumChunks = 0, NumIntr = 0;
  size_t CtxKind = 0, CtxData = 0, CtxDepth = 0;
  size_t IKKind = 0; // then Site, Heap, Cls, Extra: NumIKs * 4 apart
  size_t PKKind = 0, PKA = 0, PKB = 0;
  size_t PtsOffsets = 0, PtsIdx = 0, PtsWords = 0;
  /// The intrinsic-target columns' length words; each column's NumIntr
  /// values follow its length.
  size_t IntrSitesLen = 0, IntrCalleesLen = 0;
};

uint32_t getU32At(const std::vector<uint8_t> &B, size_t At) {
  uint32_t V = 0;
  for (int K = 0; K < 4; ++K)
    V |= uint32_t(B[At + K]) << (8 * K);
  return V;
}

void putU32At(std::vector<uint8_t> &B, size_t At, uint32_t V) {
  for (int K = 0; K < 4; ++K)
    B[At + K] = static_cast<uint8_t>(V >> (8 * K));
}

bool walkPts(const std::vector<uint8_t> &B, PtsLayout &L) {
  persist::Reader R(B.data(), B.size());
  auto Pos = [&] { return B.size() - R.remaining(); };
  auto Skip = [&](uint64_t N) { return R.block(N) != nullptr || N == 0; };
  auto SkipVec = [&] { return Skip(uint64_t(R.u32()) * 4); };
  R.u32();
  for (uint32_t N = R.u32(); N > 0 && !R.failed(); --N)
    R.str();
  R.u8();
  R.u8();
  SkipVec();
  SkipVec();
  R.str();
  R.u64();
  L.NumCtxs = R.u32();
  L.CtxKind = Pos();
  L.CtxData = L.CtxKind + (L.NumCtxs - 1);
  L.CtxDepth = L.CtxData + 4 * (L.NumCtxs - 1);
  Skip(9 * uint64_t(L.NumCtxs - 1));
  L.NumIKs = R.u32();
  L.IKKind = Pos();
  Skip(17 * uint64_t(L.NumIKs));
  L.NumNodes = R.u32();
  Skip(9 * uint64_t(L.NumNodes));
  uint64_t NumEdges = 0; // out-edges: counts, then sites and callees
  for (uint32_t N = 0; N < L.NumNodes; ++N)
    NumEdges += R.u32();
  Skip(NumEdges * 8);
  SkipVec(); // per-site callee offsets
  SkipVec(); // per-site callees
  L.NumPKs = R.u32();
  L.PKKind = Pos();
  L.PKA = L.PKKind + L.NumPKs;
  L.PKB = L.PKA + 4 * uint64_t(L.NumPKs);
  Skip(9 * uint64_t(L.NumPKs));
  L.NumKeys = R.u32();
  L.PtsOffsets = Pos();
  Skip(4 * (uint64_t(L.NumKeys) + 1));
  L.PtsIdx = Pos();
  L.NumChunks = getU32At(B, L.PtsIdx - 4); // the last offset
  L.PtsWords = L.PtsIdx + 4 * uint64_t(L.NumChunks);
  Skip(12 * uint64_t(L.NumChunks));
  L.IntrSitesLen = Pos();
  L.NumIntr = R.u32();
  Skip(4 * uint64_t(L.NumIntr));
  L.IntrCalleesLen = Pos();
  SkipVec();
  R.u8(); // the budget flag
  return !R.failed() && R.atEnd() && getU32At(B, L.IntrCalleesLen) == L.NumIntr;
}

/// Copies row \p From of a table's columns onto row \p To: \p Col8 is the
/// u8 kind column, followed by \p NumU32 u32 columns of \p Rows rows.
void copyRow(std::vector<uint8_t> &B, size_t Col8, uint32_t Rows,
             int NumU32, uint32_t From, uint32_t To) {
  B[Col8 + To] = B[Col8 + From];
  for (int C = 0; C < NumU32; ++C) {
    const size_t Col = Col8 + Rows + size_t(C) * 4 * Rows;
    putU32At(B, Col + 4 * To, getU32At(B, Col + 4 * From));
  }
}

/// One poisoned pts record: \p Poison mutates the stored payload (given
/// its layout) and must make restoreSolver reject it with the string pool
/// untouched; a warm run over the re-signed record then falls back cold,
/// byte-identical to the cold run.
void expectPoisonRejected(
    const std::function<void(std::vector<uint8_t> &, const PtsLayout &)>
        &Poison) {
  const char *App = "BlueBlog";
  const AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  TempDir D;
  persist::ArtifactCache Cache(D.Path);
  const FullRun Cold = runFresh(App, C, Cache);
  const std::string PtsKey = persist::ArtifactCache::makeKey(
      "pts", std::string("app:") + App, C.pointsToFingerprint());
  auto Payload = Cache.load(PtsKey, persist::ArtifactKind::PointsTo);
  ASSERT_TRUE(Payload.has_value());
  std::vector<uint8_t> Bytes(Payload->data(),
                             Payload->data() + Payload->size());
  PtsLayout L;
  ASSERT_TRUE(walkPts(Bytes, L));
  Poison(Bytes, L);
  if (::testing::Test::HasFatalFailure())
    return;

  WarmPhase Direct(generateApp(specByName(App)), C);
  const std::vector<std::string> PoolBefore = Direct.pool();
  EXPECT_FALSE(Direct.restore(Bytes));
  EXPECT_EQ(Direct.pool(), PoolBefore) << "a rejected restore touched the pool";

  Cache.store(PtsKey, persist::ArtifactKind::PointsTo, Bytes);
  const FullRun Warm = runFresh(App, C, Cache);
  EXPECT_EQ(Warm.RunStats.get("persist.corrupt"), 1u);
  EXPECT_EQ(Warm.Report, Cold.Report);
  EXPECT_EQ(Warm.Issues, Cold.Issues);
  EXPECT_EQ(Warm.Pool, Cold.Pool);
}

/// The first key whose set spans at least \p Chunks chunks.
uint32_t keyWithChunks(const std::vector<uint8_t> &B, const PtsLayout &L,
                       uint32_t Chunks) {
  for (uint32_t K = 0; K < L.NumKeys; ++K)
    if (getU32At(B, L.PtsOffsets + 4 * (K + 1)) -
            getU32At(B, L.PtsOffsets + 4 * K) >=
        Chunks)
      return K;
  return InvalidId;
}

TEST(PersistPoison, DecreasingPointsToOffsetsAreRejected) {
  expectPoisonRejected([](std::vector<uint8_t> &B, const PtsLayout &L) {
    // Two empty keys K, K+1 after a nonempty one: lowering the offset
    // between them by one leaves every key's chunk range well-formed on
    // its own (K+1 takes the previous key's last chunk), so only the
    // never-decreasing check can tell.
    auto Off = [&](uint32_t K) { return getU32At(B, L.PtsOffsets + 4 * K); };
    uint32_t K = 0;
    while (K + 2 <= L.NumKeys &&
           !(Off(K) > 0 && Off(K) == Off(K + 1) && Off(K + 1) == Off(K + 2)))
      ++K;
    ASSERT_LE(K + 2, L.NumKeys);
    putU32At(B, L.PtsOffsets + 4 * (K + 1), Off(K) - 1);
  });
}

TEST(PersistPoison, UnsortedOrDuplicateChunkIndexIsRejected) {
  for (bool Duplicate : {true, false}) {
    SCOPED_TRACE(Duplicate ? "duplicate" : "unsorted");
    expectPoisonRejected([&](std::vector<uint8_t> &B, const PtsLayout &L) {
      const uint32_t K = keyWithChunks(B, L, 2);
      ASSERT_NE(K, InvalidId);
      const uint32_t First = getU32At(B, L.PtsOffsets + 4 * K);
      const size_t A = L.PtsIdx + 4 * size_t(First);
      const uint32_t I0 = getU32At(B, A), I1 = getU32At(B, A + 4);
      putU32At(B, A, I1);
      putU32At(B, A + 4, Duplicate ? I1 : I0);
    });
  }
}

TEST(PersistPoison, ZeroWordIsRejected) {
  expectPoisonRejected([](std::vector<uint8_t> &B, const PtsLayout &L) {
    // Not a key's last chunk, whose word also bounds its largest member.
    const uint32_t K = keyWithChunks(B, L, 2);
    ASSERT_NE(K, InvalidId);
    const uint32_t First = getU32At(B, L.PtsOffsets + 4 * K);
    std::memset(&B[L.PtsWords + 8 * size_t(First)], 0, 8);
  });
}

TEST(PersistPoison, MemberAtOrPastTheInstanceKeyCountIsRejected) {
  expectPoisonRejected([](std::vector<uint8_t> &B, const PtsLayout &L) {
    const uint32_t K = keyWithChunks(B, L, 1);
    ASSERT_NE(K, InvalidId);
    // Key K keeps one chunk holding exactly member NumIKs: ascending,
    // nonzero, one past the last instance key.
    const uint32_t Last = getU32At(B, L.PtsOffsets + 4 * (K + 1)) - 1;
    putU32At(B, L.PtsIdx + 4 * size_t(Last), L.NumIKs >> 6);
    const uint64_t Word = uint64_t(1) << (L.NumIKs & 63);
    for (int I = 0; I < 8; ++I)
      B[L.PtsWords + 8 * size_t(Last) + I] = uint8_t(Word >> (8 * I));
  });
}

TEST(PersistPoison, DuplicateContextRowIsRejected) {
  expectPoisonRejected([](std::vector<uint8_t> &B, const PtsLayout &L) {
    ASSERT_GE(L.NumCtxs, 3u);
    // Context ids 1 and 2 (column rows 0 and 1; Everywhere is implicit)
    // become the same context, depth included.
    copyRow(B, L.CtxKind, L.NumCtxs - 1, 2, 0, 1);
  });
}

TEST(PersistPoison, DuplicateInstanceKeyRowIsRejected) {
  expectPoisonRejected([](std::vector<uint8_t> &B, const PtsLayout &L) {
    ASSERT_GE(L.NumIKs, 2u);
    copyRow(B, L.IKKind, L.NumIKs, 4, 0, 1);
  });
}

TEST(PersistPoison, DuplicatePointerKeyRowIsRejected) {
  expectPoisonRejected([](std::vector<uint8_t> &B, const PtsLayout &L) {
    ASSERT_GE(L.NumPKs, 2u);
    copyRow(B, L.PKKind, L.NumPKs, 2, 0, 1);
  });
}

TEST(PersistPoison, DuplicateLocalRetOrFieldKeyRowIsRejected) {
  // Local and Ret keys are filed in their node's key block, field keys in
  // the hash index; a repeat of either is a table row stored twice.
  for (PKKind Kind : {PKKind::Local, PKKind::Ret, PKKind::Field}) {
    SCOPED_TRACE(static_cast<int>(Kind));
    expectPoisonRejected([&](std::vector<uint8_t> &B, const PtsLayout &L) {
      // The second key of the kind becomes a copy of the first.
      auto Next = [&](uint32_t K) {
        while (K < L.NumPKs && B[L.PKKind + K] != uint8_t(Kind))
          ++K;
        return K;
      };
      const uint32_t First = Next(0);
      const uint32_t Second = Next(First + 1);
      ASSERT_LT(Second, L.NumPKs);
      copyRow(B, L.PKKind, L.NumPKs, 2, First, Second);
    });
  }
}

TEST(PersistPoison, LocalOrRetKeyPastTheLastNodeIsRejected) {
  for (PKKind Kind : {PKKind::Local, PKKind::Ret}) {
    SCOPED_TRACE(Kind == PKKind::Local ? "local" : "ret");
    expectPoisonRejected([&](std::vector<uint8_t> &B, const PtsLayout &L) {
      uint32_t K = 0;
      while (K < L.NumPKs && B[L.PKKind + K] != uint8_t(Kind))
        ++K;
      ASSERT_LT(K, L.NumPKs);
      putU32At(B, L.PKA + 4 * size_t(K), L.NumNodes);
    });
  }
}

/// The statement and method counts of \p App (by default the app the pts
/// poison tests store).
std::pair<uint32_t, uint32_t> poisonAppSize(const char *App = "BlueBlog") {
  GeneratedApp A = generateApp(specByName(App));
  A.P->indexStatements();
  return {A.P->numStmts(), static_cast<uint32_t>(A.P->Methods.size())};
}

TEST(PersistPoison, IntrinsicColumnsOfUnequalLengthAreRejected) {
  expectPoisonRejected([](std::vector<uint8_t> &B, const PtsLayout &L) {
    ASSERT_GE(L.NumIntr, 1u);
    // The callee column loses its last value and the record stays framed:
    // every site still reads, but the last one would have no callee.
    const size_t Last = L.IntrCalleesLen + 4 * size_t(L.NumIntr);
    B.erase(B.begin() + Last, B.begin() + Last + 4);
    putU32At(B, L.IntrCalleesLen, L.NumIntr - 1);
  });
}

TEST(PersistPoison, DecreasingIntrinsicSitesAreRejected) {
  expectPoisonRejected([](std::vector<uint8_t> &B, const PtsLayout &L) {
    auto Site = [&](uint32_t I) {
      return getU32At(B, L.IntrSitesLen + 4 + 4 * size_t(I));
    };
    uint32_t I = 0;
    while (I + 1 < L.NumIntr && Site(I) == Site(I + 1))
      ++I;
    ASSERT_LT(I + 1, L.NumIntr);
    const uint32_t Lo = Site(I), Hi = Site(I + 1);
    putU32At(B, L.IntrSitesLen + 4 + 4 * size_t(I), Hi);
    putU32At(B, L.IntrSitesLen + 4 + 4 * size_t(I + 1), Lo);
  });
}

TEST(PersistPoison, IntrinsicSitePastTheLastStatementIsRejected) {
  const uint32_t NumStmts = poisonAppSize().first;
  expectPoisonRejected([&](std::vector<uint8_t> &B, const PtsLayout &L) {
    ASSERT_GE(L.NumIntr, 1u);
    // The last site, so the column still ascends.
    putU32At(B, L.IntrSitesLen + 4 * size_t(L.NumIntr), NumStmts);
  });
}

TEST(PersistPoison, IntrinsicCalleePastTheLastMethodIsRejected) {
  const uint32_t NumMethods = poisonAppSize().second;
  expectPoisonRejected([&](std::vector<uint8_t> &B, const PtsLayout &L) {
    ASSERT_GE(L.NumIntr, 1u);
    putU32At(B, L.IntrCalleesLen + 4, NumMethods);
  });
}

/// Where each column of an sdg record (layout unchanged since v6) starts,
/// found by walking the record the way restoreSdg reads it.
struct SdgLayout {
  uint32_t NumOwners = 0, NumNodes = 0, NumEdges = 0, NumSites = 0,
           NumStores = 0, NumLoadEdges = 0, NumSinkEdges = 0;
  size_t NodeKind = 0, SuccOff = 0, EdgeTo = 0, EdgeKind = 0;
  size_t SiteKey = 0, SiteFirst = 0, SiteCount = 0;
  size_t Stores = 0, LoadOff = 0, LoadEdges = 0, SinkOff = 0, SinkEdges = 0;

  // Node N's entry in each node column: Kind, then Owner, M, S and Index
  // (u32), Access (u8), Aux (u32), the three masks and IsCall (u8).
  size_t owner(SDGNodeId N) const { return u32Col(1, N); }
  size_t method(SDGNodeId N) const { return u32Col(5, N); }
  size_t stmt(SDGNodeId N) const { return u32Col(9, N); }
  size_t access(SDGNodeId N) const {
    return NodeKind + 17 * size_t(NumNodes) + N;
  }
  size_t aux(SDGNodeId N) const { return u32Col(18, N); }
  size_t isCall(SDGNodeId N) const {
    return NodeKind + 25 * size_t(NumNodes) + N;
  }
  /// Node N's entry in the u32 column \p Rows node rows past NodeKind.
  size_t u32Col(size_t Rows, SDGNodeId N) const {
    return NodeKind + Rows * size_t(NumNodes) + 4 * size_t(N);
  }
};

bool walkSdg(const std::vector<uint8_t> &B, SdgLayout &L) {
  persist::Reader R(B.data(), B.size());
  auto Pos = [&] { return B.size() - R.remaining(); };
  auto Skip = [&](uint64_t N) { return R.block(N) != nullptr || N == 0; };
  // An offset column of Rows + 1 entries; returns the element count.
  auto Offsets = [&](uint64_t Rows) {
    Skip(4 * Rows);
    return R.u32();
  };
  L.NumOwners = R.u32();
  Skip(8 * uint64_t(L.NumOwners));
  L.NumNodes = R.u32();
  L.NodeKind = Pos();
  Skip(26 * uint64_t(L.NumNodes));
  L.SuccOff = Pos();
  L.NumEdges = Offsets(L.NumNodes);
  L.EdgeTo = Pos();
  L.EdgeKind = L.EdgeTo + 4 * uint64_t(L.NumEdges);
  Skip(5 * uint64_t(L.NumEdges));
  L.NumSites = R.u32();
  L.SiteKey = Pos();
  L.SiteFirst = L.SiteKey + 4 * uint64_t(L.NumSites);
  L.SiteCount = L.SiteFirst + 4 * uint64_t(L.NumSites);
  Skip(12 * uint64_t(L.NumSites));
  Skip(12 * uint64_t(Offsets(L.NumSites))); // channel plumbing
  Skip(8 * uint64_t(Offsets(L.NumOwners))); // per-owner channels
  L.NumStores = R.u32();
  L.Stores = Pos();
  Skip(4 * uint64_t(L.NumStores));
  Skip(4 * uint64_t(R.u32())); // loads
  Skip(4 * uint64_t(R.u32())); // sinks
  R.u8();
  R.u64();
  if (R.u8() == 0)
    return false; // no heap edges
  L.LoadOff = Pos();
  L.NumLoadEdges = Offsets(L.NumStores);
  L.LoadEdges = Pos();
  Skip(4 * uint64_t(L.NumLoadEdges));
  L.SinkOff = Pos();
  L.NumSinkEdges = Offsets(L.NumStores);
  L.SinkEdges = Pos();
  Skip(4 * uint64_t(L.NumSinkEdges));
  return !R.failed() && R.atEnd();
}

/// One poisoned sdg record: \p Poison mutates the stored payload (given its
/// layout) and must make restoreSdg reject it with both out-params null; a
/// warm run over the re-signed record then counts it corrupt, drops it and
/// falls back cold, byte-identical to the cold run, and the run after that
/// hits the re-stored clean record.
void expectSdgPoisonRejected(
    const std::function<void(std::vector<uint8_t> &, const SdgLayout &)>
        &Poison) {
  const char *App = "A"; // small, with load and carrier-sink edges
  const AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  TempDir D;
  persist::ArtifactCache Cache(D.Path);
  const FullRun Cold = runFresh(App, C, Cache);
  const std::string SdgKey = persist::ArtifactCache::makeKey(
      "sdg", std::string("app:") + App, C.sdgFingerprint());
  auto Payload = Cache.load(SdgKey, persist::ArtifactKind::Sdg);
  ASSERT_TRUE(Payload.has_value());
  std::vector<uint8_t> Bytes(Payload->data(),
                             Payload->data() + Payload->size());
  SdgLayout L;
  ASSERT_TRUE(walkSdg(Bytes, L));
  Poison(Bytes, L);
  if (::testing::Test::HasFatalFailure())
    return;

  ColdPhase Ph(generateApp(specByName(App)), C);
  std::unique_ptr<SDG> G;
  std::unique_ptr<HeapEdges> HE;
  persist::Reader R(Bytes.data(), Bytes.size());
  EXPECT_FALSE(persist::Access::restoreSdg(G, HE, *Ph.App.P, *Ph.Solver,
                                           sdgOptionsOf(C), R));
  EXPECT_EQ(G, nullptr);
  EXPECT_EQ(HE, nullptr);

  Cache.store(SdgKey, persist::ArtifactKind::Sdg, Bytes);
  const FullRun Warm = runFresh(App, C, Cache);
  EXPECT_EQ(Warm.RunStats.get("persist.corrupt"), 1u);
  EXPECT_EQ(Warm.Report, Cold.Report);
  EXPECT_EQ(Warm.Issues, Cold.Issues);
  const FullRun Again = runFresh(App, C, Cache);
  EXPECT_EQ(Again.RunStats.get("persist.hit"), 2u);
  EXPECT_EQ(Again.RunStats.get("persist.corrupt"), 0u);
  EXPECT_EQ(Again.Report, Cold.Report);
}

/// Makes the offset column at \p Off (\p Rows + 1 entries) decrease once
/// while it still starts at 0 and ends at its column's length: offset K+1
/// drops one below offset K, for the first K with a nonzero offset.
void lowerOffset(std::vector<uint8_t> &B, size_t Off, uint32_t Rows) {
  uint32_t K = 1;
  while (K + 1 < Rows && getU32At(B, Off + 4 * size_t(K)) == 0)
    ++K;
  ASSERT_LT(K + 1, Rows);
  putU32At(B, Off + 4 * size_t(K + 1), getU32At(B, Off + 4 * size_t(K)) - 1);
}

TEST(PersistPoison, NodeColumnValueOutOfRangeIsRejected) {
  // One value past its range in each node column restoreSdg checks, on
  // the last node, which the one-pass decode reaches last.
  const std::pair<uint32_t, uint32_t> Size = poisonAppSize("A");
  const uint32_t NumStmts = Size.first, NumMethods = Size.second;
  for (const std::string Col :
       {"kind", "owner", "method", "statement", "access", "aux", "is-call"}) {
    SCOPED_TRACE(Col);
    expectSdgPoisonRejected([&](std::vector<uint8_t> &B, const SdgLayout &L) {
      ASSERT_GT(L.NumNodes, 0u);
      const SDGNodeId N = L.NumNodes - 1;
      if (Col == "kind")
        B[L.NodeKind + N] = uint8_t(SDGNodeKind::ChanActualOut) + 1;
      else if (Col == "owner")
        putU32At(B, L.owner(N), L.NumOwners);
      else if (Col == "method")
        putU32At(B, L.method(N), NumMethods);
      else if (Col == "statement")
        putU32At(B, L.stmt(N), NumStmts);
      else if (Col == "access")
        B[L.access(N)] = uint8_t(HeapAccess::InvokeArgsRead) + 1;
      else if (Col == "aux")
        putU32At(B, L.aux(N), L.NumNodes);
      else
        B[L.isCall(N)] = 2;
    });
  }
}

TEST(PersistPoison, DecreasingSuccessorOffsetsAreRejected) {
  expectSdgPoisonRejected([](std::vector<uint8_t> &B, const SdgLayout &L) {
    lowerOffset(B, L.SuccOff, L.NumNodes);
  });
}

TEST(PersistPoison, EdgeTargetOrKindOutOfRangeIsRejected) {
  for (bool Kind : {false, true}) {
    SCOPED_TRACE(Kind ? "kind" : "target");
    expectSdgPoisonRejected([&](std::vector<uint8_t> &B, const SdgLayout &L) {
      ASSERT_GT(L.NumEdges, 0u);
      if (Kind)
        B[L.EdgeKind] = uint8_t(SDGEdgeKind::ParamOut) + 1;
      else
        putU32At(B, L.EdgeTo, L.NumNodes);
    });
  }
}

TEST(PersistPoison, DuplicateOrNonCallSiteKeyIsRejected) {
  for (bool Duplicate : {true, false}) {
    SCOPED_TRACE(Duplicate ? "duplicate" : "non-call");
    expectSdgPoisonRejected([&](std::vector<uint8_t> &B, const SdgLayout &L) {
      ASSERT_GE(L.NumSites, 2u);
      if (Duplicate) {
        // Site 1 becomes a copy of site 0, actual-in range included.
        for (size_t Col : {L.SiteKey, L.SiteFirst, L.SiteCount})
          putU32At(B, Col + 4, getU32At(B, Col));
        return;
      }
      // Site 0 moves to a statement node that is no call, and gives up its
      // actual-ins.
      SDGNodeId N = 0;
      while (N < L.NumNodes &&
             (B[L.NodeKind + N] != uint8_t(SDGNodeKind::Stmt) ||
              B[L.isCall(N)] != 0))
        ++N;
      ASSERT_LT(N, L.NumNodes);
      putU32At(B, L.SiteKey, N);
      putU32At(B, L.SiteCount, 0);
    });
  }
}

TEST(PersistPoison, WrongActualInRangeIsRejected) {
  for (bool OtherCall : {true, false}) {
    SCOPED_TRACE(OtherCall ? "another call's actual-ins" : "not actual-ins");
    expectSdgPoisonRejected([&](std::vector<uint8_t> &B, const SdgLayout &L) {
      // A site with actual-ins, followed by another such site.
      uint32_t K = 0;
      while (K + 1 < L.NumSites &&
             (getU32At(B, L.SiteCount + 4 * size_t(K)) == 0 ||
              getU32At(B, L.SiteCount + 4 * size_t(K + 1)) == 0))
        ++K;
      ASSERT_LT(K + 1, L.NumSites);
      const size_t First = L.SiteFirst + 4 * size_t(K);
      const size_t Count = L.SiteCount + 4 * size_t(K);
      if (OtherCall) {
        putU32At(B, First, getU32At(B, First + 4));
        putU32At(B, Count, getU32At(B, Count + 4));
        return;
      }
      // The range becomes the call's own statement node, whose Aux is made
      // to name the call too, so only the node kind is wrong.
      const uint32_t Key = getU32At(B, L.SiteKey + 4 * size_t(K));
      putU32At(B, First, Key);
      putU32At(B, Count, 1);
      putU32At(B, L.aux(Key), Key);
    });
  }
}

TEST(PersistPoison, UnsortedStoreListIsRejected) {
  expectSdgPoisonRejected([](std::vector<uint8_t> &B, const SdgLayout &L) {
    ASSERT_GE(L.NumStores, 2u);
    const uint32_t S0 = getU32At(B, L.Stores), S1 = getU32At(B, L.Stores + 4);
    putU32At(B, L.Stores, S1);
    putU32At(B, L.Stores + 4, S0);
  });
}

TEST(PersistPoison, DecreasingHeapEdgeOffsetsAreRejected) {
  for (bool Sink : {false, true}) {
    SCOPED_TRACE(Sink ? "carrier sinks" : "loads");
    expectSdgPoisonRejected([&](std::vector<uint8_t> &B, const SdgLayout &L) {
      lowerOffset(B, Sink ? L.SinkOff : L.LoadOff, L.NumStores);
    });
  }
}

TEST(PersistPoison, AdjacencyIdOutOfRangeIsRejected) {
  for (bool Sink : {false, true}) {
    SCOPED_TRACE(Sink ? "carrier sink" : "load");
    expectSdgPoisonRejected([&](std::vector<uint8_t> &B, const SdgLayout &L) {
      ASSERT_GT(Sink ? L.NumSinkEdges : L.NumLoadEdges, 0u);
      putU32At(B, Sink ? L.SinkEdges : L.LoadEdges, L.NumNodes);
    });
  }
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

  // Round 2: empty one entry and cut the other in the middle of its
  // payload. A read that ends short of the header, or of the payload size
  // the header records, is corruption as well.
  Entries = cacheEntries(D.Path);
  ASSERT_EQ(Entries.size(), 2u);
  fs::resize_file(Entries[0], 0);
  const uintmax_t Full = fs::file_size(Entries[1]);
  ASSERT_GT(Full, 64u);
  fs::resize_file(Entries[1], 32 + (Full - 32) / 2);
  RunOut Cut = runApp("BlueBlog", AnalysisConfig::hybridUnbounded(), &Cache);
  EXPECT_EQ(Cold.Set, Cut.Set);
  EXPECT_EQ(Cold.Report, Cut.Report);
  EXPECT_EQ(Cut.Hits, 0u);
  EXPECT_EQ(Cut.Corrupt, 2u);
  EXPECT_EQ(Cut.VersionMiss, 0u);
  EXPECT_EQ(Cut.Stores, 2u) << "fallback cold run must refill the cache";

  // Round 3: bump the format-version byte of every (refilled) entry. A
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

  // Round 4: untouched entries finally serve a clean warm start.
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

TEST(PersistPoison, CyclicSuperclassChainInTheIrRecordIsRejected) {
  TempDir D;
  const std::string Example = TAJ_EXAMPLE_TAJ;
  const std::string CacheDir = D.Path + "/cache";
  const std::string Run = "--cache-dir=\"" + CacheDir + "\" --stats-json=\"" +
                          D.Path + "/stats.json\" \"" + Example +
                          "\" 2>/dev/null";
  int Exit = -1;
  const std::string Cold = runCli(Run, Exit);
  ASSERT_EQ(Exit, 0);

  // Re-encode the stored program with Profile extending itself and
  // re-sign the record, so only the structural restore can tell.
  fs::path IrEntry;
  std::vector<uint8_t> Poisoned;
  for (const fs::path &E : cacheEntries(CacheDir)) {
    const std::vector<uint8_t> Record = readAll(E);
    const uint8_t *Payload = nullptr;
    size_t Len = 0;
    std::string Err;
    if (persist::unwrapRecord(Record.data(), Record.size(),
                              persist::ArtifactKind::Ir, Payload, Len,
                              Err) != persist::UnwrapStatus::Ok)
      continue;
    Program P;
    persist::Reader R(Payload, Len);
    ASSERT_TRUE(persist::Access::restoreProgram(P, R));
    const ClassId Profile = P.findClass("Profile");
    ASSERT_NE(Profile, InvalidId);
    P.Classes[Profile].Super = Profile;
    persist::Writer W;
    persist::Access::serializeProgram(P, W);
    Program Direct;
    persist::Reader DR(W.bytes().data(), W.bytes().size());
    // A restore that accepted the cycle would hang the warm run below.
    ASSERT_FALSE(persist::Access::restoreProgram(Direct, DR));
    IrEntry = E;
    Poisoned = persist::wrapRecord(persist::ArtifactKind::Ir, W.bytes());
  }
  ASSERT_FALSE(IrEntry.empty()) << "no ir record in the cache";
  writeAll(IrEntry, Poisoned);

  const std::string Warm = runCli(Run, Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(Warm, Cold);
  std::ifstream In(D.Path + "/stats.json");
  const std::string Stats((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(Stats.find("\"persist.corrupt\":1,"), std::string::npos)
      << Stats;
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
