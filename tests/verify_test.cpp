//===- tests/verify_test.cpp - Self-verification properties --------------===//
//
// The --verify pass re-checks the analyzer's own artifacts, and these
// tests pin down its contract:
//  - clean runs verify clean, in every slicer, cold and warm, with
//    results identical to --verify=off;
//  - each seeded defect class (IR table corruption, phantom call edge,
//    non-fixpoint points-to fact, dangling SDG edge, unjustified heap
//    edge, unwitnessable finding) is detected under its own checker
//    counter;
//  - a checksum-valid but structurally-poisoned persisted artifact is
//    rejected on warm restore (persist.verify_rejected), fails the run
//    with exit 1, and is dropped from the cache so the next run is clean;
//  - taj-cli output under --verify=full is byte-identical to --verify=off
//    on clean runs, including batch mode.
//
// The persist-poisoning tests mutate artifacts through re-serialization
// (corrupt in memory, serialize, store) rather than raw byte flips: a
// stored record's checksum is recomputed by store(), so the mutation is
// checksum-valid by construction and only the structural restore
// validation can catch it — exactly the gap --verify=full closes (the
// in-memory hot tier skips checksum re-verification entirely).
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generator.h"
#include "core/TaintAnalysis.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"
#include "persist/Cache.h"
#include "persist/Serialize.h"
#include "server/Service.h"
#include "slicer/HeapEdges.h"
#include "verify/Verify.h"

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

#include <sys/wait.h>
#include <unistd.h>

namespace taj {

/// Test-only corruption hooks: the defect-seeding tests must be able to
/// break a finished artifact in place, which no public API allows.
class SolverTestPeer {
public:
  /// Re-freezes the solver's column with key \p PK's set emptied.
  static void clearPointsTo(const PointsToSolver &S, PKId PK) {
    auto &Mut = const_cast<PointsToSolver &>(S);
    PointsToColumn Col;
    for (PKId K = 0; K < Mut.Frozen.numKeys(); ++K) {
      SparseBitSet Set;
      if (K != PK)
        for (IKId IK : Mut.Frozen[K])
          Set.insert(IK);
      Col.append(Set);
    }
    Mut.Frozen = std::move(Col);
  }
};

class SdgTestPeer {
public:
  /// The flat edge column of the CSR successor lists.
  static std::vector<SDGEdge> &succEdges(const SDG &G) {
    return const_cast<SDG &>(G).SuccEdges;
  }
  /// Drops every edge: all offsets 0, an empty edge column.
  static void clearEdges(const SDG &G) {
    SDG &Mut = const_cast<SDG &>(G);
    std::fill(Mut.SuccOff.begin(), Mut.SuccOff.end(), 0);
    Mut.SuccEdges.clear();
  }
  static std::vector<SDGNode> &nodes(const SDG &G) {
    return const_cast<SDG &>(G).Nodes;
  }
};

class CallGraphTestPeer {
public:
  /// Redirects the site of one existing cross-method call edge to a
  /// statement of the callee (never the caller), returning true on
  /// success. Mutating in place avoids CallGraph::addEdge, whose guard
  /// checkpoint would dereference the run's already-destroyed RunGuard.
  static bool poisonCrossMethodSite(const CallGraph &CG, const Program &P) {
    CallGraph &Mut = const_cast<CallGraph &>(CG);
    for (CGNodeId N = 0; N < CG.numNodes(); ++N)
      for (uint32_t I = Mut.OutOff[N]; I < Mut.OutOff[N + 1]; ++I) {
        CGEdge &E = Mut.OutEdges[I];
        const MethodId CalleeM = CG.node(E.Callee).M;
        if (CalleeM != CG.node(N).M) {
          E.Site = P.methodStmtBegin(CalleeM);
          return true;
        }
      }
    return false;
  }
};

class HeapEdgesTestPeer {
public:
  /// Appends \p Ld to the loads of store \p St (a node of the store list).
  static void addLoadEdge(const HeapEdges &HE, SDGNodeId St, SDGNodeId Ld) {
    HeapEdges &Mut = const_cast<HeapEdges &>(HE);
    const std::vector<SDGNodeId> &Stores = HE.G.storeNodes();
    const size_t Rank =
        std::lower_bound(Stores.begin(), Stores.end(), St) - Stores.begin();
    Mut.LoadEdges.insert(Mut.LoadEdges.begin() + Mut.LoadOff[Rank + 1], Ld);
    for (size_t R = Rank + 1; R < Mut.LoadOff.size(); ++R)
      ++Mut.LoadOff[R];
  }
  /// Drops every load and carrier edge.
  static void clearAll(const HeapEdges &HE) {
    HeapEdges &Mut = const_cast<HeapEdges &>(HE);
    std::fill(Mut.LoadOff.begin(), Mut.LoadOff.end(), 0);
    std::fill(Mut.SinkOff.begin(), Mut.SinkOff.end(), 0);
    Mut.LoadEdges.clear();
    Mut.SinkEdges.clear();
  }
};

} // namespace taj

using namespace taj;
using namespace taj::verify;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/taj-verify-XXXXXX";
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

/// One solved analysis over a generated app, shared by the checker tests.
struct Solved {
  GeneratedApp App;
  std::unique_ptr<TaintAnalysis> TA;
  AnalysisResult R;

  explicit Solved(const char *Name, AnalysisConfig C = {}) {
    App = generateApp(specByName(Name));
    C.Verify = VerifyMode::Off; // the tests drive the checkers directly
    TA = std::make_unique<TaintAnalysis>(*App.P, std::move(C));
    R = TA->run({App.Root});
  }
  const Program &P() const { return *App.P; }
};

/// Finds a processed call-graph node containing a New whose destination
/// points-to set is non-empty; InvalidId if none (never for our apps).
PKId findAllocDestKey(const Program &P, const PointsToSolver &S) {
  const CallGraph &CG = S.callGraph();
  for (CGNodeId N = 0; N < CG.numNodes(); ++N) {
    const CGNode &Node = CG.node(N);
    if (!Node.ConstraintsAdded || !P.Methods[Node.M].hasBody())
      continue;
    for (const BasicBlock &BB : P.Methods[Node.M].Blocks) {
      for (const Instruction &I : BB.Insts) {
        if (I.Op != Opcode::New)
          continue;
        PKId PK = S.pointerKeys().localLookup(N, I.Dst);
        if (PK != InvalidId && !S.pointsTo(PK).empty())
          return PK;
      }
    }
  }
  return InvalidId;
}

using IssueKey = std::tuple<StmtId, StmtId, RuleMask, uint32_t>;
std::set<IssueKey> issueSet(const std::vector<Issue> &Issues) {
  std::set<IssueKey> S;
  for (const Issue &I : Issues)
    S.insert({I.Source, I.Sink, I.Rule, I.Length});
  return S;
}

std::string readFileOrDie(const char *Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good());
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The analyzeApp input-fingerprint convention (server/Service.cpp).
std::string inputFpOf(const std::string &Text) {
  uint64_t H = persist::fnv1a("taj-input", 9);
  H = persist::fnv1a(Text.data(), Text.size(), H);
  H = persist::fnv1a("|", 1, H);
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(H));
  return Hex;
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
// Mode plumbing and the violation sink
//===----------------------------------------------------------------------===//

TEST(VerifyMode, ParseAndNameRoundTrip) {
  VerifyMode M = VerifyMode::Off;
  EXPECT_TRUE(parseVerifyMode("off", M));
  EXPECT_EQ(M, VerifyMode::Off);
  EXPECT_TRUE(parseVerifyMode("fast", M));
  EXPECT_EQ(M, VerifyMode::Fast);
  EXPECT_TRUE(parseVerifyMode("full", M));
  EXPECT_EQ(M, VerifyMode::Full);
  EXPECT_FALSE(parseVerifyMode("FULL", M));
  EXPECT_FALSE(parseVerifyMode("", M));
  for (VerifyMode V : {VerifyMode::Off, VerifyMode::Fast, VerifyMode::Full}) {
    VerifyMode Back = VerifyMode::Off;
    EXPECT_TRUE(parseVerifyMode(verifyModeName(V), Back));
    EXPECT_EQ(Back, V);
  }
}

TEST(Violations, CleanSinkExportsNothing) {
  Violations V;
  Stats S;
  V.exportStats(S);
  EXPECT_EQ(S.toString(), "");
}

TEST(Violations, CountsPerCheckerAndExports) {
  Violations V;
  V.report(Checker::Sdg, "seeded");
  V.report(Checker::Sdg, "seeded");
  V.report(Checker::Witness, "seeded");
  V.noteRestoreRejected();
  EXPECT_EQ(V.total(), 3u);
  EXPECT_EQ(V.count(Checker::Sdg), 2u);
  EXPECT_EQ(V.count(Checker::Witness), 1u);
  EXPECT_EQ(V.count(Checker::Heap), 0u);
  Stats S;
  V.exportStats(S);
  EXPECT_EQ(S.get("verify.violations"), 3u);
  EXPECT_EQ(S.get("verify.sdg_violations"), 2u);
  EXPECT_EQ(S.get("verify.witness_violations"), 1u);
  EXPECT_EQ(S.get("persist.verify_rejected"), 1u);
}

//===----------------------------------------------------------------------===//
// Seeded defects, one per checker
//===----------------------------------------------------------------------===//

TEST(IrChecker, FlagsTableCorruption) {
  GeneratedApp A = generateApp(specByName("A"));
  Violations Clean;
  verifyIr(*A.P, Clean);
  EXPECT_EQ(Clean.total(), 0u);

  ASSERT_GE(A.P->Classes.size(), 3u);
  A.P->Classes[2].Super = 59999; // dangling superclass reference
  Violations V;
  verifyIr(*A.P, V);
  EXPECT_GE(V.count(Checker::Ir), 1u);
  EXPECT_EQ(V.total(), V.count(Checker::Ir));
}

TEST(GraphChecker, CleanSolveVerifies) {
  Solved S("A");
  Violations V;
  verifyGraphs(S.P(), S.TA->hierarchy(), S.TA->solver(),
               &S.TA->constStrings(), V);
  EXPECT_EQ(V.total(), 0u);
}

TEST(GraphChecker, FlagsPhantomCallEdge) {
  Solved S("A");
  const PointsToSolver &Solver = S.TA->solver();
  const CallGraph &CG = Solver.callGraph();
  // Redirect one edge's site into the *callee's* statement range: a call
  // site that is not a statement of the caller is unjustifiable under any
  // dispatch model.
  ASSERT_TRUE(CallGraphTestPeer::poisonCrossMethodSite(CG, S.P()));
  Violations V;
  verifyGraphs(S.P(), S.TA->hierarchy(), Solver, &S.TA->constStrings(), V);
  EXPECT_EQ(V.count(Checker::CallGraph), 1u);
  EXPECT_EQ(V.total(), 1u);
}

TEST(GraphChecker, FlagsNonFixpointPointsTo) {
  Solved S("A");
  PKId PK = findAllocDestKey(S.P(), S.TA->solver());
  ASSERT_NE(PK, InvalidId);
  SolverTestPeer::clearPointsTo(S.TA->solver(), PK);
  Violations V;
  verifyGraphs(S.P(), S.TA->hierarchy(), S.TA->solver(),
               &S.TA->constStrings(), V);
  EXPECT_GE(V.count(Checker::PointsTo), 1u);
}

TEST(SdgChecker, CleanGraphVerifiesAndDanglingEdgeIsFlagged) {
  Solved S("A");
  SDGOptions SO;
  SO.ContextExpanded = true;
  persist::SdgArtifacts A = persist::loadOrBuildSdg(
      S.P(), S.TA->hierarchy(), S.TA->solver(), SO, 32, nullptr, "");
  ASSERT_NE(A.G, nullptr);
  ASSERT_NE(A.HE, nullptr);
  Violations Clean;
  verifySdg(S.P(), *A.G, A.HE.get(), S.TA->solver(), VerifyMode::Full,
            Clean);
  EXPECT_EQ(Clean.total(), 0u);

  // The first edge of the column is the first edge of the first node
  // that has any.
  auto &Edges = SdgTestPeer::succEdges(*A.G);
  ASSERT_FALSE(Edges.empty());
  Edges[0].To = A.G->numNodes() + 7; // dangling edge target
  Violations V;
  verifySdg(S.P(), *A.G, A.HE.get(), S.TA->solver(), VerifyMode::Fast, V);
  EXPECT_EQ(V.count(Checker::Sdg), 1u);
  EXPECT_EQ(V.total(), 1u);
}

TEST(SdgChecker, FlagsUnjustifiedHeapEdgeOnlyUnderFull) {
  Solved S("A");
  SDGOptions SO;
  SO.ContextExpanded = true;
  persist::SdgArtifacts A = persist::loadOrBuildSdg(
      S.P(), S.TA->hierarchy(), S.TA->solver(), SO, 32, nullptr, "");
  ASSERT_NE(A.HE, nullptr);
  ASSERT_FALSE(A.G->storeNodes().empty());
  const SDGNodeId St = A.G->storeNodes().front();
  // A plain statement node (no heap access) can never be a justified
  // store->load target.
  SDGNodeId Plain = InvalidId;
  for (SDGNodeId N = 0; N < A.G->numNodes(); ++N)
    if (A.G->node(N).Kind == SDGNodeKind::Stmt &&
        A.G->node(N).Access == HeapAccess::None) {
      Plain = N;
      break;
    }
  ASSERT_NE(Plain, InvalidId);
  HeapEdgesTestPeer::addLoadEdge(*A.HE, St, Plain);

  Violations Fast;
  verifySdg(S.P(), *A.G, A.HE.get(), S.TA->solver(), VerifyMode::Fast, Fast);
  EXPECT_EQ(Fast.count(Checker::Heap), 0u); // justification is Full-only
  Violations Full;
  verifySdg(S.P(), *A.G, A.HE.get(), S.TA->solver(), VerifyMode::Full, Full);
  EXPECT_EQ(Full.count(Checker::Heap), 1u);
  EXPECT_EQ(Full.total(), 1u);
}

TEST(WitnessChecker, RealIssuesReplayCleanly) {
  Solved S("A");
  SlicerOptions SLO;
  SliceRunResult SR =
      runHybridSlicer(S.P(), S.TA->hierarchy(), S.TA->solver(), SLO);
  ASSERT_FALSE(SR.Issues.empty());
  SDGOptions SO;
  SO.ContextExpanded = true;
  persist::SdgArtifacts A = persist::loadOrBuildSdg(
      S.P(), S.TA->hierarchy(), S.TA->solver(), SO, 32, nullptr, "");
  Violations V;
  verifyWitnesses(*A.G, A.HE.get(), SR.Issues, V);
  EXPECT_EQ(V.total(), 0u);
}

TEST(WitnessChecker, FlagsShortenedFlowLength) {
  Solved S("A");
  SlicerOptions SLO;
  SliceRunResult SR =
      runHybridSlicer(S.P(), S.TA->hierarchy(), S.TA->solver(), SLO);
  auto It = std::find_if(SR.Issues.begin(), SR.Issues.end(),
                         [](const Issue &I) { return I.Length > 0; });
  ASSERT_NE(It, SR.Issues.end());
  Issue Shortened = *It;
  Shortened.Length = 0; // claims source == sink adjacency it cannot have
  SDGOptions SO;
  SO.ContextExpanded = true;
  persist::SdgArtifacts A = persist::loadOrBuildSdg(
      S.P(), S.TA->hierarchy(), S.TA->solver(), SO, 32, nullptr, "");
  Violations V;
  verifyWitnesses(*A.G, A.HE.get(), {Shortened}, V);
  EXPECT_EQ(V.count(Checker::Witness), 1u);
  EXPECT_EQ(V.total(), 1u);
}

TEST(WitnessChecker, CorruptedSdgEdgesYieldExactlyOneViolation) {
  Solved S("A");
  SlicerOptions SLO;
  SliceRunResult SR =
      runHybridSlicer(S.P(), S.TA->hierarchy(), S.TA->solver(), SLO);
  auto It = std::find_if(SR.Issues.begin(), SR.Issues.end(),
                         [](const Issue &I) { return I.Source != I.Sink; });
  ASSERT_NE(It, SR.Issues.end());
  SDGOptions SO;
  SO.ContextExpanded = true;
  persist::SdgArtifacts A = persist::loadOrBuildSdg(
      S.P(), S.TA->hierarchy(), S.TA->solver(), SO, 32, nullptr, "");
  // Sever the in-memory graph: the reported flow loses every witness path.
  SdgTestPeer::clearEdges(*A.G);
  HeapEdgesTestPeer::clearAll(*A.HE);
  Violations V;
  verifyWitnesses(*A.G, A.HE.get(), {*It}, V);
  EXPECT_EQ(V.count(Checker::Witness), 1u);
  EXPECT_EQ(V.total(), 1u);
}

//===----------------------------------------------------------------------===//
// Clean-run matrix: slicers x cold/warm under --verify=full
//===----------------------------------------------------------------------===//

TEST(VerifyMatrix, FullModeIsCleanAndResultPreservingEverywhere) {
  struct Cfg {
    const char *Name;
    AnalysisConfig (*Make)();
  };
  const Cfg Cfgs[] = {{"hybrid", AnalysisConfig::hybridUnbounded},
                      {"cs", AnalysisConfig::cs},
                      {"ci", AnalysisConfig::ci}};
  for (const Cfg &C : Cfgs) {
    AnalysisConfig Base = C.Make();
    Base.Verify = VerifyMode::Off;
    Solved Baseline("BlueBlog", Base);
    ASSERT_TRUE(Baseline.R.Completed) << C.Name;
    const std::set<IssueKey> Want = issueSet(Baseline.R.Issues);

    TempDir D;
    persist::ArtifactCache Cache(D.Path);
    for (bool Warm : {false, true}) {
      AnalysisConfig AC = C.Make();
      AC.Verify = VerifyMode::Full;
      AC.Cache = &Cache;
      AC.InputFingerprint = "app:BlueBlog";
      GeneratedApp App = generateApp(specByName("BlueBlog"));
      TaintAnalysis TA(*App.P, std::move(AC));
      AnalysisResult R = TA.run({App.Root});
      SCOPED_TRACE(std::string(C.Name) + (Warm ? " warm" : " cold"));
      EXPECT_EQ(R.VerifyViolations, 0u);
      EXPECT_EQ(R.RunStats.get("verify.violations"), 0u);
      EXPECT_EQ(R.RunStats.get("persist.verify_rejected"), 0u);
      EXPECT_EQ(issueSet(R.Issues), Want);
      if (Warm) {
        EXPECT_GT(R.RunStats.get("persist.hit"), 0u);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Poisoned persisted artifacts: checksum-valid, structurally wrong
//===----------------------------------------------------------------------===//

/// Rebuilds the frontend exactly as analyzeApp does, for artifact surgery.
struct Rebuilt {
  Program P;
  MethodId Root = InvalidId;
  std::unique_ptr<ClassHierarchy> CHA;
  ConstStringResult CS;
  std::unique_ptr<PointsToSolver> Solver;
  bool Ok = false;

  /// Restores the program from the cache's own IR record — the exact
  /// program warm analyzeApp runs pair with the pts/sdg artifacts.
  Rebuilt(persist::ArtifactCache &Cache, const std::string &InputFp) {
    auto Payload =
        Cache.load(persist::ArtifactCache::makeKey("ir", InputFp, ""),
                   persist::ArtifactKind::Ir);
    if (!Payload)
      return;
    persist::Reader R(Payload->data(), Payload->size());
    if (!persist::Access::restoreProgram(P, R))
      return;
    // analyzeApp appends the synthetic entrypoint driver after the IR
    // restore and before solving; the solver artifact's statement ids
    // cover it, so it must exist before restoreSolver's validation.
    Root = synthesizeEntrypointDriver(P);
    P.indexStatements();
    CHA = std::make_unique<ClassHierarchy>(P);
    Ok = true;
  }

  bool restoreSolverFrom(persist::ArtifactCache &Cache,
                         const std::string &PtsKey,
                         const AnalysisConfig &C) {
    // The solver must be constructed exactly as the run that stored the
    // artifact constructed it — including the const-string facts, which
    // shape the symbols the solver interns up front.
    ConstStringOptions CSO;
    CSO.Mode = C.StringAnalysis;
    CS = analyzeConstStrings(P, *CHA, CSO);
    PointsToOptions PO = C.pointsToOptions();
    PO.ConstStrings = &CS;
    Solver = std::make_unique<PointsToSolver>(P, *CHA, PO);
    auto Payload = Cache.load(PtsKey, persist::ArtifactKind::PointsTo);
    if (!Payload) {
      std::fprintf(stderr, "restoreSolverFrom: no payload for key %s\n",
                   PtsKey.c_str());
      return false;
    }
    persist::Reader R(Payload->data(), Payload->size());
    const bool Ok = persist::Access::restoreSolver(*Solver, R);
    if (!Ok)
      std::fprintf(stderr, "restoreSolverFrom: structural restore failed\n");
    return Ok;
  }
};

TEST(PersistPoison, NonFixpointPointsToArtifactIsRejectedThenDropped) {
  const std::string Text = readFileOrDie(TAJ_EXAMPLE_TAJ);
  TempDir D;
  persist::ArtifactCache Cache(D.Path);
  server::RunOptions Opt;
  Opt.Verify = VerifyMode::Full;
  const std::vector<server::AppSource> Src = {{"webapp.taj", true, Text}};

  Stats S1;
  EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S1).Exit,
            server::ExitClean);

  // Poison the points-to artifact: drop an allocation fact and re-store.
  // store() recomputes the record checksum, so only --verify=full's
  // structural recheck can tell the artifact is wrong.
  AnalysisConfig C;
  ASSERT_TRUE(server::buildConfig(Opt, C));
  const std::string PtsKey = persist::ArtifactCache::makeKey(
      "pts", inputFpOf(Text), C.pointsToFingerprint());
  Rebuilt RB(Cache, inputFpOf(Text));
  ASSERT_TRUE(RB.Ok);
  ASSERT_TRUE(RB.restoreSolverFrom(Cache, PtsKey, C));
  PKId PK = findAllocDestKey(RB.P, *RB.Solver);
  ASSERT_NE(PK, InvalidId);
  SolverTestPeer::clearPointsTo(*RB.Solver, PK);
  persist::Writer W;
  persist::Access::serializeSolver(*RB.Solver, W);
  Cache.store(PtsKey, persist::ArtifactKind::PointsTo, W.bytes());

  Stats S2;
  EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S2).Exit,
            server::ExitError);
  EXPECT_GE(S2.get("verify.pointsto_violations"), 1u);
  EXPECT_GE(S2.get("persist.verify_rejected"), 1u);

  // The rejection dropped the poisoned entry: the next run recomputes
  // cold and is clean again.
  Stats S3;
  EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S3).Exit,
            server::ExitClean);
  EXPECT_EQ(S3.get("verify.violations"), 0u);
}

TEST(PersistPoison, BudgetedRecordWithContradictingStringFactsIsRejected) {
  // A budget-truncated solution is stored, and its record carries the
  // run's string facts. The fixpoint recheck stays gated on clean solves,
  // but the const-string checker still covers a budgeted restore.
  const std::string Text = readFileOrDie(TAJ_EXAMPLE_TAJ);
  TempDir D;
  persist::ArtifactCache Cache(D.Path);
  server::RunOptions Opt;
  Opt.ConfigName = "hybrid-optimized";
  Opt.Budget = 1;
  Opt.Verify = VerifyMode::Full;
  const std::vector<server::AppSource> Src = {{"webapp.taj", true, Text}};

  Stats S1;
  EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S1).Exit,
            server::ExitTruncated);
  EXPECT_EQ(S1.get("verify.violations"), 0u);

  AnalysisConfig C;
  ASSERT_TRUE(server::buildConfig(Opt, C));
  const std::string PtsKey = persist::ArtifactCache::makeKey(
      "pts", inputFpOf(Text), C.pointsToFingerprint());
  auto Payload = Cache.load(PtsKey, persist::ArtifactKind::PointsTo);
  ASSERT_TRUE(Payload.has_value());
  std::vector<uint8_t> Bytes(Payload->data(),
                             Payload->data() + Payload->size());

  // Walk the record's leading sections (pool symbols; mode and degraded
  // flag; the per-method offsets) to the facts' value column.
  persist::Reader R(Bytes.data(), Bytes.size());
  R.u32();
  for (uint32_t N = R.u32(); N > 0 && !R.failed(); --N)
    R.str();
  R.u8();
  R.u8();
  std::vector<uint32_t> MethodBase(R.count(4));
  ASSERT_TRUE(R.u32Array(MethodBase.data(), MethodBase.size()));
  const uint32_t NumValues = R.count(4);
  ASSERT_FALSE(R.failed());
  const size_t ValuesAt = Bytes.size() - R.remaining();

  // Make the fact for the first resolved ConstStr definition name another
  // symbol; store() re-signs the record, so it passes the checksum.
  Rebuilt RB(Cache, inputFpOf(Text));
  ASSERT_TRUE(RB.Ok);
  size_t Victim = SIZE_MAX;
  Symbol Lit = 0;
  for (MethodId M = 0; M + 1 < MethodBase.size() && Victim == SIZE_MAX; ++M)
    for (const BasicBlock &BB : RB.P.Methods[M].Blocks)
      for (const Instruction &I : BB.Insts)
        if (I.Op == Opcode::ConstStr && Victim == SIZE_MAX) {
          Victim = MethodBase[M] + static_cast<uint32_t>(I.Dst);
          Lit = I.StrLit;
        }
  ASSERT_LT(Victim, NumValues);
  const Symbol Other = Lit == 0 ? 1 : 0;
  for (int K = 0; K < 4; ++K)
    Bytes[ValuesAt + 4 * Victim + K] = static_cast<uint8_t>(Other >> (8 * K));
  Cache.store(PtsKey, persist::ArtifactKind::PointsTo, Bytes);

  Stats S2;
  EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S2).Exit,
            server::ExitError);
  EXPECT_GE(S2.get("verify.conststr_violations"), 1u);
  EXPECT_GE(S2.get("persist.verify_rejected"), 1u);

  // The rejection dropped the poisoned entry: the next run recomputes
  // cold and is clean again.
  Stats S3;
  EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S3).Exit,
            server::ExitTruncated);
  EXPECT_EQ(S3.get("verify.violations"), 0u);
}

TEST(PersistPoison, CorruptSdgArtifactIsRejectedWithExitOne) {
  const std::string Text = readFileOrDie(TAJ_EXAMPLE_TAJ);
  TempDir D;
  persist::ArtifactCache Cache(D.Path);
  server::RunOptions Opt;
  Opt.Verify = VerifyMode::Full;
  const std::vector<server::AppSource> Src = {{"webapp.taj", true, Text}};

  Stats S1;
  EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S1).Exit,
            server::ExitClean);

  AnalysisConfig C;
  ASSERT_TRUE(server::buildConfig(Opt, C));
  const std::string InputFp = inputFpOf(Text);
  const std::string PtsKey = persist::ArtifactCache::makeKey(
      "pts", InputFp, C.pointsToFingerprint());
  const std::string SdgKey = persist::ArtifactCache::makeKey(
      "sdg", InputFp, C.sdgFingerprint());
  Rebuilt RB(Cache, inputFpOf(Text));
  ASSERT_TRUE(RB.Ok);
  ASSERT_TRUE(RB.restoreSolverFrom(Cache, PtsKey, C));
  SDGOptions SO;
  SO.ContextExpanded = true;
  persist::SdgArtifacts A = persist::loadOrBuildSdg(
      RB.P, *RB.CHA, *RB.Solver, SO, C.NestedTaintDepth, &Cache, SdgKey);
  ASSERT_TRUE(A.FromCache);
  // Point a statement node at a statement of a *different* method: still
  // globally in range (restoreSdg's bounds validation accepts it — only
  // N.S >= numStmts is rejected there), but dead to the owning method,
  // which only the verifier's liveness check notices. The re-stored
  // record's checksum is valid by construction.
  auto &Nodes = SdgTestPeer::nodes(*A.G);
  size_t Victim = Nodes.size();
  uint32_t Redirect = 0;
  for (size_t N = 0; N < Nodes.size(); ++N) {
    if (Nodes[N].Kind != SDGNodeKind::Stmt)
      continue;
    const StmtId B = RB.P.methodStmtBegin(Nodes[N].M);
    const StmtId E = RB.P.methodStmtEnd(Nodes[N].M);
    if (B > 0) {
      Victim = N;
      Redirect = 0;
      break;
    }
    if (E < RB.P.numStmts()) {
      Victim = N;
      Redirect = E;
      break;
    }
  }
  ASSERT_LT(Victim, Nodes.size());
  Nodes[Victim].S = Redirect;
  persist::Writer W;
  persist::Access::serializeSdg(*A.G, A.HE.get(), W);
  Cache.store(SdgKey, persist::ArtifactKind::Sdg, W.bytes());

  Stats S2;
  EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S2).Exit,
            server::ExitError);
  EXPECT_GE(S2.get("verify.sdg_violations"), 1u);
  EXPECT_GE(S2.get("persist.verify_rejected"), 1u);

  Stats S3;
  EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S3).Exit,
            server::ExitClean);
}

TEST(PersistPoison, DoublyDefinedValueInTheIrRecordIsRejectedWithExitOne) {
  const std::string Text = readFileOrDie(TAJ_EXAMPLE_TAJ);
  TempDir D;
  persist::ArtifactCache Cache(D.Path);
  server::RunOptions Opt;
  Opt.Verify = VerifyMode::Full;
  const std::vector<server::AppSource> Src = {{"webapp.taj", true, Text}};

  Stats S1;
  EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S1).Exit,
            server::ExitClean);

  // Give the second value-defining instruction of a method the SSA value
  // the first defines. restoreProgram checks that each value is in range,
  // not that it has one definition, so only the IR verifier behind
  // --verify=full can tell; store() re-signs the record.
  const std::string IrKey =
      persist::ArtifactCache::makeKey("ir", inputFpOf(Text), "");
  Program P;
  {
    auto Payload = Cache.load(IrKey, persist::ArtifactKind::Ir);
    ASSERT_TRUE(Payload.has_value());
    persist::Reader R(Payload->data(), Payload->size());
    ASSERT_TRUE(persist::Access::restoreProgram(P, R));
  }
  bool Poisoned = false;
  for (Method &M : P.Methods) {
    ValueId First = NoValue;
    for (BasicBlock &BB : M.Blocks)
      for (Instruction &I : BB.Insts)
        if (!Poisoned && I.hasDst()) {
          if (First == NoValue) {
            First = I.Dst;
          } else {
            I.Dst = First;
            Poisoned = true;
          }
        }
    if (Poisoned)
      break;
  }
  ASSERT_TRUE(Poisoned);
  persist::Writer W;
  persist::Access::serializeProgram(P, W);
  Program Restored;
  persist::Reader RR(W.bytes().data(), W.bytes().size());
  ASSERT_TRUE(persist::Access::restoreProgram(Restored, RR));
  Cache.store(IrKey, persist::ArtifactKind::Ir, W.bytes());

  Stats S2;
  EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S2).Exit,
            server::ExitError);
  EXPECT_GE(S2.get("verify.ir_violations"), 1u);
  EXPECT_EQ(S2.get("persist.verify_rejected"), 1u);

  // The rejection dropped the poisoned entry: the next run parses cold,
  // stores a fresh ir record and is clean again.
  Stats S3;
  EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S3).Exit,
            server::ExitClean);
  EXPECT_EQ(S3.get("verify.violations"), 0u);
  EXPECT_EQ(S3.get("persist.store"), 1u);
}

TEST(PersistPoison, TruncatedRecordFallsBackColdAndClean) {
  const std::string Text = readFileOrDie(TAJ_EXAMPLE_TAJ);
  TempDir D;
  server::RunOptions Opt;
  Opt.Verify = VerifyMode::Full;
  const std::vector<server::AppSource> Src = {{"webapp.taj", true, Text}};
  {
    persist::ArtifactCache Cache(D.Path);
    Stats S1;
    EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S1).Exit,
              server::ExitClean);
  }
  // A record that fails checksum/framing verification is an ordinary
  // corrupt entry: cold fallback, clean exit, no verify involvement.
  for (const auto &DE : fs::directory_iterator(D.Path))
    if (DE.path().extension() == ".tajc")
      fs::resize_file(DE.path(), fs::file_size(DE.path()) / 2);
  persist::ArtifactCache Cache(D.Path);
  Stats S2;
  EXPECT_EQ(server::analyzeApp(Src, Opt, &Cache, &S2).Exit,
            server::ExitClean);
  EXPECT_EQ(S2.get("verify.violations"), 0u);
}

//===----------------------------------------------------------------------===//
// taj-cli end to end
//===----------------------------------------------------------------------===//

TEST(Cli, FullVerifyIsByteIdenticalToOffOnCleanRuns) {
  for (const char *Cfg : {"hybrid", "cs", "ci"}) {
    int EOff = -1, EFull = -1;
    std::string Off = runCli(std::string("--config=") + Cfg +
                                 " --verify=off " + TAJ_EXAMPLE_TAJ +
                                 " 2>/dev/null",
                             EOff);
    std::string Full = runCli(std::string("--config=") + Cfg +
                                  " --verify=full " + TAJ_EXAMPLE_TAJ +
                                  " 2>/dev/null",
                              EFull);
    EXPECT_EQ(EOff, 0) << Cfg;
    EXPECT_EQ(EFull, 0) << Cfg;
    EXPECT_EQ(Off, Full) << Cfg;
  }
}

TEST(Cli, BadVerifyValueIsUsageError) {
  int Exit = -1;
  runCli(std::string("--verify=maybe ") + TAJ_EXAMPLE_TAJ + " 2>/dev/null",
         Exit);
  EXPECT_EQ(Exit, 1);
}

TEST(Cli, BatchModeRunsCleanUnderFullVerify) {
  TempDir D;
  const std::string Copy = D.Path + "/webapp2.taj";
  {
    std::ofstream Out(Copy);
    Out << readFileOrDie(TAJ_EXAMPLE_TAJ);
  }
  const std::string List = D.Path + "/apps.list";
  {
    std::ofstream Out(List);
    Out << TAJ_EXAMPLE_TAJ << "\n" << Copy << "\n";
  }
  int Exit = -1;
  runCli("--batch=" + List + " --verify=full --jobs=2 --cache-dir=" +
             D.Path + "/cache 2>/dev/null",
         Exit);
  EXPECT_EQ(Exit, 0);
}

} // namespace
