//===- tests/sdg_test.cpp - SDG & slicer invariant tests -----------------===//
//
// Structural tests of the SDG (no-heap discipline, call plumbing, channel
// extension) and cross-algorithm invariants checked as properties over
// random applications: hybrid issues are a subset of CI issues, and CS
// (when it completes) reports a subset of hybrid plus alias decoys.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generator.h"
#include "core/TaintAnalysis.h"
#include "frontend/Parser.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"
#include "rhs/Tabulation.h"
#include "sdg/SDG.h"
#include "support/RunGuard.h"

#include <gtest/gtest.h>

using namespace taj;

namespace {

struct Built {
  Program P;
  MethodId Root = InvalidId;
  std::unique_ptr<ClassHierarchy> CHA;
  std::unique_ptr<PointsToSolver> Solver;
  std::unique_ptr<SDG> G;

  Built(const std::string &Src, SDGOptions SO) {
    installBuiltinLibrary(P);
    std::vector<std::string> Errors;
    EXPECT_TRUE(parseTaj(P, Src, &Errors))
        << (Errors.empty() ? "?" : Errors.front());
    Root = synthesizeEntrypointDriver(P);
    P.indexStatements();
    CHA = std::make_unique<ClassHierarchy>(P);
    Solver = std::make_unique<PointsToSolver>(P, *CHA);
    Solver->solve({Root});
    G = std::make_unique<SDG>(P, *CHA, *Solver, SO);
  }
};

const char *SimpleApp = R"(
class Box extends Object { field v: String; }
class App extends Servlet {
  method pass(this: App, s: String): String { return s; }
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("q");
    u = this.pass(t);
    b = new Box;
    b.v = u;
    x = b.v;
    w = resp.getWriter();
    w.println(x);
  }
}
)";

TEST(Sdg, NoHeapDiscipline) {
  SDGOptions SO;
  SO.ContextExpanded = true;
  Built B(SimpleApp, SO);
  // Loads have no incoming Flow edges; stores have no outgoing edges.
  for (SDGNodeId N = 0; N < B.G->numNodes(); ++N) {
    const SDGNode &Node = B.G->node(N);
    if (Node.Kind != SDGNodeKind::Stmt)
      continue;
    if (Node.Access == HeapAccess::FieldStore) {
      EXPECT_TRUE(B.G->succs(N).empty())
          << "store must have no successors in the no-heap SDG";
    }
  }
  // Every load node exists and has no Flow predecessor: check by scanning
  // all edges for targets that are loads.
  std::set<SDGNodeId> LoadSet(B.G->loadNodes().begin(),
                              B.G->loadNodes().end());
  for (SDGNodeId N = 0; N < B.G->numNodes(); ++N)
    for (const SDGEdge &E : B.G->succs(N))
      if (E.Kind == SDGEdgeKind::Flow) {
        EXPECT_FALSE(LoadSet.count(E.To) &&
                     B.G->node(E.To).Access == HeapAccess::FieldLoad)
            << "no data edge may enter a load in the no-heap SDG";
      }
}

TEST(Sdg, CallPlumbingRoundTrip) {
  SDGOptions SO;
  SO.ContextExpanded = true;
  Built B(SimpleApp, SO);
  // Find the pass() call site: it must have ActualIns wired to FormalIns
  // and a ParamOut edge back from the callee's FormalOut.
  bool Found = false;
  for (SDGNodeId N = 0; N < B.G->numNodes(); ++N) {
    const CallSiteInfo *CS = B.G->callSite(N);
    if (!CS)
      continue;
    const Instruction &I = B.P.stmt(B.G->node(N).S);
    if (B.P.Pool.str(I.CalleeName) != "pass")
      continue;
    Found = true;
    EXPECT_EQ(CS->NumActualIns, I.Args.size());
    bool SawParamIn = false;
    for (uint32_t K = 0; K < CS->NumActualIns; ++K)
      for (const SDGEdge &E : B.G->succs(CS->FirstActualIn + K))
        SawParamIn |= E.Kind == SDGEdgeKind::ParamIn;
    EXPECT_TRUE(SawParamIn);
  }
  EXPECT_TRUE(Found);
}

TEST(Sdg, ChannelExtensionAddsFormals) {
  SDGOptions Plain;
  Plain.ContextExpanded = true;
  Built B1(SimpleApp, Plain);
  SDGOptions Chan = Plain;
  Chan.WithChanParams = true;
  Built B2(SimpleApp, Chan);
  EXPECT_GT(B2.G->numNodes(), B1.G->numNodes());
  EXPECT_GT(B2.G->numChanNodes(), 0u);
  EXPECT_FALSE(B2.G->chanBudgetExceeded());
}

TEST(Sdg, ChanBudgetTriggersOOM) {
  SDGOptions SO;
  SO.ContextExpanded = true;
  SO.WithChanParams = true;
  SO.ChanNodeBudget = 1;
  Built B(SimpleApp, SO);
  EXPECT_TRUE(B.G->chanBudgetExceeded());
}

TEST(Sdg, MergedScopeHasOneOwnerPerMethod) {
  SDGOptions Expanded;
  Expanded.ContextExpanded = true;
  SDGOptions Merged;
  Merged.ContextExpanded = false;
  Built BE(R"(
class H extends Object {
  method self(this: H): H { return this; }
}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    h1 = new H;
    h2 = new H;
    a = h1.self();
    b = h2.self();
  }
}
)",
           Expanded);
  Built BM(R"(
class H extends Object {
  method self(this: H): H { return this; }
}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    h1 = new H;
    h2 = new H;
    a = h1.self();
    b = h2.self();
  }
}
)",
           Merged);
  // The expanded graph duplicates H.self per receiver context.
  EXPECT_GT(BE.G->numNodes(), BM.G->numNodes());
}

TEST(Sdg, TabulationRespectsSanitizerBarrier) {
  SDGOptions SO;
  SO.ContextExpanded = true;
  Built B(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("q");
    e = Encoder.encode(t);
    w = resp.getWriter();
    w.println(e);
  }
}
)",
          SO);
  Tabulation Tab(*B.G, rules::XSS);
  for (SDGNodeId Src : B.G->sourceNodes(rules::XSS)) {
    Tabulation::SliceResult R(B.G->numNodes());
    Tab.forwardSlice({{Src, 0}}, R);
    for (SDGNodeId Sk : B.G->sinkNodes())
      EXPECT_FALSE(R.reached(Sk))
          << "slice must stop at the sanitizer";
  }
}

/// Two sources, each passed through the same callee in the same context
/// (one receiver), so the callee's formal-in has one summary for both.
/// The callee's own call makes its summary wait on a nested one.
const char *SharedCalleeApp = R"(
class App extends Servlet {
  method inner(this: App, s: String): String { return s; }
  method pass(this: App, s: String): String { r = this.inner(s); return r; }
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("q");
    u = this.pass(t);
    v = req.getParameter("r");
    x = this.pass(v);
    w = resp.getWriter();
    w.println(u);
    w.println(x);
  }
}
)";

TEST(Sdg, TabulationReusesAComputedSummary) {
  SDGOptions SO;
  SO.ContextExpanded = true;
  Built B(SharedCalleeApp, SO);
  const SDG &G = *B.G;
  const std::vector<SDGNodeId> Srcs = G.sourceNodes(rules::XSS);
  ASSERT_EQ(Srcs.size(), 2u);

  // The first slice computes pass()'s summary; the second steps over the
  // call with it.
  Tabulation Memo(G, rules::XSS);
  Tabulation::SliceResult R(G.numNodes());
  Memo.forwardSlice({{Srcs[0], 0}}, R);
  R.reset();
  const uint64_t Before = Memo.pathEdgeCount();
  Memo.forwardSlice({{Srcs[1], 0}}, R);
  const uint64_t ReusedEdges = Memo.pathEdgeCount() - Before;

  Tabulation Fresh(G, rules::XSS);
  Tabulation::SliceResult F(G.numNodes());
  Fresh.forwardSlice({{Srcs[1], 0}}, F);

  EXPECT_EQ(R.Reached, F.Reached);
  EXPECT_EQ(R.Dist, F.Dist);
  EXPECT_EQ(R.Parent, F.Parent);
  EXPECT_LT(ReusedEdges, Fresh.pathEdgeCount());
  bool ReachesSink = false;
  for (SDGNodeId Sk : G.sinkNodes())
    ReachesSink |= F.reached(Sk);
  EXPECT_TRUE(ReachesSink) << "the flow must cross the callee";
}

TEST(Sdg, TabulationCutoffInsideASummaryDrain) {
  SDGOptions SO;
  SO.ContextExpanded = true;
  Built B(SharedCalleeApp, SO);
  const SDG &G = *B.G;
  const std::vector<SDGNodeId> Srcs = G.sourceNodes(rules::XSS);
  ASSERT_EQ(Srcs.size(), 2u);
  Tabulation Unguarded(G, rules::XSS);
  Tabulation::SliceResult Full(G.numNodes());
  Unguarded.forwardSlice({{Srcs[0], 0}}, Full);

  // Up to the actual-in of the pass() call, the source's slice is a chain
  // of single successors: one phase-1 pop and checkpoint each. The next
  // checkpoint is the first item of pass()'s summary drain.
  size_t AIn = 0;
  while (AIn < Full.Reached.size() &&
         G.node(Full.Reached[AIn]).Kind != SDGNodeKind::ActualIn)
    ++AIn;
  ASSERT_LT(AIn, Full.Reached.size());
  RunGuard::Limits L;
  L.FailAtCheckpoint = AIn + 2;
  RunGuard Guard(L);
  Tabulation Tab(G, rules::XSS, &Guard);
  Tabulation::SliceResult R(G.numNodes());
  Tab.forwardSlice({{Srcs[0], 0}}, R);
  ASSERT_TRUE(Guard.stopped());
  // The partial slice is the chain popped before the cutoff.
  const std::vector<SDGNodeId> Chain(Full.Reached.begin(),
                                     Full.Reached.begin() + AIn + 1);
  EXPECT_EQ(R.Reached, Chain);
  EXPECT_EQ(Tab.pathEdgeCount(), AIn + 1);
  for (SDGNodeId N : R.Reached) {
    EXPECT_EQ(R.Dist[N], Full.Dist[N]);
    EXPECT_EQ(R.Parent[N], Full.Parent[N]);
  }

  // A later call through the same callee finds no stale work: it pops
  // nothing, reaches nothing and passes no checkpoint.
  const uint64_t Checkpoints = Guard.checkpointCount();
  Tabulation::SliceResult Later(G.numNodes());
  Tab.forwardSlice({{Srcs[1], 0}}, Later);
  EXPECT_TRUE(Later.Reached.empty());
  EXPECT_EQ(Tab.pathEdgeCount(), AIn + 1);
  EXPECT_EQ(Guard.checkpointCount(), Checkpoints);
}

/// Cross-algorithm inclusion properties on generated apps.
class AlgebraTest : public ::testing::TestWithParam<const char *> {};

TEST_P(AlgebraTest, HybridIssuesAreSubsetOfCi) {
  for (const AppSpec &S : benchmarkSuite()) {
    if (S.Name != GetParam())
      continue;
    GeneratedApp App = generateApp(S);
    TaintAnalysis TH(*App.P, AnalysisConfig::hybridUnbounded());
    AnalysisResult H = TH.run({App.Root});
    TaintAnalysis TC(*App.P, AnalysisConfig::ci());
    AnalysisResult CI = TC.run({App.Root});
    std::set<std::pair<StmtId, StmtId>> CiPairs;
    for (const Issue &I : CI.Issues)
      CiPairs.insert({I.Source, I.Sink});
    for (const Issue &I : H.Issues)
      EXPECT_TRUE(CiPairs.count({I.Source, I.Sink}))
          << S.Name << ": hybrid-reported flow missing from CI";
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, AlgebraTest,
                         ::testing::Values("A", "BlueBlog", "Friki", "I",
                                           "SBM", "Ginp"));

} // namespace
