//===- tests/taint_test.cpp - End-to-end taint analysis tests ------------===//
//
// Scenario tests for the full TAJ pipeline: direct flows, sanitization,
// containers with constant keys, taint carriers, reflection (the paper's
// motivating example), context-sensitivity differences between hybrid/CS/CI,
// thread-handoff unsoundness of CS, and bounded-analysis behaviour.
//
//===----------------------------------------------------------------------===//

#include "core/TaintAnalysis.h"
#include "frontend/Parser.h"
#include "ir/Verifier.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"

#include <gtest/gtest.h>

using namespace taj;

namespace {

/// Builds a program from app source over the builtin model library, runs
/// one configuration, returns the issues.
struct Pipeline {
  Program P;
  BuiltinLibrary Lib;
  MethodId Root = InvalidId;

  explicit Pipeline(const std::string &AppSource) {
    Lib = installBuiltinLibrary(P);
    std::vector<std::string> Errors;
    bool Ok = parseTaj(P, AppSource, &Errors);
    EXPECT_TRUE(Ok) << (Errors.empty() ? "?" : Errors.front());
    std::vector<std::string> VErrors = verifyProgram(P);
    EXPECT_TRUE(VErrors.empty()) << (VErrors.empty() ? "" : VErrors.front());
    Root = synthesizeEntrypointDriver(P);
  }

  AnalysisResult run(AnalysisConfig C) {
    TaintAnalysis TA(P, std::move(C));
    return TA.run({Root});
  }

  /// Number of issues for one rule kind.
  static int countRule(const AnalysisResult &R, RuleMask Rule) {
    int N = 0;
    for (const Issue &I : R.Issues)
      N += (I.Rule & Rule) != 0;
    return N;
  }
};

TEST(Taint, DirectFlowIsReported) {
  Pipeline PL(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    w = resp.getWriter();
    w.println(t);
  }
}
)");
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(Pipeline::countRule(R, rules::XSS), 1);
}

TEST(Taint, SanitizedFlowIsNotReported) {
  Pipeline PL(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    e = Encoder.encode(t);
    w = resp.getWriter();
    w.println(e);
  }
}
)");
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(R, rules::XSS), 0);
}

TEST(Taint, RuleSpecificSanitizerKeepsOtherRules) {
  // encodeHtml cleans XSS but not SQLi: the query sink still fires.
  Pipeline PL(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response, db: Database): void [entry] {
    t = req.getParameter("name");
    e = Encoder.encodeHtml(t);
    w = resp.getWriter();
    w.println(e);
    q = db.executeQuery(e);
  }
}
)");
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(R, rules::XSS), 0);
  EXPECT_EQ(Pipeline::countRule(R, rules::SQLI), 1);
}

TEST(Taint, FlowThroughHeapField) {
  Pipeline PL(R"(
class Holder extends Object {
  field v: String;
}
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    h = new Holder;
    h.v = t;
    u = h.v;
    w = resp.getWriter();
    w.println(u);
  }
}
)");
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(R, rules::XSS), 1);
}

TEST(Taint, ConstantMapKeysAreDistinguished) {
  // Tainted under key "a"; the sink only reads key "b": no issue. This is
  // the §4.2.1 constant-key dictionary model.
  Pipeline PL(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    m = new HashMap;
    m.put("a", t);
    clean = "hello";
    m.put("b", clean);
    u = m.get("b");
    w = resp.getWriter();
    w.println(u);
  }
}
)");
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(R, rules::XSS), 0);

  Pipeline PL2(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    m = new HashMap;
    m.put("a", t);
    u = m.get("a");
    w = resp.getWriter();
    w.println(u);
  }
}
)");
  AnalysisResult R2 = PL2.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(R2, rules::XSS), 1);
}

TEST(Taint, TaintCarrierDetected) {
  // Tainted data wrapped in an object that flows to the sink (§4.1.1).
  Pipeline PL(R"(
class Internal extends Object {
  field s: String;
  method init(this: Internal, s: String): void { this.s = s; }
}
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    i = new Internal(t);
    w = resp.getWriter();
    w.println(i);
  }
}
)");
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(R, rules::XSS), 1);
}

TEST(Taint, NestedTaintDepthBound) {
  // Taint three dereferences deep: found unbounded, dropped at depth 2.
  Pipeline PL(R"(
class L1 extends Object { field next: L2; }
class L2 extends Object { field next: L3; }
class L3 extends Object { field s: String; }
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    a = new L1;
    b = new L2;
    c = new L3;
    c.s = t;
    b.next = c;
    a.next = b;
    w = resp.getWriter();
    w.println(a);
  }
}
)");
  AnalysisResult Unbounded = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(Unbounded, rules::XSS), 1);

  AnalysisConfig Depth2 = AnalysisConfig::hybridUnbounded();
  Depth2.NestedTaintDepth = 2;
  AnalysisResult Bounded = PL.run(std::move(Depth2));
  EXPECT_EQ(Pipeline::countRule(Bounded, rules::XSS), 0)
      << "depth-2 bound must prune the depth-3 carrier";
}

TEST(Taint, NestedDepthBoundCountsTheShortestPath) {
  // The sink argument p is s1 or s2. Through s1 the taint sits three
  // dereferences deep (s1.f.f.f), through s2 four (s2.f.f.f.f), and x is
  // met on both paths. The bound counts the shorter one, whichever of s1
  // and s2 is allocated, and so whichever the heap walk starts from.
  for (const bool S1First : {true, false}) {
    SCOPED_TRACE(S1First ? "s1 allocated first" : "s2 allocated first");
    const std::string Allocs = S1First ? "s1 = new Link;\n    s2 = new Link;"
                                       : "s2 = new Link;\n    s1 = new Link;";
    Pipeline PL(R"(
class Link extends Object { field f: Object; }
class Holder extends Object { field g: Object; }
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    )" + Allocs + R"(
    x = new Link;
    y = new Link;
    z = new Link;
    s1.f = x;
    s2.f = y;
    y.f = x;
    x.f = z;
    z.f = t;
    h = new Holder;
    h.g = s1;
    h.g = s2;
    p = h.g;
    w = resp.getWriter();
    w.println(p);
  }
}
)");
    for (const uint32_t Depth : {3u, 2u}) {
      AnalysisConfig C = AnalysisConfig::hybridUnbounded();
      C.NestedTaintDepth = Depth;
      EXPECT_EQ(Pipeline::countRule(PL.run(std::move(C)), rules::XSS),
                Depth == 3 ? 1 : 0)
          << "--nested-depth=" << Depth;
    }
  }
}

/// The motivating example of Figure 1: reflection, containers, nested
/// taint. Exactly one of the three println calls is vulnerable.
const char *MotivatingSource = R"(
class Internal extends Object {
  field s: String;
  method init(this: Internal, s: String): void { this.s = s; }
}
class Motivating extends Object {
  method doGet(this: Motivating, req: Request, resp: Response): void [entry] {
    t1 = req.getParameter("fName");
    t2 = req.getParameter("lName");
    w = resp.getWriter();
    k = Class.forName("Motivating");
    idm = k.getMethod("id");
    m = new HashMap;
    m.put("fName", t1);
    m.put("lName", t2);
    d = "2009-06-15";
    m.put("date", d);
    a1 = new Object[];
    v1 = m.get("fName");
    a1[] = v1;
    s1 = idm.invoke(this, a1);
    a2 = new Object[];
    v2 = m.get("lName");
    e2 = Encoder.encode(v2);
    a2[] = e2;
    s2 = idm.invoke(this, a2);
    a3 = new Object[];
    v3 = m.get("date");
    a3[] = v3;
    s3 = idm.invoke(this, a3);
    i1 = new Internal(s1);
    i2 = new Internal(s2);
    i3 = new Internal(s3);
    w.println(i1);
    w.println(i2);
    w.println(i3);
  }
  method id(this: Motivating, s: String): String { return s; }
}
)";

TEST(Taint, MotivatingExampleHybridPrecision) {
  Pipeline PL(MotivatingSource);
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  // Only the i1 flow (BAD) must be flagged; i2 is sanitized, i3 untainted.
  EXPECT_EQ(Pipeline::countRule(R, rules::XSS), 1)
      << "hybrid must distinguish the three reflective invocations";
}

TEST(Taint, ContextConfusionOnlyInCI) {
  // A shared identity helper: the tainted value goes to sinkA, the clean
  // one to sinkB. Context-insensitive slicing merges the two calls and
  // reports both; hybrid and CS report only the real one.
  Pipeline PL(R"(
class App extends Servlet {
  method id(this: App, x: String): String { return x; }
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    clean = "hello";
    a = this.id(t);
    b = this.id(clean);
    w = resp.getWriter();
    w.println(a);
    w.println(b);
  }
}
)");
  AnalysisResult H = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(H, rules::XSS), 1);

  AnalysisResult CS = PL.run(AnalysisConfig::cs());
  ASSERT_TRUE(CS.Completed);
  EXPECT_EQ(Pipeline::countRule(CS, rules::XSS), 1);

  AnalysisResult CI = PL.run(AnalysisConfig::ci());
  EXPECT_EQ(Pipeline::countRule(CI, rules::XSS), 2)
      << "CI merges call sites of the shared helper";
}

TEST(Taint, SequentialOrderingPrecisionOfCS) {
  // The reader entry runs before the writer entry, so in any sequential
  // execution the load cannot see the tainted store. Hybrid and CI use
  // flow-insensitive heap edges and report the impossible flow (FP); the
  // partially-flow-sensitive CS algorithm correctly omits it — the same
  // property that makes CS unsound once threads reorder execution.
  Pipeline PL(R"(
class Shared extends Object {
  static field data: String;
}
class ReaderFirst extends Servlet {
  method entryA(this: ReaderFirst, resp: Response): void [entry] {
    u = Shared.data;
    w = resp.getWriter();
    w.println(u);
  }
}
class WriterSecond extends Servlet {
  method entryB(this: WriterSecond, req: Request): void [entry] {
    t = req.getParameter("name");
    Shared.data = t;
  }
}
)");
  AnalysisResult H = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(H, rules::XSS), 1)
      << "hybrid's flow-insensitive heap edges report the stale flow";
  AnalysisResult CI = PL.run(AnalysisConfig::ci());
  EXPECT_GE(Pipeline::countRule(CI, rules::XSS), 1);
  AnalysisResult CS = PL.run(AnalysisConfig::cs());
  ASSERT_TRUE(CS.Completed);
  EXPECT_EQ(Pipeline::countRule(CS, rules::XSS), 0)
      << "CS respects statement order through the root driver";
}

TEST(Taint, ThreadHandoffMissedByCS) {
  // A worker thread stores tainted data into a shared static; another
  // entry reads it. The store happens textually/sequentially after the
  // read, so the partially-flow-sensitive CS algorithm misses it (its
  // multi-threaded unsoundness, §3.2); hybrid and CI report it.
  Pipeline PL(R"(
class Shared extends Object {
  static field data: String;
}
class Worker extends Thread {
  field input: String;
  method run(this: Worker): void {
    t = this.input;
    Shared.data = t;
  }
}
class Reader extends Servlet {
  method entryA(this: Reader, resp: Response): void [entry] {
    u = Shared.data;
    w = resp.getWriter();
    w.println(u);
  }
}
class Spawner extends Servlet {
  method entryB(this: Spawner, req: Request): void [entry] {
    t = req.getParameter("name");
    wk = new Worker;
    wk.input = t;
    wk.start();
  }
}
)");
  AnalysisResult H = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(H, rules::XSS), 1)
      << "hybrid's flow-insensitive heap edges catch the handoff";
  AnalysisResult CI = PL.run(AnalysisConfig::ci());
  EXPECT_GE(Pipeline::countRule(CI, rules::XSS), 1);
  AnalysisResult CS = PL.run(AnalysisConfig::cs());
  ASSERT_TRUE(CS.Completed);
  EXPECT_EQ(Pipeline::countRule(CS, rules::XSS), 0)
      << "CS misses the inter-thread flow (paper's false negatives)";
}

TEST(Taint, FlowLengthFilter) {
  // A long chain of copies through helper calls: the optimized flow-length
  // filter drops it.
  std::string Src = R"(
class App extends Servlet {
)";
  // Chain of 10 identity helpers -> flow length > 6.
  for (int K = 0; K < 10; ++K)
    Src += "  method h" + std::to_string(K) +
           "(this: App, x: String): String { return x; }\n";
  Src += R"(
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
)";
  Src += "    v0 = this.h0(t);\n";
  for (int K = 1; K < 10; ++K)
    Src += "    v" + std::to_string(K) + " = this.h" + std::to_string(K) +
           "(v" + std::to_string(K - 1) + ");\n";
  Src += R"(
    w = resp.getWriter();
    w.println(v9);
  }
}
)";
  Pipeline PL(Src);
  AnalysisResult Unbounded = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(Unbounded, rules::XSS), 1);

  AnalysisConfig Short = AnalysisConfig::hybridUnbounded();
  Short.MaxFlowLength = 6;
  AnalysisResult Filtered = PL.run(std::move(Short));
  EXPECT_EQ(Pipeline::countRule(Filtered, rules::XSS), 0)
      << "flows longer than the bound must be dropped";
}

TEST(Taint, ExceptionLeakModeled) {
  // §4.1.2: rendering a caught exception leaks internals.
  Pipeline PL(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    e = caught;
    m = e.getMessage();
    w = resp.getWriter();
    w.println(m);
  }
}
)");
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_GE(Pipeline::countRule(R, rules::LEAK), 1);
}

TEST(Taint, CollectionFlow) {
  Pipeline PL(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    l = new List;
    l.add(t);
    i = 0;
    u = l.get(i);
    w = resp.getWriter();
    w.println(u);
  }
}
)");
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(R, rules::XSS), 1);
}

TEST(Taint, DistinctCollectionInstancesAreSeparated) {
  // Unlimited-depth object sensitivity for collections (§3.1): contents of
  // two lists never mix.
  Pipeline PL(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    l1 = new List;
    l2 = new List;
    l1.add(t);
    clean = "hello";
    l2.add(clean);
    i = 0;
    u = l2.get(i);
    w = resp.getWriter();
    w.println(u);
  }
}
)");
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(R, rules::XSS), 0);
}

TEST(Taint, StringBuilderTransfer) {
  Pipeline PL(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    sb = new StringBuilder;
    sb2 = sb.append(t);
    s = sb2.toString();
    w = resp.getWriter();
    w.println(s);
  }
}
)");
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(R, rules::XSS), 1);
}

TEST(Taint, RecursionThroughIdentity) {
  // Summaries must converge on (mutually) recursive methods.
  Pipeline PL(R"(
class App extends Servlet {
  method rec(this: App, s: String, n: int): String {
    c = n < 1;
    if c goto base;
    m = n - 1;
    r = this.rec(s, m);
    return r;
    base:
    return s;
  }
  method ping(this: App, s: String, n: int): String {
    c = n < 1;
    if c goto base;
    m = n - 1;
    r = this.pong(s, m);
    return r;
    base:
    return s;
  }
  method pong(this: App, s: String, n: int): String {
    r = this.ping(s, n);
    return r;
  }
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("q");
    n = 3;
    a = this.rec(t, n);
    b = this.ping(t, n);
    w = resp.getWriter();
    w.println(a);
    w.println(b);
  }
}
)");
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(R, rules::XSS), 2)
      << "taint must survive direct and mutual recursion";
  AnalysisResult CS = PL.run(AnalysisConfig::cs());
  ASSERT_TRUE(CS.Completed);
  EXPECT_EQ(Pipeline::countRule(CS, rules::XSS), 2);
}

TEST(Taint, RecursiveHeapStructure) {
  // A linked list built in a loop: the context-depth guard must keep the
  // pointer analysis terminating, and taint via the list must be found.
  Pipeline PL(R"(
class Node extends Object {
  field next: Node;
  field val: String;
}
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("q");
    head = new Node;
    head.val = t;
    i = 0;
    loop:
    c = i < 5;
    if c goto body;
    goto done;
    body:
    n = new Node;
    n.next = head;
    n.val = t;
    head = n;
    i = i + 1;
    goto loop;
    done:
    u = head.val;
    w = resp.getWriter();
    w.println(u);
  }
}
)");
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_GE(Pipeline::countRule(R, rules::XSS), 1);
}

TEST(Taint, CarrierThroughCollectionInObject) {
  // Nested taint through a collection stored in a field (the §6.2.3
  // data-structure-bridging scenario).
  Pipeline PL(R"(
class Bag extends Object {
  field items: List;
}
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("q");
    l = new List;
    l.add(t);
    b = new Bag;
    b.items = l;
    w = resp.getWriter();
    w.println(b);
  }
}
)");
  // Taint sits at dereference depth 2 (bag -> list contents).
  AnalysisConfig Deep = AnalysisConfig::hybridUnbounded();
  Deep.NestedTaintDepth = 2;
  AnalysisResult R = PL.run(std::move(Deep));
  EXPECT_EQ(Pipeline::countRule(R, rules::XSS), 1);

  AnalysisConfig Shallow = AnalysisConfig::hybridUnbounded();
  Shallow.NestedTaintDepth = 1;
  AnalysisResult R1 = PL.run(std::move(Shallow));
  EXPECT_EQ(Pipeline::countRule(R1, rules::XSS), 0);
}

TEST(Taint, MaliciousFileExecution) {
  Pipeline PL(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, fs: FileSystem, rt: Runtime): void [entry] {
    t = req.getParameter("path");
    x = fs.open(t);
    rt.exec(t);
  }
}
)");
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_EQ(Pipeline::countRule(R, rules::FILE), 2);
}

} // namespace
