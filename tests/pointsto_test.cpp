//===- tests/pointsto_test.cpp - Pointer analysis unit tests -------------===//
//
// Unit tests for the §3.1 pointer analysis: allocation-site points-to,
// field sensitivity, on-the-fly call-graph construction, virtual dispatch
// filtering, context policies (object sensitivity, call-string contexts
// for taint APIs/factories, collection cloning), reflection resolution,
// thread dispatch, JNDI/EJB bindings, and budgeted construction.
//
//===----------------------------------------------------------------------===//

#include "core/TaintAnalysis.h"
#include "frontend/Parser.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"
#include "pointsto/BitSet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <span>

#include <sys/wait.h>
#include <unistd.h>

using namespace taj;

namespace {

struct Solved {
  Program P;
  BuiltinLibrary Lib;
  MethodId Root = InvalidId;
  std::unique_ptr<ClassHierarchy> CHA;
  std::unique_ptr<PointsToSolver> Solver;

  explicit Solved(const std::string &Src, PointsToOptions Opts = {}) {
    Lib = installBuiltinLibrary(P);
    std::vector<std::string> Errors;
    bool Ok = parseTaj(P, Src, &Errors);
    EXPECT_TRUE(Ok) << (Errors.empty() ? "?" : Errors.front());
    Root = synthesizeEntrypointDriver(P);
    P.indexStatements();
    CHA = std::make_unique<ClassHierarchy>(P);
    Solver = std::make_unique<PointsToSolver>(P, *CHA, std::move(Opts));
    Solver->solve({Root});
  }

  /// Points-to classes of (method, named local resolved by SSA scan is
  /// impractical) — instead: classes pointed to by the return value.
  std::set<std::string> returnClasses(const std::string &Cls,
                                      const std::string &Meth) {
    std::set<std::string> Out;
    MethodId M = P.findMethod(P.findClass(Cls), Meth);
    EXPECT_NE(M, InvalidId);
    for (CGNodeId N : Solver->callGraph().nodesOf(M)) {
      PKId Ret = Solver->pointerKeys().ret(N);
      for (IKId IK : Solver->pointsTo(Ret)) {
        ClassId C = Solver->instanceKeys().data(IK).Cls;
        if (C != InvalidId)
          Out.insert(std::string(P.Pool.str(P.Classes[C].Name)));
      }
    }
    return Out;
  }

  bool methodReached(const std::string &Cls, const std::string &Meth) {
    MethodId M = P.findMethod(P.findClass(Cls), Meth);
    return M != InvalidId && Solver->isMethodProcessed(M);
  }

  size_t contextsOf(const std::string &Cls, const std::string &Meth) {
    MethodId M = P.findMethod(P.findClass(Cls), Meth);
    return Solver->callGraph().nodesOf(M).size();
  }
};

TEST(PointsTo, AllocationSitesFlowToReturn) {
  Solved S(R"(
class Box extends Object {}
class App extends Servlet {
  method mk(this: App): Box { b = new Box; return b; }
  method doGet(this: App, req: Request): void [entry] {
    x = this.mk();
  }
}
)");
  EXPECT_EQ(S.returnClasses("App", "mk"), std::set<std::string>{"Box"});
}

TEST(PointsTo, VirtualDispatchFiltersByReceiverClass) {
  Solved S(R"(
class Animal extends Object {
  method noise(this: Animal): Animal { r = new Animal; return r; }
}
class Dog extends Animal {
  method noise(this: Dog): Dog { r = new Dog; return r; }
}
class Cat extends Animal {
  method noise(this: Cat): Cat { r = new Cat; return r; }
}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    d = new Dog;
    n = d.noise();
  }
}
)");
  // Only Dog.noise may be invoked: Cat.noise must not be reached.
  EXPECT_TRUE(S.methodReached("Dog", "noise"));
  EXPECT_FALSE(S.methodReached("Cat", "noise"));
  EXPECT_FALSE(S.methodReached("Animal", "noise"));
}

TEST(PointsTo, FieldSensitivitySeparatesFields) {
  Solved S(R"(
class Pair extends Object {
  field a: Object;
  field b: Object;
}
class Left extends Object {}
class Right extends Object {}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    p = new Pair;
    l = new Left;
    r = new Right;
    p.a = l;
    p.b = r;
    x = p.a;
    this.observe(x);
  }
  method observe(this: App, o: Object): Object { return o; }
}
)");
  // observe's return sees only Left, not Right.
  EXPECT_EQ(S.returnClasses("App", "observe"),
            std::set<std::string>{"Left"});
}

TEST(PointsTo, ObjectSensitivityClonesPerReceiver) {
  Solved S(R"(
class Holder extends Object {
  method self(this: Holder): Holder { return this; }
}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    h1 = new Holder;
    h2 = new Holder;
    a = h1.self();
    b = h2.self();
  }
}
)");
  // One context per receiver allocation site.
  EXPECT_EQ(S.contextsOf("Holder", "self"), 2u);
}

TEST(PointsTo, TaintApisGetCallSiteContexts) {
  // Two getParameter calls on the same receiver produce two distinct
  // synthetic instance keys (the paper's disambiguation, §3.1). Since the
  // source model is applied inline per call site, the two returned values
  // must differ.
  Solved S(R"(
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    t1 = req.getParameter("a");
    t2 = req.getParameter("b");
    x = this.one(t1);
    y = this.two(t2);
  }
  method one(this: App, s: String): String { return s; }
  method two(this: App, s: String): String { return s; }
}
)");
  // Each identity helper sees exactly one synthetic string key.
  MethodId One = S.P.findMethod(S.P.findClass("App"), "one");
  MethodId Two = S.P.findMethod(S.P.findClass("App"), "two");
  std::vector<IKId> P1, P2;
  S.Solver->pointsToMerged(One, 1, P1);
  S.Solver->pointsToMerged(Two, 1, P2);
  ASSERT_EQ(P1.size(), 1u);
  ASSERT_EQ(P2.size(), 1u);
  EXPECT_NE(P1[0], P2[0]) << "per-call-site sources must not be merged";
}

TEST(PointsTo, CollectionsClonedPerInstance) {
  // Library collection contents are fully disambiguated per instance.
  Solved S(R"(
class A1 extends Object {}
class A2 extends Object {}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    l1 = new List;
    l2 = new List;
    o1 = new A1;
    o2 = new A2;
    l1.add(o1);
    l2.add(o2);
    i = 0;
    x = l1.get(i);
    r = this.observe(x);
  }
  method observe(this: App, o: Object): Object { return o; }
}
)");
  EXPECT_EQ(S.returnClasses("App", "observe"), std::set<std::string>{"A1"});
}

TEST(PointsTo, ReflectionResolvesConstantNames) {
  Solved S(R"(
class Target extends Object {
  method hit(this: Target): Target { r = new Target; return r; }
}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    k = Class.forName("Target");
    m = k.getMethod("hit");
    recv = new Target;
    a = new Object[];
    r = m.invoke(recv, a);
  }
}
)");
  EXPECT_TRUE(S.methodReached("Target", "hit"));
  // The reflective call's result flows back.
  MethodId DoGet = S.P.findMethod(S.P.findClass("App"), "doGet");
  bool SawTarget = false;
  for (const Method &M : S.P.Methods)
    (void)M;
  // invoke's dst is an intermediate; reaching Target.hit already proves
  // resolution, and the return-binding is covered by taint tests.
  SawTarget = S.methodReached("Target", "hit");
  EXPECT_TRUE(SawTarget);
  (void)DoGet;
}

TEST(PointsTo, UnresolvedReflectionIsCounted) {
  Solved S(R"(
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    name = req.getParameter("cls");
    k = Class.forName(name);
  }
}
)");
  EXPECT_GE(S.Solver->stats().get("reflection.unresolved"), 1u);
}

TEST(PointsTo, ThreadStartDispatchesToRun) {
  Solved S(R"(
class Worker extends Thread {
  method run(this: Worker): void {
    x = new Object;
  }
}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    w = new Worker;
    w.start();
  }
}
)");
  EXPECT_TRUE(S.methodReached("Worker", "run"));
}

TEST(PointsTo, JndiAndEjbBindings) {
  PointsToOptions Opts;
  Solved S(R"(
class MyHome extends EJBHome {}
class MyBean extends Object {
  method m2(this: MyBean): MyBean { r = new MyBean; return r; }
}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    ctx = new Context;
    ref = ctx.lookup("ejb/My");
    home = Context.narrow(ref);
    bean = home.create();
    r = bean.m2();
  }
}
)",
           [] {
             PointsToOptions O;
             return O;
           }());
  // Without bindings m2 is unreachable...
  EXPECT_FALSE(S.methodReached("MyBean", "m2"));

  // ...with descriptor bindings it dispatches into the bean.
  Program P2;
  installBuiltinLibrary(P2);
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseTaj(P2, R"(
class MyHome extends EJBHome {}
class MyBean extends Object {
  method m2(this: MyBean): MyBean { r = new MyBean; return r; }
}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    ctx = new Context;
    ref = ctx.lookup("ejb/My");
    home = Context.narrow(ref);
    bean = home.create();
    r = bean.m2();
  }
}
)",
                       &Errors));
  MethodId Root = synthesizeEntrypointDriver(P2);
  P2.indexStatements();
  ClassHierarchy CHA(P2);
  PointsToOptions O2;
  O2.JndiBindings["ejb/My"] = P2.findClass("MyHome");
  O2.EjbHomeToBean[P2.findClass("MyHome")] = P2.findClass("MyBean");
  PointsToSolver Solver(P2, CHA, std::move(O2));
  Solver.solve({Root});
  EXPECT_TRUE(Solver.isMethodProcessed(
      P2.findMethod(P2.findClass("MyBean"), "m2")));
}

TEST(PointsTo, BudgetTruncatesCallGraph) {
  std::string Src = "class App extends Servlet {\n";
  for (int K = 0; K < 50; ++K)
    Src += "  method m" + std::to_string(K) + "(this: App): void { " +
           (K + 1 < 50 ? "this.m" + std::to_string(K + 1) + "();" : "x = 1;") +
           " }\n";
  Src += R"(
  method doGet(this: App, req: Request): void [entry] { this.m0(); }
}
)";
  PointsToOptions Opts;
  Opts.MaxCallGraphNodes = 10;
  Solved S(Src, std::move(Opts));
  EXPECT_TRUE(S.Solver->budgetExhausted());
  EXPECT_LE(S.Solver->callGraph().numProcessed(), 10u);
  EXPECT_FALSE(S.methodReached("App", "m49"));
}

TEST(PointsTo, WhitelistExcludesClasses) {
  std::string Src = R"(
class Benign extends Object [whitelisted] {
  method work(this: Benign): void { x = new Object; }
}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    b = new Benign;
    b.work();
  }
}
)";
  PointsToOptions KeepOpts;
  Solved Keep(Src, std::move(KeepOpts));
  EXPECT_TRUE(Keep.methodReached("Benign", "work"));

  PointsToOptions DropOpts;
  DropOpts.ExcludeWhitelisted = true;
  Solved Drop(Src, std::move(DropOpts));
  EXPECT_FALSE(Drop.methodReached("Benign", "work"));
}

TEST(PointsTo, ConstStringsResolveThroughCopies) {
  Solved S(R"(
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    a = "lit";
    b = a;
    c = b;
    x = this.use(c);
  }
  method use(this: App, s: String): String { return s; }
}
)");
  // Find the use() call argument value: scan doGet for the Call with name
  // "use"; its Args[1]'s constant must resolve to "lit".
  MethodId DoGet = S.P.findMethod(S.P.findClass("App"), "doGet");
  bool Checked = false;
  for (const BasicBlock &BB : S.P.method(DoGet).Blocks)
    for (const Instruction &I : BB.Insts)
      if (I.Op == Opcode::Call &&
          S.P.Pool.str(I.CalleeName) == "use") {
        Symbol Lit = S.Solver->constStringOf(DoGet, I.Args[1]);
        ASSERT_NE(Lit, ~0u);
        EXPECT_EQ(S.P.Pool.str(Lit), "lit");
        Checked = true;
      }
  EXPECT_TRUE(Checked);
}

//===----------------------------------------------------------------------===//
// SparseBitSet representation and the frozen column
//===----------------------------------------------------------------------===//

/// Freezes \p Sets, in order, into one column (keys 0, 1, ...).
PointsToColumn freezeAll(std::initializer_list<const SparseBitSet *> Sets) {
  PointsToColumn Col;
  for (const SparseBitSet *S : Sets)
    Col.append(*S);
  return Col;
}

std::vector<uint32_t> members(PtsView V) {
  return std::vector<uint32_t>(V.begin(), V.end());
}

TEST(SparseBitSet, InsertContainsAndAscendingIteration) {
  SparseBitSet S;
  EXPECT_TRUE(S.empty());
  const std::vector<uint32_t> Vals = {900, 3, 65, 3, 200, 0, 900, 64};
  uint32_t Inserted = 0;
  for (uint32_t V : Vals)
    Inserted += S.insert(V) ? 1 : 0;
  EXPECT_EQ(Inserted, 6u) << "duplicates must report no change";
  EXPECT_EQ(S.count(), 6u);
  const PointsToColumn Col = freezeAll({&S});
  const PtsView V = Col[0];
  EXPECT_EQ(V.count(), 6u);
  for (uint32_t X : Vals)
    EXPECT_TRUE(V.contains(X));
  EXPECT_FALSE(V.contains(1));
  EXPECT_FALSE(V.contains(901));
  std::vector<uint32_t> Got = members(V);
  EXPECT_EQ(Got, (std::vector<uint32_t>{0, 3, 64, 65, 200, 900}));
  std::vector<uint32_t> Appended;
  S.appendTo(Appended);
  EXPECT_EQ(Appended, Got);
  Appended.clear();
  V.appendTo(Appended);
  EXPECT_EQ(Appended, Got);
  // Keys past the column read as empty sets.
  EXPECT_TRUE(Col[1].empty());
  EXPECT_TRUE(Col[InvalidId].empty());
}

TEST(SparseBitSet, WordBoundariesKeepChunksSeparate) {
  // 63/64 and 127/128 straddle the 64-bit chunk boundaries: adjacent
  // values in distinct words must land in distinct chunks and still
  // iterate in order.
  SparseBitSet S;
  for (uint32_t V : {128u, 63u, 127u, 64u})
    EXPECT_TRUE(S.insert(V));
  SparseBitSet T;
  EXPECT_TRUE(T.insert(64));
  {
    const PointsToColumn Col = freezeAll({&S, &T});
    const PtsView VS = Col[0], VT = Col[1];
    // Words 0 (63), 1 (64, 127) and 2 (128).
    EXPECT_EQ(VS.numChunks(), 3u);
    EXPECT_EQ(members(VS), (std::vector<uint32_t>{63, 64, 127, 128}));
    EXPECT_NE(members(VS), members(VT));
    EXPECT_TRUE(VS.containsAll(VT));
    EXPECT_FALSE(VT.containsAll(VS));
  }
  std::vector<uint32_t> NewBits;
  EXPECT_TRUE(T.unionWith(S, NewBits));
  EXPECT_EQ(NewBits, (std::vector<uint32_t>{63, 127, 128}));
  const PointsToColumn Col = freezeAll({&S, &T});
  EXPECT_EQ(members(Col[0]), members(Col[1]));
  EXPECT_EQ(Col[1].numChunks(), 3u);
}

TEST(SparseBitSet, UnionEmitsNewBitsAscendingOnce) {
  SparseBitSet A, B;
  for (uint32_t V : {5u, 70u, 300u})
    A.insert(V);
  for (uint32_t V : {5u, 6u, 130u, 300u, 301u})
    B.insert(V);
  std::vector<uint32_t> NewBits;
  EXPECT_TRUE(A.unionWith(B, NewBits));
  EXPECT_EQ(NewBits, (std::vector<uint32_t>{6, 130, 301}));
  EXPECT_EQ(A.count(), 6u);
  // A second union is a no-op and must not touch the scratch vector.
  NewBits.clear();
  EXPECT_FALSE(A.unionWith(B, NewBits));
  EXPECT_TRUE(NewBits.empty());
}

//===----------------------------------------------------------------------===//
// Context-merged projection
//===----------------------------------------------------------------------===//

TEST(PointsTo, MergedProjectionIsSortedUnionOfContextViews) {
  // keep() is analyzed once per receiver. Its first context sees the last
  // allocation and its second the two before, so concatenating the views
  // in context order is out of order and the projection must sort.
  Solved S(R"(
class Box extends Object {
  method keep(this: Box, o: Object): Object { return o; }
}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    b1 = new Box;
    b2 = new Box;
    o1 = new Object;
    o2 = new Object;
    o3 = new Object;
    x = b1.keep(o3);
    y = b2.keep(o1);
    z = b2.keep(o2);
    w = b2.keep(o1);
  }
}
)");
  const MethodId Keep = S.P.findMethod(S.P.findClass("Box"), "keep");
  const std::span<const CGNodeId> Nodes = S.Solver->callGraph().nodesOf(Keep);
  ASSERT_EQ(Nodes.size(), 2u);
  std::vector<IKId> Concat;
  for (CGNodeId N : Nodes) {
    const PtsView View = S.Solver->pointsToOfLocal(N, 1);
    EXPECT_FALSE(View.empty());
    View.appendTo(Concat);
  }
  std::vector<IKId> Union = Concat;
  std::sort(Union.begin(), Union.end());
  Union.erase(std::unique(Union.begin(), Union.end()), Union.end());
  ASSERT_EQ(Union.size(), 3u);
  EXPECT_NE(Concat, Union) << "the views arrive out of order";

  // The projection is appended: what the buffer held stays in front.
  std::vector<IKId> Out = {7, 3};
  S.Solver->pointsToMerged(Keep, 1, Out);
  std::vector<IKId> Expect = {7, 3};
  Expect.insert(Expect.end(), Union.begin(), Union.end());
  EXPECT_EQ(Out, Expect);

  // A method with one context appends its one view as it is.
  const MethodId DoGet = S.P.findMethod(S.P.findClass("App"), "doGet");
  ASSERT_EQ(S.Solver->callGraph().nodesOf(DoGet).size(), 1u);
  Out.clear();
  S.Solver->pointsToMerged(DoGet, 0, Out);
  std::vector<IKId> One;
  const CGNodeId Only = S.Solver->callGraph().nodesOf(DoGet)[0];
  S.Solver->pointsToOfLocal(Only, 0).appendTo(One);
  EXPECT_FALSE(One.empty());
  EXPECT_EQ(Out, One);
}

TEST(PointsTo, IntrinsicTargetsKeepFirstDispatchOrder) {
  // One get() site whose receiver holds a HashMap and a List dispatches to
  // both models, in the order the receivers' instance keys arrive:
  // allocation order here. Swapping the allocations swaps the targets,
  // so the order is neither method-id order nor a fixed one.
  for (bool MapFirst : {true, false}) {
    SCOPED_TRACE(MapFirst ? "map first" : "list first");
    const std::string Allocs = MapFirst ? "m = new HashMap; l = new List;"
                                        : "l = new List; m = new HashMap;";
    Solved S(R"(
class Box extends Object {
  field f: Object;
}
class App extends Servlet {
  method doGet(this: App, req: Request): void [entry] {
    a = req.getParameter("a");
    )" + Allocs + R"(
    m.put("k", a);
    l.add(a);
    b = new Box;
    b.f = l;
    b.f = m;
    c = b.f;
    g = c.get("k");
  }
}
)");
    const MethodId MapGet = S.P.findMethod(S.P.findClass("HashMap"), "get");
    const MethodId ListGet = S.P.findMethod(S.P.findClass("List"), "get");
    ASSERT_LT(MapGet, ListGet);
    std::vector<std::vector<MethodId>> MultiSites;
    for (StmtId Site = 0; Site < S.P.numStmts(); ++Site) {
      const std::span<const MethodId> T = S.Solver->intrinsicCalleesAt(Site);
      if (T.size() > 1)
        MultiSites.emplace_back(T.begin(), T.end());
    }
    const std::vector<MethodId> Expect =
        MapFirst ? std::vector<MethodId>{MapGet, ListGet}
                 : std::vector<MethodId>{ListGet, MapGet};
    ASSERT_EQ(MultiSites.size(), 1u);
    EXPECT_EQ(MultiSites[0], Expect);
  }
}

//===----------------------------------------------------------------------===//
// Call-graph edge log and work counters
//===----------------------------------------------------------------------===//

std::vector<std::pair<StmtId, CGNodeId>> edgePairs(const CallGraph &CG,
                                                   CGNodeId N) {
  std::vector<std::pair<StmtId, CGNodeId>> Out;
  for (const CGEdge &E : CG.edges(N))
    Out.emplace_back(E.Site, E.Callee);
  return Out;
}

TEST(PointsTo, CallGraphKeepsEveryDistinctEdge) {
  // A caller A and callees of methods 3, 2 and 1, method 3 in two
  // contexts (B and B2). Site 5's callees arrive in descending method-id
  // order, and method 3 reaches it from two callers and two contexts.
  CallGraph CG;
  bool IsNew = false;
  const CGNodeId A = CG.ensureNode(0, 0, IsNew);
  const CGNodeId B = CG.ensureNode(3, 0, IsNew);
  const CGNodeId C = CG.ensureNode(2, 0, IsNew);
  const CGNodeId D = CG.ensureNode(1, 0, IsNew);
  const CGNodeId B2 = CG.ensureNode(3, 1, IsNew);
  struct Add {
    CGNodeId Caller;
    StmtId Site;
    CGNodeId Callee;
    bool New;
  };
  const std::vector<Add> Adds = {
      {A, 5, B, true},  {A, 5, C, true},
      {A, 5, B, false}, // a repeat
      {A, 6, B, true},  // shares the caller and the callee
      {C, 5, B, true},  // shares the site and the callee
      {A, 5, D, true},  // shares the caller and the site
      {A, 5, B2, true}, {C, 5, B, false}, {A, 6, B, false}, {A, 5, D, false}};
  for (const Add &E : Adds)
    EXPECT_EQ(CG.addEdge(E.Caller, E.Site, E.Callee), E.New)
        << E.Caller << " -" << E.Site << "-> " << E.Callee;
  EXPECT_EQ(CG.numEdges(), 6u);
  // Hundreds of edges that differ in their site alone: each is new once,
  // however the index's probe chains run into the others.
  constexpr StmtId FirstSite = 10, NumSites = 300;
  for (int Pass = 0; Pass < 2; ++Pass)
    for (StmtId Site = FirstSite; Site < FirstSite + NumSites; ++Site)
      EXPECT_EQ(CG.addEdge(D, Site, B2), Pass == 0) << "site " << Site;
  EXPECT_EQ(CG.numEdges(), 6u + NumSites);
  EXPECT_TRUE(CG.edges(A).empty()) << "out-edges are a frozen query";

  CG.freeze(/*NumMethods=*/4, /*NumStmts=*/FirstSite + NumSites);
  const std::span<const MethodId> At5 = CG.calleesAt(5);
  EXPECT_EQ(std::vector<MethodId>(At5.begin(), At5.end()),
            (std::vector<MethodId>{3, 2, 1}));
  const std::span<const MethodId> At6 = CG.calleesAt(6);
  EXPECT_EQ(std::vector<MethodId>(At6.begin(), At6.end()),
            std::vector<MethodId>{3});
  for (StmtId Site : {0u, 4u, 7u})
    EXPECT_TRUE(CG.calleesAt(Site).empty()) << "site " << Site;
  for (StmtId Site = FirstSite; Site < FirstSite + NumSites; ++Site) {
    const std::span<const MethodId> At = CG.calleesAt(Site);
    ASSERT_EQ(At.size(), 1u) << "site " << Site;
    EXPECT_EQ(At[0], 3u) << "site " << Site;
  }
  const std::vector<std::pair<StmtId, CGNodeId>> FromA = {
      {5, B}, {5, C}, {6, B}, {5, D}, {5, B2}};
  const std::vector<std::pair<StmtId, CGNodeId>> FromC = {{5, B}};
  EXPECT_EQ(edgePairs(CG, A), FromA);
  EXPECT_EQ(edgePairs(CG, C), FromC);
  EXPECT_TRUE(CG.edges(B).empty());
  EXPECT_EQ(CG.edges(D).size(), NumSites);
  const std::span<const CGNodeId> Of3 = CG.nodesOf(3);
  EXPECT_EQ(std::vector<CGNodeId>(Of3.begin(), Of3.end()),
            (std::vector<CGNodeId>{B, B2}));
}

TEST(PointsTo, WorkCountersAreExact) {
  // Solved from run() itself, with no entry driver. Hand count, in solver
  // order:
  //  run():  copy edges b0->b, o0->o, o->Box.f (the store), ret(get)->x0
  //          and x0->x; the call dispatches once on b's snapshot (one call
  //          edge) and once more when b's delta pops; transfers o->Box.f,
  //          o0->o and b0->b.
  //  get():  copy edges Box.f->r0 (the load), r0->r and r->ret(get);
  //          transfers ret->x0, x0->x, r->ret and r0->r.
  // 8 copy edges, 7 transfers, 2 dispatches, 1 call edge.
  Program P;
  installBuiltinLibrary(P);
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseTaj(P, R"(
class Box extends Object {
  field f: Object;
  method get(this: Box): Object { r = this.f; return r; }
}
class Main extends Object {
  static method run(): void {
    b = new Box;
    o = new Object;
    b.f = o;
    x = b.get();
  }
}
)",
                       &Errors))
      << (Errors.empty() ? "?" : Errors.front());
  P.indexStatements();
  const ClassHierarchy CHA(P);
  const MethodId Run = P.findMethod(P.findClass("Main"), "run");
  ASSERT_NE(Run, InvalidId);
  for (int Solve = 0; Solve < 2; ++Solve) {
    SCOPED_TRACE("solve " + std::to_string(Solve));
    PointsToSolver S(P, CHA);
    S.solve({Run});
    const Stats &St = S.stats();
    EXPECT_EQ(St.get("pts.copy_edges"), 8u);
    EXPECT_EQ(St.get("pts.transfers"), 7u);
    EXPECT_EQ(St.get("pts.dispatches"), 2u);
    EXPECT_EQ(St.get("cg.edges"), 1u);
    uint64_t Edges = 0;
    for (CGNodeId N = 0; N < S.callGraph().numNodes(); ++N)
      Edges += S.callGraph().edges(N).size();
    EXPECT_EQ(St.get("cg.edges"), Edges);
  }
}

//===----------------------------------------------------------------------===//
// CLI byte-identity of warm and cold runs
//===----------------------------------------------------------------------===//

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/taj-pts-XXXXXX";
    const char *D = ::mkdtemp(Buf);
    EXPECT_NE(D, nullptr);
    Path = D ? D : "";
  }
  ~TempDir() {
    if (!Path.empty()) {
      std::error_code Ec;
      std::filesystem::remove_all(Path, Ec);
    }
  }
};

/// Runs taj-cli capturing stdout only.
std::string runCli(const std::string &Args, int &ExitCode) {
  std::string Cmd = std::string(TAJ_CLI_PATH) + " " + Args + " 2>/dev/null";
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

TEST(PointsTo, CliWarmRunsByteIdenticalToCold) {
  // A warm restore of the persisted points-to solution must be
  // output-invisible: for each preset and thread count, a warm run
  // produces byte-identical stdout (under --verify=full) to the cold run
  // that filled the cache.
  for (const char *Config : {"hybrid", "ci"}) {
    for (int Threads : {1, 8}) {
      TempDir D;
      const std::string Args = "--cache-dir=\"" + D.Path + "\" --config=" +
                               Config + " --threads=" +
                               std::to_string(Threads) + " --verify=full \"" +
                               TAJ_EXAMPLE_TAJ + "\"";
      int EcCold = 0, EcWarm = 0;
      const std::string Cold = runCli(Args, EcCold);
      const std::string Warm = runCli(Args, EcWarm);
      EXPECT_EQ(EcCold, 0) << Config << " t=" << Threads;
      EXPECT_EQ(EcWarm, EcCold) << Config << " t=" << Threads;
      EXPECT_FALSE(Cold.empty()) << Config << " t=" << Threads;
      EXPECT_EQ(Warm, Cold) << Config << " t=" << Threads;
    }
  }
}

} // namespace
