//===- tests/interp_test.cpp - Concrete interpreter unit tests -----------===//

#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"

#include <gtest/gtest.h>

using namespace taj;

namespace {

struct Executed {
  Program P;
  std::unique_ptr<ClassHierarchy> CHA;
  std::unique_ptr<Interpreter> Interp;
  bool Ok = false;

  explicit Executed(const std::string &Src, InterpOptions Opts = {}) {
    installBuiltinLibrary(P);
    std::vector<std::string> Errors;
    EXPECT_TRUE(parseTaj(P, Src, &Errors))
        << (Errors.empty() ? "?" : Errors.front());
    MethodId Root = synthesizeEntrypointDriver(P);
    P.indexStatements();
    CHA = std::make_unique<ClassHierarchy>(P);
    Interp = std::make_unique<Interpreter>(P, *CHA, std::move(Opts));
    Ok = Interp->run({Root});
  }
};

TEST(Interp, ObservesDirectFlow) {
  Executed E(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("q");
    w = resp.getWriter();
    w.println(t);
  }
}
)");
  ASSERT_TRUE(E.Ok);
  EXPECT_EQ(E.Interp->flows().size(), 2u); // XSS + LEAK at the same sink
}

TEST(Interp, SanitizerClearsRuleSpecificTaint) {
  Executed E(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response, db: Database): void [entry] {
    t = req.getParameter("q");
    e = Encoder.encodeHtml(t);
    w = resp.getWriter();
    w.println(e);
    q = db.executeQuery(e);
  }
}
)");
  ASSERT_TRUE(E.Ok);
  bool SawXss = false, SawSqli = false;
  for (const DynamicFlow &F : E.Interp->flows()) {
    SawXss |= F.Rule == rules::XSS;
    SawSqli |= F.Rule == rules::SQLI;
  }
  EXPECT_FALSE(SawXss);
  EXPECT_TRUE(SawSqli);
}

TEST(Interp, MapSemanticsAreExact) {
  Executed E(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("q");
    m = new HashMap;
    m.put("a", t);
    clean = "x";
    m.put("b", clean);
    u = m.get("b");
    w = resp.getWriter();
    w.println(u);
  }
}
)");
  ASSERT_TRUE(E.Ok);
  EXPECT_TRUE(E.Interp->flows().empty())
      << "concrete map lookup of a clean key must not flow";
}

TEST(Interp, NestedTaintObservedThroughWrapper) {
  Executed E(R"(
class Box extends Object { field v: String; }
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("q");
    b = new Box;
    b.v = t;
    w = resp.getWriter();
    w.println(b);
  }
}
)");
  ASSERT_TRUE(E.Ok);
  EXPECT_FALSE(E.Interp->flows().empty());
}

TEST(Interp, ReflectiveInvokeExecutes) {
  Executed E(R"(
class T extends Object {
  method echo(this: T, s: String): String { return s; }
}
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("q");
    k = Class.forName("T");
    m = k.getMethod("echo");
    recv = new T;
    a = new Object[];
    a[] = t;
    r = m.invoke(recv, a);
    w = resp.getWriter();
    w.println(r);
  }
}
)");
  ASSERT_TRUE(E.Ok);
  EXPECT_FALSE(E.Interp->flows().empty());
  // Dynamic call edge to T.echo observed.
  bool SawEcho = false;
  for (const auto &[Site, Callees] : E.Interp->observedCallees())
    for (MethodId M : Callees)
      SawEcho |= E.P.methodName(M) == "T.echo";
  EXPECT_TRUE(SawEcho);
}

TEST(Interp, LoopsTerminateUnderStepBudget) {
  InterpOptions Opts;
  Opts.MaxSteps = 1000;
  Executed E(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    i = 0;
    head:
    c = i < 1000000;
    if c goto body;
    goto done;
    body:
    i = i + 1;
    goto head;
    done:
    return;
  }
}
)",
             std::move(Opts));
  EXPECT_FALSE(E.Ok) << "step budget must fire on the long loop";
}

TEST(Interp, BoundedLoopComputesCorrectly) {
  Executed E(R"(
class App extends Servlet {
  method sum(this: App, n: int): int {
    acc = 0;
    i = 0;
    head:
    c = i < n;
    if c goto body;
    goto done;
    body:
    acc = acc + i;
    i = i + 1;
    goto head;
    done:
    return acc;
  }
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    n = 5;
    s = this.sum(n);
  }
}
)");
  EXPECT_TRUE(E.Ok); // 0+1+2+3+4 computed without budget issues
}

TEST(Interp, LongArithmeticWrapsOnOverflow) {
  // Add, Sub and Mul each overflow int64 once. Java long semantics wrap
  // them two's-complement; the tainted value reaches the sink only if all
  // three results match the wrapped values.
  Executed E(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("q");
    w = resp.getWriter();
    one = 1;
    zero = 0;
    max = 9223372036854775807;
    negmax = zero - max;
    min = negmax - one;
    sum = max + one;
    diff = min - one;
    big = 3827413200073477585;
    three = 3;
    prod = big * three;
    wrapped = -6964504473489118861;
    c1 = sum == min;
    if c1 goto addok;
    goto done;
    addok:
    c2 = diff == max;
    if c2 goto subok;
    goto done;
    subok:
    c3 = prod == wrapped;
    if c3 goto mulok;
    goto done;
    mulok:
    w.println(t);
    done:
    return;
  }
}
)");
  ASSERT_TRUE(E.Ok);
  EXPECT_EQ(E.Interp->flows().size(), 2u); // XSS + LEAK at the same sink
}

TEST(Interp, ThreadRunsSynchronously) {
  Executed E(R"(
class Shared extends Object { static field data: String; }
class Worker extends Thread {
  field input: String;
  method run(this: Worker): void {
    t = this.input;
    Shared.data = t;
  }
}
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("q");
    wk = new Worker;
    wk.input = t;
    wk.start();
    u = Shared.data;
    w = resp.getWriter();
    w.println(u);
  }
}
)");
  ASSERT_TRUE(E.Ok);
  EXPECT_FALSE(E.Interp->flows().empty())
      << "synchronous thread schedule makes the flow observable";
}

} // namespace
