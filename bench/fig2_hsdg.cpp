//===- bench/fig2_hsdg.cpp - Reproduces Figure 2 -------------------------===//
//
// Builds the paper's motivating program (Figure 1), runs the preliminary
// pointer analysis, and prints a fragment of the Hybrid SDG: the no-heap
// nodes of doGet plus the direct store->load edges and the taint-carrier
// store->sink edge the hybrid slicer synthesizes — the structure Figure 2
// illustrates.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "frontend/Parser.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"
#include "slicer/HeapEdges.h"

#include <cstdio>

using namespace taj;

static const char *MotivatingSource = R"(
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

int main() {
  Program P;
  installBuiltinLibrary(P);
  std::vector<std::string> Errors;
  if (!parseTaj(P, MotivatingSource, &Errors)) {
    std::printf("parse error: %s\n", Errors.front().c_str());
    return 1;
  }
  MethodId Root = synthesizeEntrypointDriver(P);
  P.indexStatements();
  ClassHierarchy CHA(P);
  PointsToSolver Solver(P, CHA);
  Solver.solve({Root});

  SDGOptions SO;
  SO.ContextExpanded = true;
  SDG G(P, CHA, Solver, SO);
  HeapEdges HE(P, G, Solver, /*NestedDepth=*/2);

  std::printf("Figure 2: Fragment of the HSDG (motivating program)\n\n");
  std::printf("Store/load/source/sink statement nodes:\n");
  for (SDGNodeId N = 0; N < G.numNodes(); ++N) {
    const SDGNode &Node = G.node(N);
    if (Node.Kind != SDGNodeKind::Stmt)
      continue;
    if (Node.Access == HeapAccess::None && !Node.SourceMask &&
        !Node.SinkMask && !Node.SanitizeMask)
      continue;
    std::printf("  [%u] %s\n", N, G.nodeToString(N).c_str());
  }
  std::printf("\nDirect store->load edges (flow-insensitive, from the "
              "preliminary pointer analysis):\n");
  for (SDGNodeId St : G.storeNodes())
    for (SDGNodeId L : HE.loadsFor(St))
      std::printf("  [%u] --direct--> [%u]\n", St, L);
  std::printf("\nTaint-carrier store->sink edges (nested taint, depth 2):\n");
  for (SDGNodeId St : G.storeNodes())
    for (SDGNodeId Sk : HE.carrierSinksFor(St))
      std::printf("  [%u] --carrier--> [%u]  (%s)\n", St, Sk,
                  G.nodeToString(Sk).c_str());
  std::printf("\nLoad-to-store/sink summary edges are computed on demand by "
              "RHS tabulation over the no-heap SDG.\n");
  return 0;
}
