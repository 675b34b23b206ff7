//===- tests/soundness_test.cpp - Dynamic-vs-static soundness ------------===//
//
// Property-based soundness: random applications are executed concretely
// with dynamic taint tracking, and every observed behaviour must be
// covered by the sound static configurations:
//
//  - every dynamic source->sink flow is reported by hybrid and CI slicing
//    (the paper observes both are sound and agree on true positives);
//  - every dynamic call edge is in the static call graph;
//  - every dynamic points-to observation is in the static solution.
//
//===----------------------------------------------------------------------===//

#include "core/TaintAnalysis.h"
#include "interp/Interpreter.h"
#include "ir/Builder.h"
#include "ir/Verifier.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace taj;

namespace {

/// Generates a random terminating application over the model library:
/// an acyclic call DAG of methods mixing field/map/collection traffic,
/// sanitizers, string transfers and sinks.
struct RandomApp {
  Program P;
  BuiltinLibrary Lib;
  MethodId Root = InvalidId;

  explicit RandomApp(uint64_t Seed) {
    Rng R(Seed);
    Lib = installBuiltinLibrary(P);
    Builder B(P);

    // Data classes with string fields.
    int NumData = static_cast<int>(R.range(1, 3));
    std::vector<ClassId> DataCls;
    std::vector<FieldId> DataFields;
    for (int K = 0; K < NumData; ++K) {
      ClassId C = B.makeClass("Data" + std::to_string(K), Lib.Object);
      DataCls.push_back(C);
      DataFields.push_back(
          B.makeField(C, "s", Type::ref(Lib.String)));
    }

    ClassId App = B.makeClass("App", Lib.Servlet);
    Type TApp = Type::ref(App);
    Type TReq = Type::ref(Lib.Request);
    Type TResp = Type::ref(Lib.Response);
    Type TStr = Type::ref(Lib.String);

    int NumMethods = static_cast<int>(R.range(2, 6));
    std::vector<MethodId> Methods;
    const char *Keys[] = {"a", "b", "c"};
    const char *Sans[] = {"encodeHtml", "encodeSql", "encodePath", "encode"};

    for (int MI = 0; MI < NumMethods; ++MI) {
      MethodBuilder MB =
          B.startMethod(App, "m" + std::to_string(MI),
                        {TApp, TReq, TResp, TStr}, TStr);
      std::vector<ValueId> Strs = {MB.param(3)};
      std::vector<ValueId> Objs;
      std::vector<ValueId> Maps;
      int Ops = static_cast<int>(R.range(3, 10));
      for (int OP = 0; OP < Ops; ++OP) {
        switch (R.below(9)) {
        case 0: { // source
          ValueId Name = MB.constStr("p" + std::to_string(R.below(3)));
          Strs.push_back(MB.callVirtual("getParameter", {MB.param(1), Name}));
          break;
        }
        case 1: { // object store
          ValueId O = MB.emitNew(DataCls[R.below(DataCls.size())]);
          Objs.push_back(O);
          MB.emitStore(O, DataFields[0], Strs[R.below(Strs.size())]);
          break;
        }
        case 2: { // object load
          if (Objs.empty())
            break;
          uint32_t DI = R.below(DataFields.size());
          Strs.push_back(
              MB.emitLoad(Objs[R.below(Objs.size())], DataFields[DI]));
          break;
        }
        case 3: { // map put
          if (Maps.empty())
            Maps.push_back(MB.emitNew(Lib.HashMap));
          ValueId Key = MB.constStr(Keys[R.below(3)]);
          MB.callVirtual("put", {Maps[R.below(Maps.size())], Key,
                                 Strs[R.below(Strs.size())]});
          break;
        }
        case 4: { // map get
          if (Maps.empty())
            break;
          ValueId Key = MB.constStr(Keys[R.below(3)]);
          Strs.push_back(
              MB.callVirtual("get", {Maps[R.below(Maps.size())], Key}));
          break;
        }
        case 5: { // sanitize
          ValueId V = Strs[R.below(Strs.size())];
          Strs.push_back(
              MB.callStatic(Lib.Encoder, Sans[R.below(4)], {V}));
          break;
        }
        case 6: { // string transfer
          ValueId A = Strs[R.below(Strs.size())];
          ValueId C2 = Strs[R.below(Strs.size())];
          Strs.push_back(MB.callVirtual("concat", {A, C2}));
          break;
        }
        case 7: { // call an earlier method (acyclic)
          if (Methods.empty())
            break;
          MethodId Callee = Methods[R.below(Methods.size())];
          Strs.push_back(MB.callVirtualV(
              std::string(P.Pool.str(P.Methods[Callee].Name)),
              {MB.param(0), MB.param(1), MB.param(2),
               Strs[R.below(Strs.size())]}));
          break;
        }
        case 8: { // sink
          ValueId W = MB.callVirtual("getWriter", {MB.param(2)});
          MB.callVirtual("println", {W, Strs[R.below(Strs.size())]});
          break;
        }
        }
      }
      MB.emitRet(Strs[R.below(Strs.size())]);
      MB.finish();
      Methods.push_back(MB.id());
    }

    // Entry drives the last couple of methods.
    MethodBuilder MB = B.startMethod(App, "doGet", {TApp, TReq, TResp},
                                     Type::voidTy());
    P.Methods[MB.id()].IsEntry = true;
    ValueId Seed0 = MB.constStr("init");
    for (int K = 0; K < 2 && K < static_cast<int>(Methods.size()); ++K) {
      MethodId M = Methods[Methods.size() - 1 - K];
      MB.callVirtualV(std::string(P.Pool.str(P.Methods[M].Name)),
                      {MB.param(0), MB.param(1), MB.param(2), Seed0});
    }
    MB.emitRet();
    MB.finish();

    std::vector<std::string> Errors = verifyProgram(P);
    EXPECT_TRUE(Errors.empty()) << (Errors.empty() ? "" : Errors.front());
    Root = synthesizeEntrypointDriver(P);
    P.indexStatements();
  }
};

class SoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoundnessTest, DynamicFlowsAreStaticallyReported) {
  RandomApp App(GetParam());
  ClassHierarchy CHA(App.P);

  Interpreter Interp(App.P, CHA);
  ASSERT_TRUE(Interp.run({App.Root})) << "interpreter budget exhausted";

  TaintAnalysis Hybrid(App.P, AnalysisConfig::hybridUnbounded());
  AnalysisResult HR = Hybrid.run({App.Root});
  TaintAnalysis Ci(App.P, AnalysisConfig::ci());
  AnalysisResult CR = Ci.run({App.Root});

  auto Contains = [](const AnalysisResult &R, const DynamicFlow &F) {
    for (const Issue &I : R.Issues)
      if (I.Source == F.Source && I.Sink == F.Sink && (I.Rule & F.Rule))
        return true;
    return false;
  };
  for (const DynamicFlow &F : Interp.flows()) {
    EXPECT_TRUE(Contains(HR, F))
        << "hybrid missed dynamic flow " << F.Source << " -> " << F.Sink
        << " rule " << int(F.Rule) << " (seed " << GetParam() << ")";
    EXPECT_TRUE(Contains(CR, F))
        << "CI missed dynamic flow " << F.Source << " -> " << F.Sink
        << " (seed " << GetParam() << ")";
  }

  // Dynamic call edges are a subset of the static call graph.
  const CallGraph &CG = Hybrid.solver().callGraph();
  for (const auto &[Site, Callees] : Interp.observedCallees()) {
    for (MethodId M : Callees) {
      if (App.P.Methods[M].Intr != Intrinsic::None ||
          !App.P.Methods[M].hasBody())
        continue; // intrinsics do not appear as CG edges
      const auto &Static = CG.calleesAt(Site);
      EXPECT_TRUE(std::find(Static.begin(), Static.end(), M) !=
                  Static.end())
          << "missing static call edge at site " << Site << " -> "
          << App.P.methodName(M);
    }
  }
}

TEST_P(SoundnessTest, DynamicPointsToIsStaticallyCovered) {
  RandomApp App(GetParam());
  ClassHierarchy CHA(App.P);
  Interpreter Interp(App.P, CHA);
  ASSERT_TRUE(Interp.run({App.Root}));

  TaintAnalysis TA(App.P, AnalysisConfig::hybridUnbounded());
  TA.run({App.Root});
  const PointsToSolver &Solver = TA.solver();
  const InstanceKeyTable &IKs = Solver.instanceKeys();

  for (const auto &[Key, Sites] : Interp.observedPointsTo()) {
    auto [M, V] = Key;
    std::vector<IKId> Static;
    Solver.pointsToMerged(M, V, Static);
    std::set<StmtId> StaticSites;
    for (IKId IK : Static)
      StaticSites.insert(IKs.data(IK).Site);
    for (StmtId S : Sites) {
      if (S == 0)
        continue; // objects synthesized by the interpreter harness
      EXPECT_TRUE(StaticSites.count(S))
          << "dynamic points-to of " << App.P.methodName(M) << " v" << V
          << " allocated at " << S << " missing statically (seed "
          << GetParam() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16, 17, 18, 19,
                                           20));

} // namespace
