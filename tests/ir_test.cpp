//===- tests/ir_test.cpp - IR, builder, printer, CHA unit tests ----------===//

#include "benchgen/Generator.h"
#include "cha/ClassHierarchy.h"
#include "core/TaintAnalysis.h"
#include "frontend/Parser.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <set>
#include <span>

using namespace taj;

namespace {

TEST(StringPool, InternsAndDeduplicates) {
  StringPool Pool;
  Symbol A = Pool.intern("hello");
  Symbol B = Pool.intern("world");
  Symbol A2 = Pool.intern("hello");
  EXPECT_EQ(A, A2);
  EXPECT_NE(A, B);
  EXPECT_EQ(Pool.str(A), "hello");
  EXPECT_EQ(Pool.str(B), "world");
}

TEST(StringPool, EmptyStringIsSymbolZero) {
  StringPool Pool;
  EXPECT_EQ(Pool.intern(""), 0u);
}

TEST(StringPool, LookupWithoutIntern) {
  StringPool Pool;
  EXPECT_EQ(Pool.lookup("missing"), ~0u);
  Pool.intern("present");
  EXPECT_NE(Pool.lookup("present"), ~0u);
}

TEST(StringPool, StableViewsAcrossGrowth) {
  StringPool Pool;
  std::string_view First = Pool.str(Pool.intern("first"));
  for (int I = 0; I < 1000; ++I)
    Pool.intern("filler" + std::to_string(I));
  EXPECT_EQ(First, "first");
  EXPECT_EQ(Pool.str(Pool.lookup("first")), "first");
}

class IrFixture : public ::testing::Test {
protected:
  Program P;
  Builder B{P};
  ClassId Object = InvalidId, Widget = InvalidId;
  FieldId F = InvalidId;

  void SetUp() override {
    Object = B.makeClass("Object", InvalidId);
    Widget = B.makeClass("Widget", Object);
    F = B.makeField(Widget, "f", Type::ref(Object));
  }
};

TEST_F(IrFixture, ClassAndFieldLookup) {
  EXPECT_EQ(P.findClass("Object"), Object);
  EXPECT_EQ(P.findClass("Widget"), Widget);
  EXPECT_EQ(P.findClass("Nope"), InvalidId);
  EXPECT_EQ(P.findField(Widget, "f"), F);
  EXPECT_EQ(P.findField(Widget, "g"), InvalidId);
}

TEST_F(IrFixture, StraightLineMethodIsValidSSA) {
  MethodBuilder MB =
      B.startMethod(Widget, "id", {Type::ref(Widget), Type::ref(Object)},
                    Type::ref(Object));
  MB.emitRet(MB.param(1));
  MB.finish();
  std::vector<std::string> Errors = verifyProgram(P);
  EXPECT_TRUE(Errors.empty()) << Errors.front();
}

TEST_F(IrFixture, BranchingMethodGetsPhis) {
  // v = cond ? a : b; return v;
  MethodBuilder MB = B.startMethod(
      Widget, "pick",
      {Type::ref(Widget), Type::intTy(), Type::ref(Object), Type::ref(Object)},
      Type::ref(Object));
  ValueId Slot = MB.freshSlot();
  int32_t Then = MB.newBlock();
  int32_t Else = MB.newBlock();
  int32_t Join = MB.newBlock();
  MB.emitIf(MB.param(1), Then, Else);
  MB.setBlock(Then);
  MB.assign(Slot, MB.param(2));
  MB.emitGoto(Join);
  MB.setBlock(Else);
  MB.assign(Slot, MB.param(3));
  MB.emitGoto(Join);
  MB.setBlock(Join);
  MB.emitRet(Slot);
  MB.finish();

  std::vector<std::string> Errors = verifyProgram(P);
  ASSERT_TRUE(Errors.empty()) << Errors.front();

  // The join block must start with a phi.
  const Method &M = P.Methods[P.findMethod(Widget, "pick")];
  bool FoundPhi = false;
  for (const BasicBlock &BB : M.Blocks)
    for (const Instruction &I : BB.Insts)
      if (I.Op == Opcode::Phi) {
        FoundPhi = true;
        EXPECT_EQ(I.Args.size(), 2u);
      }
  EXPECT_TRUE(FoundPhi);
}

TEST_F(IrFixture, LoopSSA) {
  // i = 0; while (i < n) i = i + 1; return;
  MethodBuilder MB = B.startMethod(Widget, "loop",
                                   {Type::ref(Widget), Type::intTy()},
                                   Type::voidTy());
  ValueId I = MB.freshSlot();
  MB.assign(I, MB.constInt(0));
  int32_t Head = MB.newBlock();
  int32_t Body = MB.newBlock();
  int32_t Exit = MB.newBlock();
  MB.emitGoto(Head);
  MB.setBlock(Head);
  ValueId Cond = MB.emitBinop(BinopKind::Lt, I, MB.param(1));
  MB.emitIf(Cond, Body, Exit);
  MB.setBlock(Body);
  MB.assign(I, MB.emitBinop(BinopKind::Add, I, MB.constInt(1)));
  MB.emitGoto(Head);
  MB.setBlock(Exit);
  MB.emitRet();
  MB.finish();

  std::vector<std::string> Errors = verifyProgram(P);
  EXPECT_TRUE(Errors.empty()) << Errors.front();
}

TEST_F(IrFixture, StatementIndexRoundTrips) {
  MethodBuilder MB =
      B.startMethod(Widget, "mk", {Type::ref(Widget)}, Type::ref(Widget));
  ValueId V = MB.emitNew(Widget);
  MB.emitStore(V, F, MB.param(0));
  MB.emitRet(V);
  MB.finish();
  P.indexStatements();
  ASSERT_GT(P.numStmts(), 0u);
  for (StmtId S = 0; S < P.numStmts(); ++S) {
    const StmtRef &R = P.stmtRef(S);
    EXPECT_EQ(P.stmtId(R.M, R.Block, R.Index), S);
  }
}

/// Expects \p P's statement index to hold, for every instruction, the ref
/// a rebuild from scratch gives it: methods, blocks and instructions in
/// order.
void expectFreshIndex(const Program &P) {
  std::vector<StmtRef> Want;
  for (MethodId M = 0; M < P.Methods.size(); ++M)
    for (int32_t B = 0; B < static_cast<int32_t>(P.Methods[M].Blocks.size());
         ++B)
      for (int32_t I = 0;
           I < static_cast<int32_t>(P.Methods[M].Blocks[B].Insts.size()); ++I)
        Want.push_back({M, B, I});
  ASSERT_EQ(P.numStmts(), Want.size());
  for (StmtId S = 0; S < Want.size(); ++S) {
    const StmtRef &R = P.stmtRef(S);
    ASSERT_TRUE(R.M == Want[S].M && R.Block == Want[S].Block &&
                R.Index == Want[S].Index)
        << "stmt " << S << " is (" << R.M << ", " << R.Block << ", "
        << R.Index << "), want (" << Want[S].M << ", " << Want[S].Block
        << ", " << Want[S].Index << ")";
  }
}

TEST(StatementIndex, RebuildsWhenABlockIsEmptiedIntoItsPredecessor) {
  // doGet's blocks are: 0 the entry, 1 the label, 2 the fallthrough.
  Program P;
  installBuiltinLibrary(P);
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseTaj(P, R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response, c: int): void [entry] {
    t = req.getParameter("name");
    w = resp.getWriter();
    if c goto late;
    w.println(t);
  late:
    u = req.getParameter("other");
    w.println(u);
  }
}
)",
                       &Errors))
      << (Errors.empty() ? "?" : Errors.front());
  ASSERT_TRUE(verifyProgram(P).empty());
  const MethodId Root = synthesizeEntrypointDriver(P);
  TaintAnalysis TA(P, AnalysisConfig::hybridUnbounded());
  const AnalysisResult Before = TA.run({Root});
  ASSERT_FALSE(Before.Issues.empty());

  // Move block 1's instructions onto the end of block 0. The method keeps
  // its total and its instructions keep their order, so every StmtId
  // still names the same instruction, and every block's first ref (block
  // 0's and block 2's) sits where it was: only block 0's last ref shows
  // the index is stale.
  const MethodId Get = P.findMethod(P.findClass("App"), "doGet");
  ASSERT_NE(Get, InvalidId);
  std::vector<BasicBlock> &Blocks = P.Methods[Get].Blocks;
  ASSERT_GE(Blocks.size(), 3u);
  ASSERT_FALSE(Blocks[1].Insts.empty());
  ASSERT_FALSE(Blocks[2].Insts.empty());
  std::vector<Instruction> &B0 = Blocks[0].Insts;
  B0.insert(B0.end(), Blocks[1].Insts.begin(), Blocks[1].Insts.end());
  Blocks[1].Insts.clear();

  P.indexStatements();
  ASSERT_NO_FATAL_FAILURE(expectFreshIndex(P));
  const AnalysisResult After = TA.run({Root});
  ASSERT_NO_FATAL_FAILURE(expectFreshIndex(P));
  EXPECT_EQ(After.Issues, Before.Issues);
}

TEST_F(IrFixture, PrinterProducesText) {
  MethodBuilder MB =
      B.startMethod(Widget, "mk", {Type::ref(Widget)}, Type::ref(Widget));
  ValueId V = MB.emitNew(Widget);
  MB.emitStore(V, F, MB.param(0));
  MB.emitRet(V);
  MB.finish();
  std::string Text = printMethod(P, P.findMethod(Widget, "mk"));
  EXPECT_NE(Text.find("new Widget"), std::string::npos);
  EXPECT_NE(Text.find(".f ="), std::string::npos);
  EXPECT_NE(Text.find("return"), std::string::npos);
}

TEST_F(IrFixture, ClassHierarchyQueries) {
  ClassId Gadget = B.makeClass("Gadget", Widget);
  MethodBuilder MB =
      B.startMethod(Widget, "run", {Type::ref(Widget)}, Type::voidTy());
  MB.emitRet();
  MB.finish();

  ClassHierarchy CHA(P);
  EXPECT_TRUE(CHA.isSubclassOf(Gadget, Object));
  EXPECT_TRUE(CHA.isSubclassOf(Gadget, Widget));
  EXPECT_FALSE(CHA.isSubclassOf(Widget, Gadget));
  EXPECT_EQ(CHA.depth(Object), 0u);
  EXPECT_EQ(CHA.depth(Gadget), 2u);

  Symbol Run = P.Pool.intern("run");
  // Gadget inherits run from Widget.
  EXPECT_EQ(CHA.resolveVirtual(Gadget, Run), P.findMethod(Widget, "run"));
  EXPECT_EQ(CHA.resolveVirtual(Object, Run), InvalidId);

  // Subtype enumeration includes self and descendants.
  std::span<const ClassId> Subs = CHA.subtypes(Widget);
  EXPECT_EQ(Subs.size(), 2u);

  // Field resolution walks up the hierarchy.
  Symbol FName = P.Pool.intern("f");
  EXPECT_EQ(CHA.resolveField(Gadget, FName), F);
}

/// Reference dispatch, a linear walk: the first method named \p Name in
/// each class's method list, up the superclass chain.
MethodId referenceResolve(const Program &P, ClassId Recv, Symbol Name) {
  for (ClassId A = Recv; A != InvalidId; A = P.Classes[A].Super)
    for (MethodId M : P.Classes[A].Methods)
      if (P.Methods[M].Name == Name)
        return M;
  return InvalidId;
}

/// Checks resolveVirtual for every class x every method name (plus a name
/// no method has, and Recv = InvalidId), and subtypes() for every class,
/// against the reference walks.
void expectDispatchMatchesReference(Program &P, const std::string &Label) {
  const Symbol Unused = P.Pool.intern("noMethodHasThisName");
  ClassHierarchy CHA(P);
  std::set<Symbol> Names = {Unused};
  for (const Method &M : P.Methods)
    Names.insert(M.Name);
  size_t Mismatches = 0;
  std::string First;
  for (Symbol N : Names) {
    if (CHA.resolveVirtual(InvalidId, N) != InvalidId && Mismatches++ == 0)
      First = "InvalidId." + std::string(P.Pool.str(N));
    for (const Class &C : P.Classes)
      if (CHA.resolveVirtual(C.Id, N) != referenceResolve(P, C.Id, N) &&
          Mismatches++ == 0)
        First = std::string(P.Pool.str(C.Name)) + "." +
                std::string(P.Pool.str(N));
  }
  EXPECT_EQ(Mismatches, 0u) << Label << ": first at " << First;

  for (const Class &C : P.Classes) {
    std::vector<ClassId> Ref;
    for (const Class &S : P.Classes)
      if (CHA.isSubclassOf(S.Id, C.Id))
        Ref.push_back(S.Id);
    std::span<const ClassId> Got = CHA.subtypes(C.Id);
    EXPECT_EQ(std::vector<ClassId>(Got.begin(), Got.end()), Ref)
        << Label << ": subtypes of " << P.Pool.str(C.Name);
  }
}

TEST(ClassHierarchy, ResolveVirtualMatchesReferenceWalk) {
  // Same-named methods in one class (the first declared wins), an override
  // in the middle of a three-level chain, and a class with no methods.
  Program P;
  installBuiltinLibrary(P);
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseTaj(P, R"(
class Top extends Object {
  method m(this: Top): void { }
  method m(this: Top, s: String): void { }
  method n(this: Top): void { }
}
class Middle extends Top {
  method n(this: Middle): void { }
}
class Bottom extends Middle {
  method m(this: Bottom, s: String): void { }
}
class Bare extends Object {
}
)",
                       &Errors))
      << (Errors.empty() ? "" : Errors.front());
  ASSERT_TRUE(verifyProgram(P).empty());
  {
    ClassHierarchy CHA(P);
    const ClassId Top = P.findClass("Top"), Middle = P.findClass("Middle");
    const ClassId Bottom = P.findClass("Bottom"), Bare = P.findClass("Bare");
    const Symbol M = P.Pool.intern("m"), N = P.Pool.intern("n");
    ASSERT_EQ(P.Classes[Top].Methods.size(), 3u);
    EXPECT_EQ(CHA.resolveVirtual(Top, M), P.Classes[Top].Methods[0]);
    EXPECT_EQ(CHA.resolveVirtual(Middle, M), P.Classes[Top].Methods[0]);
    EXPECT_EQ(CHA.resolveVirtual(Bottom, M), P.Classes[Bottom].Methods[0]);
    EXPECT_EQ(CHA.resolveVirtual(Bottom, N), P.Classes[Middle].Methods[0]);
    EXPECT_EQ(CHA.resolveVirtual(Top, N), P.Classes[Top].Methods[2]);
    EXPECT_EQ(CHA.resolveVirtual(Bare, M), InvalidId);
    EXPECT_EQ(CHA.subtypes(Bare).size(), 1u);
  }
  expectDispatchMatchesReference(P, "parsed");

  for (const AppSpec &Spec : benchmarkSuite()) {
    GeneratedApp App = generateApp(Spec);
    expectDispatchMatchesReference(*App.P, Spec.Name);
  }
}

TEST_F(IrFixture, VerifierCatchesMissingTerminator) {
  MethodBuilder MB =
      B.startMethod(Widget, "bad", {Type::ref(Widget)}, Type::voidTy());
  MB.emitRet();
  MB.finish();
  Method &M = P.Methods[P.findMethod(Widget, "bad")];
  M.Blocks[0].Insts.pop_back(); // strip the return
  M.Blocks[0].Insts.push_back([] {
    Instruction I;
    I.Op = Opcode::ConstInt;
    I.Dst = 1;
    return I;
  }());
  std::vector<std::string> Errors = verifyProgram(P);
  EXPECT_FALSE(Errors.empty());
}

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(10), 10u);
  for (int I = 0; I < 1000; ++I) {
    uint32_t V = R.range(5, 9);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 9u);
  }
}

TEST(Budget, EnforcesLimit) {
  Budget Bd(3);
  EXPECT_TRUE(Bd.consume());
  EXPECT_TRUE(Bd.consume());
  EXPECT_TRUE(Bd.consume());
  EXPECT_FALSE(Bd.consume());
  EXPECT_TRUE(Bd.exhausted());
}

TEST(Budget, ZeroMeansUnbounded) {
  Budget Bd;
  for (int I = 0; I < 1000; ++I)
    EXPECT_TRUE(Bd.consume());
  EXPECT_FALSE(Bd.exhausted());
}

} // namespace
