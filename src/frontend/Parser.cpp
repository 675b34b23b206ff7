//===- frontend/Parser.cpp -------------------------------------*- C++ -*-===//

#include "frontend/Parser.h"
#include "frontend/Lexer.h"
#include "ir/Builder.h"
#include "ssa/SSABuilder.h"

#include <cassert>
#include <unordered_map>

using namespace taj;

namespace {

/// The actual recursive-descent parser over a token stream.
class ParserImpl {
public:
  ParserImpl(Program &P, const std::vector<Token> &Toks,
             std::vector<std::string> &Errors)
      : P(P), B(P), Toks(Toks), Errors(Errors) {}

  bool run() {
    registerClasses();
    while (!at(TokKind::Eof) && !TooManyErrors)
      parseClass();
    return Errors.empty();
  }

private:
  Program &P;
  Builder B;
  const std::vector<Token> &Toks;
  std::vector<std::string> &Errors;
  size_t Pos = 0;
  bool TooManyErrors = false;

  //===--------------------------------------------------------------------===//
  // Token helpers
  //===--------------------------------------------------------------------===//

  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(size_t N = 1) const {
    size_t I = Pos + N;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  bool at(TokKind K) const { return cur().is(K); }
  bool atIdent(std::string_view S) const { return cur().isIdent(S); }
  const Token &take() { return Toks[Pos < Toks.size() - 1 ? Pos++ : Pos]; }

  void error(const std::string &Msg) {
    Errors.push_back(std::to_string(cur().Line) + ":" +
                     std::to_string(cur().Col) + ": " + Msg);
    if (Errors.size() > 50)
      TooManyErrors = true;
  }

  bool expect(TokKind K, const char *What) {
    if (at(K)) {
      take();
      return true;
    }
    error(std::string("expected ") + What);
    return false;
  }

  std::string expectIdent(const char *What) {
    if (at(TokKind::Ident))
      return take().Text;
    error(std::string("expected ") + What);
    return "";
  }

  /// Skips tokens until one of the synchronization points.
  void sync(TokKind K) {
    while (!at(TokKind::Eof) && !at(K))
      take();
    if (at(K))
      take();
  }

  //===--------------------------------------------------------------------===//
  // Pass 1: class pre-registration (forward references)
  //===--------------------------------------------------------------------===//

  void registerClasses() {
    for (size_t I = 0; I + 1 < Toks.size(); ++I) {
      if (!Toks[I].isIdent("class") || !Toks[I + 1].is(TokKind::Ident))
        continue;
      // Only top-level "class" (heuristic: previous token is RBrace, start,
      // or Semi). Nested braces never contain the keyword in this grammar.
      const std::string &Name = Toks[I + 1].Text;
      if (P.findClass(Name) == InvalidId)
        B.makeClass(Name, InvalidId);
    }
  }

  //===--------------------------------------------------------------------===//
  // Types, attributes
  //===--------------------------------------------------------------------===//

  Type parseType() {
    std::string Name = expectIdent("type name");
    if (Name.empty())
      return Type::voidTy();
    if (Name == "void")
      return Type::voidTy();
    if (Name == "int")
      return Type::intTy();
    ClassId C = P.findClass(Name);
    if (C == InvalidId) {
      error("unknown type '" + Name + "'");
      return Type::voidTy();
    }
    if (at(TokKind::LBracket) && peek().is(TokKind::RBracket)) {
      take();
      take();
      return Type::array(C);
    }
    return Type::ref(C);
  }

  static RuleMask ruleByName(const std::string &S) {
    if (S == "xss")
      return rules::XSS;
    if (S == "sqli")
      return rules::SQLI;
    if (S == "file")
      return rules::FILE;
    if (S == "leak")
      return rules::LEAK;
    if (S == "all")
      return rules::All;
    return rules::None;
  }

  struct Attr {
    std::string Name;
    std::vector<std::string> IdentArgs;
    std::vector<int64_t> IntArgs;
  };

  std::vector<Attr> parseAttrs() {
    std::vector<Attr> Out;
    if (!at(TokKind::LBracket))
      return Out;
    take();
    while (!at(TokKind::RBracket) && !at(TokKind::Eof) && !TooManyErrors) {
      size_t Before = Pos;
      Attr A;
      A.Name = expectIdent("attribute name");
      if (at(TokKind::LParen)) {
        take();
        while (!at(TokKind::RParen) && !at(TokKind::Eof)) {
          if (at(TokKind::Ident))
            A.IdentArgs.push_back(take().Text);
          else if (at(TokKind::Int))
            A.IntArgs.push_back(take().IntVal);
          else {
            error("expected attribute argument");
            break;
          }
          if (at(TokKind::Comma))
            take();
        }
        expect(TokKind::RParen, "')'");
      }
      Out.push_back(std::move(A));
      if (at(TokKind::Comma))
        take();
      if (Pos == Before) // malformed attribute: force progress
        take();
    }
    expect(TokKind::RBracket, "']'");
    return Out;
  }

  static Intrinsic intrinsicByName(const std::string &S) {
    if (S == "identity")
      return Intrinsic::Identity;
    if (S == "stringtransfer")
      return Intrinsic::StringTransfer;
    if (S == "sanitize")
      return Intrinsic::Sanitize;
    if (S == "sourcereturn")
      return Intrinsic::SourceReturn;
    if (S == "sinkconsume")
      return Intrinsic::SinkConsume;
    if (S == "mapput")
      return Intrinsic::MapPut;
    if (S == "mapget")
      return Intrinsic::MapGet;
    if (S == "colladd")
      return Intrinsic::CollAdd;
    if (S == "collget")
      return Intrinsic::CollGet;
    if (S == "classforname")
      return Intrinsic::ClassForName;
    if (S == "getmethod")
      return Intrinsic::GetMethod;
    if (S == "methodinvoke")
      return Intrinsic::MethodInvoke;
    if (S == "threadstart")
      return Intrinsic::ThreadStart;
    if (S == "jndilookup")
      return Intrinsic::JndiLookup;
    if (S == "homecreate")
      return Intrinsic::HomeCreate;
    if (S == "getmessage")
      return Intrinsic::GetMessage;
    return Intrinsic::None;
  }

  //===--------------------------------------------------------------------===//
  // Classes and members
  //===--------------------------------------------------------------------===//

  void parseClass() {
    if (!atIdent("class")) {
      error("expected 'class'");
      take();
      return;
    }
    take();
    std::string Name = expectIdent("class name");
    if (Name.empty()) {
      // "class" without a name (truncated or malformed input): the error is
      // already recorded; skip the body so parsing can continue after it.
      sync(TokKind::RBrace);
      return;
    }
    ClassId C = P.findClass(Name);
    if (C == InvalidId) {
      // Pass 1 only pre-registers "class <ident>" pairs; anything else that
      // reaches here (e.g. a keyword collision in malformed input) is
      // recovered by registering the class now instead of aborting.
      C = B.makeClass(Name, InvalidId);
    }
    if (atIdent("extends")) {
      take();
      std::string SuperName = expectIdent("superclass name");
      ClassId S = P.findClass(SuperName);
      if (S == InvalidId)
        error("unknown superclass '" + SuperName + "'");
      else
        P.Classes[C].Super = S;
    } else if (P.findClass("Object") != InvalidId && Name != "Object") {
      P.Classes[C].Super = P.findClass("Object");
    }
    for (const Attr &A : parseAttrs()) {
      uint32_t F = 0;
      if (A.Name == "library")
        F = classflags::Library;
      else if (A.Name == "collection")
        F = classflags::Collection | classflags::Library;
      else if (A.Name == "map")
        F = classflags::Map | classflags::Collection | classflags::Library;
      else if (A.Name == "stringcarrier")
        F = classflags::StringCarrier | classflags::Library;
      else if (A.Name == "whitelisted")
        F = classflags::Whitelisted;
      else if (A.Name == "thread")
        F = classflags::Thread;
      else if (A.Name == "actionform")
        F = classflags::ActionForm;
      else
        error("unknown class attribute '" + A.Name + "'");
      P.Classes[C].Flags |= F;
    }
    if (!expect(TokKind::LBrace, "'{'")) {
      sync(TokKind::RBrace);
      return;
    }
    while (!at(TokKind::RBrace) && !at(TokKind::Eof) && !TooManyErrors)
      parseMember(C);
    expect(TokKind::RBrace, "'}'");
  }

  void parseMember(ClassId C) {
    bool IsStatic = false;
    if (atIdent("static")) {
      take();
      IsStatic = true;
    }
    if (atIdent("field")) {
      take();
      std::string Name = expectIdent("field name");
      expect(TokKind::Colon, "':'");
      Type Ty = parseType();
      expect(TokKind::Semi, "';'");
      if (!Name.empty())
        B.makeField(C, Name, Ty, IsStatic);
      return;
    }
    if (atIdent("method")) {
      take();
      parseMethod(C, IsStatic);
      return;
    }
    error("expected 'field' or 'method'");
    take();
  }

  void parseMethod(ClassId C, bool IsStatic) {
    std::string Name = expectIdent("method name");
    expect(TokKind::LParen, "'('");
    std::vector<Type> ParamTypes;
    std::vector<std::string> ParamNames;
    while (!at(TokKind::RParen) && !at(TokKind::Eof) && !TooManyErrors) {
      size_t Before = Pos;
      std::string PName = expectIdent("parameter name");
      expect(TokKind::Colon, "':'");
      ParamTypes.push_back(parseType());
      ParamNames.push_back(PName);
      if (at(TokKind::Comma))
        take();
      if (Pos == Before) // malformed parameter: force progress
        take();
    }
    expect(TokKind::RParen, "')'");
    expect(TokKind::Colon, "':'");
    Type Ret = parseType();
    std::vector<Attr> Attrs = parseAttrs();

    // Bodiless declaration => intrinsic (or abstract placeholder).
    if (at(TokKind::Semi)) {
      take();
      Intrinsic Intr = Intrinsic::None;
      for (const Attr &A : Attrs)
        if (A.Name == "intrinsic" && !A.IdentArgs.empty())
          Intr = intrinsicByName(A.IdentArgs[0]);
      MethodId M = B.makeIntrinsic(C, Name, ParamTypes, Ret, Intr, IsStatic);
      applyMethodAttrs(M, Attrs);
      return;
    }

    MethodBuilder MB = B.startMethod(C, Name, ParamTypes, Ret, IsStatic);
    MethodId M = MB.id();
    applyMethodAttrs(M, Attrs);
    parseBody(MB, ParamNames);
  }

  void applyMethodAttrs(MethodId MId, const std::vector<Attr> &Attrs) {
    Method &M = P.Methods[MId];
    for (const Attr &A : Attrs) {
      if (A.Name == "entry") {
        M.IsEntry = true;
      } else if (A.Name == "factory") {
        M.IsFactory = true;
      } else if (A.Name == "source") {
        RuleMask R = rules::None;
        for (const std::string &S : A.IdentArgs)
          R |= ruleByName(S);
        M.SourceRules |= R ? R : rules::All;
      } else if (A.Name == "sanitizer") {
        RuleMask R = rules::None;
        for (const std::string &S : A.IdentArgs)
          R |= ruleByName(S);
        M.SanitizerRules |= R ? R : rules::All;
      } else if (A.Name == "sink") {
        RuleMask R = rules::None;
        for (const std::string &S : A.IdentArgs)
          R |= ruleByName(S);
        M.SinkRules |= R ? R : rules::All;
        uint32_t Mask = 0;
        for (int64_t Idx : A.IntArgs)
          Mask |= 1u << Idx;
        if (Mask == 0) {
          // Default: every non-receiver parameter is sensitive.
          for (uint32_t K = M.IsStatic ? 0 : 1; K < M.NumParams; ++K)
            Mask |= 1u << K;
        }
        M.SinkParamMask |= Mask;
      } else if (A.Name == "intrinsic") {
        if (!A.IdentArgs.empty())
          M.Intr = intrinsicByName(A.IdentArgs[0]);
      } else {
        error("unknown method attribute '" + A.Name + "'");
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Method bodies
  //===--------------------------------------------------------------------===//

  struct BodyCtx {
    MethodBuilder &MB;
    std::unordered_map<std::string, ValueId> Locals;
    std::unordered_map<std::string, int32_t> LabelBlock;
    // Goto/If fixups: (block, instruction index) -> label.
    std::vector<std::pair<std::pair<int32_t, size_t>, std::string>> Fixups;
  };

  /// Looks up local \p Name; InvalidId-like NoValue if undefined.
  ValueId lookupLocal(BodyCtx &Ctx, const std::string &Name) {
    auto It = Ctx.Locals.find(Name);
    return It == Ctx.Locals.end() ? NoValue : It->second;
  }

  /// Block index for \p Label, creating the block on first reference.
  int32_t blockFor(BodyCtx &Ctx, const std::string &Label) {
    auto It = Ctx.LabelBlock.find(Label);
    if (It != Ctx.LabelBlock.end())
      return It->second;
    int32_t BIdx = Ctx.MB.newBlock();
    Ctx.LabelBlock.emplace(Label, BIdx);
    return BIdx;
  }

  void parseBody(MethodBuilder &MB,
                 const std::vector<std::string> &ParamNames) {
    expect(TokKind::LBrace, "'{'");
    BodyCtx Ctx{MB, {}, {}, {}};
    for (size_t K = 0; K < ParamNames.size(); ++K)
      Ctx.Locals[ParamNames[K]] = MB.param(static_cast<uint32_t>(K));
    while (!at(TokKind::RBrace) && !at(TokKind::Eof) && !TooManyErrors)
      parseStmt(Ctx);
    expect(TokKind::RBrace, "'}'");
    MB.finish();
  }

  /// Parses an operand: a local name, or a literal materialized into a
  /// fresh temporary.
  ValueId parseOperand(BodyCtx &Ctx) {
    Ctx.MB.setLine(CurStmtLine);
    if (at(TokKind::String))
      return Ctx.MB.constStr(take().Text);
    if (at(TokKind::Int))
      return Ctx.MB.constInt(take().IntVal);
    if (at(TokKind::Ident)) {
      std::string Name = take().Text;
      ValueId V = lookupLocal(Ctx, Name);
      if (V == NoValue) {
        error("use of undefined local '" + Name + "'");
        return Ctx.MB.constInt(0);
      }
      return V;
    }
    error("expected operand");
    take();
    return Ctx.MB.constInt(0);
  }

  /// Parses argument list "(a, b, ...)" into values.
  std::vector<ValueId> parseArgs(BodyCtx &Ctx) {
    std::vector<ValueId> Args;
    expect(TokKind::LParen, "'('");
    while (!at(TokKind::RParen) && !at(TokKind::Eof)) {
      Args.push_back(parseOperand(Ctx));
      if (at(TokKind::Comma))
        take();
    }
    expect(TokKind::RParen, "')'");
    return Args;
  }

  /// Parses the right-hand side of an assignment and returns its value.
  ValueId parseRValue(BodyCtx &Ctx) {
    MethodBuilder &MB = Ctx.MB;
    MB.setLine(CurStmtLine);
    if (atIdent("new")) {
      take();
      std::string ClsName = expectIdent("class name");
      ClassId C = P.findClass(ClsName);
      if (C == InvalidId) {
        error("unknown class '" + ClsName + "'");
        return MB.constInt(0);
      }
      if (at(TokKind::LBracket)) {
        take();
        expect(TokKind::RBracket, "']'");
        return MB.emitNewArray(C);
      }
      ValueId Obj = MB.emitNew(C);
      if (at(TokKind::LParen)) {
        std::vector<ValueId> Args = parseArgs(Ctx);
        if (P.findMethod(C, "init") != InvalidId) {
          std::vector<ValueId> Full = {Obj};
          Full.insert(Full.end(), Args.begin(), Args.end());
          Instruction I;
          I.Op = Opcode::Call;
          I.CKind = CallKind::Special;
          I.Cls = C;
          I.CalleeName = P.Pool.intern("init");
          I.Args = Full;
          // Push via Copy trick: use MethodBuilder internals.
          emitRaw(Ctx, std::move(I));
        } else if (!Args.empty()) {
          error("class '" + ClsName + "' has no init method");
        }
      }
      return Obj;
    }
    if (atIdent("caught"))
      return take(), MB.emitCaught();

    // ClassName.member: static load or static call (locals shadow classes).
    if (at(TokKind::Ident) && P.findClass(cur().Text) != InvalidId &&
        lookupLocal(Ctx, cur().Text) == NoValue && peek().is(TokKind::Dot)) {
      ClassId C = P.findClass(take().Text);
      take(); // '.'
      std::string Member = expectIdent("member name");
      if (at(TokKind::LParen)) {
        std::vector<ValueId> Args = parseArgs(Ctx);
        Instruction I;
        I.Op = Opcode::Call;
        I.CKind = CallKind::Static;
        I.Cls = C;
        I.CalleeName = P.Pool.intern(Member);
        I.Args = Args;
        return emitRawDef(Ctx, std::move(I));
      }
      FieldId F = P.findField(C, Member);
      if (F == InvalidId) {
        error("unknown static field '" + Member + "'");
        return MB.constInt(0);
      }
      return MB.emitStaticLoad(F);
    }

    ValueId A = parseOperand(Ctx);
    // Postfix: .field / .call(...) / [] / binop.
    if (at(TokKind::Dot)) {
      take();
      std::string Member = expectIdent("member name");
      if (at(TokKind::LParen)) {
        std::vector<ValueId> Args = parseArgs(Ctx);
        std::vector<ValueId> Full = {A};
        Full.insert(Full.end(), Args.begin(), Args.end());
        return MB.callVirtualV(Member, Full);
      }
      return emitFieldLoad(Ctx, A, Member);
    }
    if (at(TokKind::LBracket)) {
      take();
      expect(TokKind::RBracket, "']'");
      return MB.emitArrayLoad(A);
    }
    BinopKind K;
    bool HasBinop = true;
    if (at(TokKind::Plus))
      K = BinopKind::Add;
    else if (at(TokKind::Minus))
      K = BinopKind::Sub;
    else if (at(TokKind::Star))
      K = BinopKind::Mul;
    else if (at(TokKind::EqEq))
      K = BinopKind::Eq;
    else if (at(TokKind::Less))
      K = BinopKind::Lt;
    else
      HasBinop = false;
    if (HasBinop) {
      take();
      ValueId Rhs = parseOperand(Ctx);
      return MB.emitBinop(K, A, Rhs);
    }
    return A; // plain copy source
  }

  ValueId emitFieldLoad(BodyCtx &Ctx, ValueId Base, const std::string &FName) {
    // Field is resolved against the whole program: find any field with this
    // name on some class; exact typing is not needed for the analyses, but
    // we try the static type first via the name-unique convention.
    FieldId F = findFieldByName(FName);
    if (F == InvalidId) {
      error("unknown field '" + FName + "'");
      return Ctx.MB.constInt(0);
    }
    return Ctx.MB.emitLoad(Base, F);
  }

  FieldId findFieldByName(const std::string &FName) {
    Symbol S = P.Pool.lookup(FName);
    if (S == ~0u)
      return InvalidId;
    for (FieldId F = 0; F < P.Fields.size(); ++F)
      if (P.Fields[F].Name == S)
        return F;
    return InvalidId;
  }

  /// Line of the statement currently being parsed.
  uint32_t CurStmtLine = 0;

  /// Pushes a raw instruction through the MethodBuilder's current block.
  void emitRaw(BodyCtx &Ctx, Instruction I) {
    Method &M = P.Methods[Ctx.MB.id()];
    I.Line = CurStmtLine;
    M.Blocks[Ctx.MB.curBlock()].Insts.push_back(std::move(I));
  }

  ValueId emitRawDef(BodyCtx &Ctx, Instruction I) {
    ValueId D = Ctx.MB.freshSlot();
    I.Dst = D;
    emitRaw(Ctx, std::move(I));
    return D;
  }

  void parseStmt(BodyCtx &Ctx) {
    MethodBuilder &MB = Ctx.MB;
    CurStmtLine = cur().Line;
    MB.setLine(CurStmtLine);

    // Label: "name:"
    if (at(TokKind::Ident) && peek().is(TokKind::Colon)) {
      std::string Label = take().Text;
      take(); // ':'
      int32_t BIdx = blockFor(Ctx, Label);
      // Fall through from the current block unless it is terminated.
      Method &M = P.Methods[MB.id()];
      BasicBlock &CurB = M.Blocks[MB.curBlock()];
      if (CurB.Insts.empty() || !CurB.Insts.back().isTerminator())
        MB.emitGoto(BIdx);
      MB.setBlock(BIdx);
      return;
    }

    if (atIdent("goto")) {
      take();
      std::string Label = expectIdent("label");
      expect(TokKind::Semi, "';'");
      MB.emitGoto(blockFor(Ctx, Label));
      // Subsequent statements (if any) go to a fresh unreachable block to
      // keep blocks well-formed.
      MB.setBlock(MB.newBlock());
      return;
    }
    if (atIdent("if")) {
      take();
      ValueId Cond = parseOperand(Ctx);
      if (!atIdent("goto"))
        error("expected 'goto' after if condition");
      else
        take();
      std::string Label = expectIdent("label");
      expect(TokKind::Semi, "';'");
      int32_t Target = blockFor(Ctx, Label);
      int32_t Next = MB.newBlock(); // fallthrough continues here
      MB.emitIf(Cond, Target, Next);
      MB.setBlock(Next);
      return;
    }
    if (atIdent("return")) {
      take();
      if (at(TokKind::Semi)) {
        take();
        MB.emitRet();
      } else {
        ValueId V = parseOperand(Ctx);
        expect(TokKind::Semi, "';'");
        MB.emitRet(V);
      }
      MB.setBlock(MB.newBlock());
      return;
    }
    if (atIdent("throw")) {
      take();
      ValueId V = parseOperand(Ctx);
      expect(TokKind::Semi, "';'");
      MB.emitThrow(V);
      MB.setBlock(MB.newBlock());
      return;
    }

    // Assignment or expression statement starting with an identifier.
    if (!at(TokKind::Ident)) {
      error("expected statement");
      take();
      return;
    }
    std::string Head = take().Text;

    // ClassName.member = ... or ClassName.m(...);
    if (P.findClass(Head) != InvalidId && at(TokKind::Dot) &&
        lookupLocal(Ctx, Head) == NoValue) {
      ClassId C = P.findClass(Head);
      take(); // '.'
      std::string Member = expectIdent("member name");
      if (at(TokKind::LParen)) {
        std::vector<ValueId> Args = parseArgs(Ctx);
        expect(TokKind::Semi, "';'");
        Instruction I;
        I.Op = Opcode::Call;
        I.CKind = CallKind::Static;
        I.Cls = C;
        I.CalleeName = P.Pool.intern(Member);
        I.Args = Args;
        emitRaw(Ctx, std::move(I));
        return;
      }
      expect(TokKind::Assign, "'='");
      ValueId V = parseOperand(Ctx);
      expect(TokKind::Semi, "';'");
      FieldId F = P.findField(C, Member);
      if (F == InvalidId)
        error("unknown static field '" + Member + "'");
      else
        MB.emitStaticStore(F, V);
      return;
    }

    // obj.field = v; | obj.m(...); | obj[] = v; | local = rvalue;
    if (at(TokKind::Dot)) {
      ValueId Base = lookupLocal(Ctx, Head);
      if (Base == NoValue) {
        error("use of undefined local '" + Head + "'");
        Base = MB.constInt(0);
      }
      take(); // '.'
      std::string Member = expectIdent("member name");
      if (at(TokKind::LParen)) {
        std::vector<ValueId> Args = parseArgs(Ctx);
        expect(TokKind::Semi, "';'");
        std::vector<ValueId> Full = {Base};
        Full.insert(Full.end(), Args.begin(), Args.end());
        Instruction I;
        I.Op = Opcode::Call;
        I.CKind = CallKind::Virtual;
        I.CalleeName = P.Pool.intern(Member);
        I.Args = Full;
        emitRaw(Ctx, std::move(I));
        return;
      }
      expect(TokKind::Assign, "'='");
      ValueId V = parseOperand(Ctx);
      expect(TokKind::Semi, "';'");
      FieldId F = findFieldByName(Member);
      if (F == InvalidId)
        error("unknown field '" + Member + "'");
      else
        MB.emitStore(Base, F, V);
      return;
    }
    if (at(TokKind::LBracket)) {
      ValueId Base = lookupLocal(Ctx, Head);
      if (Base == NoValue) {
        error("use of undefined local '" + Head + "'");
        Base = MB.constInt(0);
      }
      take();
      expect(TokKind::RBracket, "']'");
      expect(TokKind::Assign, "'='");
      ValueId V = parseOperand(Ctx);
      expect(TokKind::Semi, "';'");
      MB.emitArrayStore(Base, V);
      return;
    }
    if (at(TokKind::Assign)) {
      take();
      ValueId V = parseRValue(Ctx);
      expect(TokKind::Semi, "';'");
      auto It = Ctx.Locals.find(Head);
      if (It == Ctx.Locals.end()) {
        // New local: give it a slot of its own so later reassignments do
        // not clobber the value it was initialized from.
        ValueId Slot = MB.freshSlot();
        MB.assign(Slot, V);
        Ctx.Locals.emplace(Head, Slot);
      } else {
        MB.assign(It->second, V);
      }
      return;
    }
    error("expected '=', '.', '[' or '(' after identifier");
    take();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Parser facade
//===----------------------------------------------------------------------===//

Parser::Parser(Program &P, std::string_view Source)
    : P(P), Source(Source) {}

bool Parser::parse() {
  Lexer Lex(Source, Errors);
  if (!Errors.empty())
    return false;
  ParserImpl Impl(P, Lex.tokens(), Errors);
  return Impl.run();
}

bool taj::parseTaj(Program &P, std::string_view Source,
                   std::vector<std::string> *ErrorsOut) {
  Parser Psr(P, Source);
  bool Ok = Psr.parse();
  if (ErrorsOut)
    *ErrorsOut = Psr.errors();
  return Ok;
}
