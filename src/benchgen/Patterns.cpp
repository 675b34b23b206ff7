//===- benchgen/Patterns.cpp -----------------------------------*- C++ -*-===//

#include "benchgen/Patterns.h"

using namespace taj;
using namespace taj::benchgen;

namespace {

/// Starts an [entry] method e<flow>[suffix](this, req, resp, db) on the
/// app class.
MethodBuilder startEntry(PlantCtx &C, const char *Suffix) {
  std::string Name = "e" + std::to_string(C.FlowIdx) + Suffix;
  MethodBuilder MB = C.B.startMethod(
      C.AppCls, Name,
      {Type::ref(C.AppCls), Type::ref(C.Lib.Request),
       Type::ref(C.Lib.Response), Type::ref(C.Lib.Database)},
      Type::voidTy());
  C.P.Methods[MB.id()].IsEntry = true;
  return MB;
}

/// Emits the tainted-source call tagged with the flow's source line.
ValueId emitSource(PlantCtx &C, MethodBuilder &MB) {
  ValueId Key = MB.constStr("p" + std::to_string(C.FlowIdx));
  MB.setLine(C.srcLine());
  ValueId T = MB.callVirtual("getParameter", {MB.param(1), Key});
  MB.setLine(0);
  return T;
}

/// Emits a sink call tagged \p Line; alternates between the XSS writer
/// sink and the SQLi database sink by flow parity.
void emitSink(PlantCtx &C, MethodBuilder &MB, ValueId V, uint32_t Line,
              ValueId RespParam, ValueId DbParam) {
  if (C.FlowIdx % 2 == 0) {
    ValueId W = MB.callVirtual("getWriter", {RespParam});
    MB.setLine(Line);
    MB.callVirtual("println", {W, V});
  } else {
    MB.setLine(Line);
    MB.callVirtual("executeQuery", {DbParam, V});
  }
  MB.setLine(0);
}

/// Creates a chain of identity helpers h<flow>_<i>(this, x, resp, db):
/// String; the last one optionally performs the sink at \p SinkLine.
/// Returns the first helper (or InvalidId for an empty chain).
MethodId makeChain(PlantCtx &C, uint32_t Len, bool SinkAtEnd,
                   uint32_t SinkLine) {
  MethodId First = InvalidId, Prev = InvalidId;
  for (uint32_t K = 0; K < Len; ++K) {
    std::string Name =
        "h" + std::to_string(C.FlowIdx) + "_" + std::to_string(K);
    MethodBuilder MB = C.B.startMethod(
        C.AppCls, Name,
        {Type::ref(C.AppCls), Type::ref(C.Lib.String),
         Type::ref(C.Lib.Response), Type::ref(C.Lib.Database)},
        Type::ref(C.Lib.String));
    bool Last = K + 1 == Len;
    ValueId V = MB.param(1);
    if (Last && SinkAtEnd)
      emitSink(C, MB, V, SinkLine, MB.param(2), MB.param(3));
    MB.emitRet(V);
    MB.finish();
    if (Prev != InvalidId) {
      // Link by rewriting nothing: chains are wired by the caller emitting
      // h0 -> h1 -> ... calls; record ids instead.
    }
    if (First == InvalidId)
      First = MB.id();
    Prev = MB.id();
  }
  return First;
}

/// Emits the chain calls h<flow>_0..Len-1 threading \p V through.
ValueId throughChain(PlantCtx &C, MethodBuilder &MB, uint32_t Len, ValueId V,
                     ValueId RespParam, ValueId DbParam) {
  for (uint32_t K = 0; K < Len; ++K) {
    std::string Name =
        "h" + std::to_string(C.FlowIdx) + "_" + std::to_string(K);
    V = MB.callVirtualV(Name, {MB.param(0), V, RespParam, DbParam});
  }
  return V;
}

} // namespace

void taj::benchgen::plantDirect(PlantCtx &C, uint32_t ChainLen,
                                bool SinkInHelper, bool Record) {
  if (SinkInHelper && ChainLen == 0)
    ChainLen = 1;
  makeChain(C, ChainLen, SinkInHelper, C.sinkLine());
  MethodBuilder MB = startEntry(C, "");
  ValueId T = emitSource(C, MB);
  ValueId V = throughChain(C, MB, ChainLen, T, MB.param(2), MB.param(3));
  if (!SinkInHelper)
    emitSink(C, MB, V, C.sinkLine(), MB.param(2), MB.param(3));
  MB.emitRet();
  MB.finish();
  if (Record)
    C.Truth.RealPairs.insert({C.srcLine(), C.sinkLine()});
  ++C.FlowIdx;
}

void taj::benchgen::plantWrapped(PlantCtx &C) {
  ClassId W = C.B.makeClass("Wrap" + std::to_string(C.FlowIdx), C.Lib.Object);
  FieldId F = C.B.makeField(W, "f", Type::ref(C.Lib.String));
  MethodBuilder MB = startEntry(C, "");
  ValueId T = emitSource(C, MB);
  ValueId O = MB.emitNew(W);
  MB.emitStore(O, F, T);
  emitSink(C, MB, O, C.sinkLine(), MB.param(2), MB.param(3));
  MB.emitRet();
  MB.finish();
  C.Truth.RealPairs.insert({C.srcLine(), C.sinkLine()});
  ++C.FlowIdx;
}

void taj::benchgen::plantMap(PlantCtx &C) {
  MethodBuilder MB = startEntry(C, "");
  ValueId T = emitSource(C, MB);
  ValueId M = MB.emitNew(C.Lib.HashMap);
  ValueId KeyT = MB.constStr("t");
  ValueId KeyC = MB.constStr("c");
  MB.callVirtual("put", {M, KeyT, T});
  ValueId Clean = MB.constStr("benign");
  MB.callVirtual("put", {M, KeyC, Clean});
  ValueId U = MB.callVirtual("get", {M, KeyT});
  emitSink(C, MB, U, C.sinkLine(), MB.param(2), MB.param(3));
  // The clean key must stay clean (checked by the unit tests; no decoy
  // sink here because the CS baseline collapses map channels).
  ValueId V = MB.callVirtual("get", {M, KeyC});
  (void)V;
  MB.emitRet();
  MB.finish();
  C.Truth.RealPairs.insert({C.srcLine(), C.sinkLine()});
  ++C.FlowIdx;
}

void taj::benchgen::plantReflective(PlantCtx &C) {
  std::string RName = "Refl" + std::to_string(C.FlowIdx);
  ClassId RC = C.B.makeClass(RName, C.Lib.Object);
  {
    MethodBuilder MB = C.B.startMethod(
        RC, "ident", {Type::ref(RC), Type::ref(C.Lib.String)},
        Type::ref(C.Lib.String));
    MB.emitRet(MB.param(1));
    MB.finish();
  }
  MethodBuilder MB = startEntry(C, "");
  ValueId T = emitSource(C, MB);
  ValueId K = MB.callStatic(C.Lib.ClassCls, "forName", {MB.constStr(RName)});
  ValueId IdM = MB.callVirtual("getMethod", {K, MB.constStr("ident")});
  ValueId Recv = MB.emitNew(RC);
  ValueId Arr = MB.emitNewArray(C.Lib.Object);
  MB.emitArrayStore(Arr, T);
  ValueId S = MB.callVirtual("invoke", {IdM, Recv, Arr});
  emitSink(C, MB, S, C.sinkLine(), MB.param(2), MB.param(3));
  MB.emitRet();
  MB.finish();
  C.Truth.RealPairs.insert({C.srcLine(), C.sinkLine()});
  ++C.FlowIdx;
}

void taj::benchgen::plantHelperKeyMap(PlantCtx &C) {
  // kput<flow>(this, map, key, val): the only put of the tainted value.
  // The key arrives as a parameter, so binding the map channel to "t"
  // requires propagating the constant across the call.
  std::string Name = "kput" + std::to_string(C.FlowIdx);
  {
    MethodBuilder MB = C.B.startMethod(
        C.AppCls, Name,
        {Type::ref(C.AppCls), Type::ref(C.Lib.HashMap),
         Type::ref(C.Lib.String), Type::ref(C.Lib.String)},
        Type::voidTy());
    MB.callVirtual("put", {MB.param(1), MB.param(2), MB.param(3)});
    MB.emitRet();
    MB.finish();
  }
  MethodBuilder MB = startEntry(C, "");
  ValueId T = emitSource(C, MB);
  ValueId M = MB.emitNew(C.Lib.HashMap);
  // Exactly one call site: a second site with a different key would meet
  // the helper's key parameter to bottom and re-open the wildcard channel
  // even under ipa.
  MB.callVirtualV(Name, {MB.param(0), M, MB.constStr("t"), T});
  MB.callVirtual("put", {M, MB.constStr("c"), MB.constStr("benign")});
  ValueId U = MB.callVirtual("get", {M, MB.constStr("t")});
  emitSink(C, MB, U, C.sinkLine(), MB.param(2), MB.param(3));
  // The clean key's read: decoy sink, reported only when the helper put
  // degraded to the wildcard channel (off / local).
  ValueId V = MB.callVirtual("get", {M, MB.constStr("c")});
  emitSink(C, MB, V, C.decoyLine(), MB.param(2), MB.param(3));
  MB.emitRet();
  MB.finish();
  C.Truth.RealPairs.insert({C.srcLine(), C.sinkLine()});
  ++C.FlowIdx;
}

void taj::benchgen::plantComputedReflective(PlantCtx &C) {
  std::string N = std::to_string(C.FlowIdx);
  std::string RName = "CRefl" + N;
  ClassId RC = C.B.makeClass(RName, C.Lib.Object);
  {
    MethodBuilder MB = C.B.startMethod(
        RC, "ident", {Type::ref(RC), Type::ref(C.Lib.String)},
        Type::ref(C.Lib.String));
    MB.emitRet(MB.param(1));
    MB.finish();
  }
  MethodBuilder MB = startEntry(C, "");
  ValueId T = emitSource(C, MB);
  // The class name is assembled from constant parts, so resolving the
  // forName target needs the carrier-append folding of the ipa analysis.
  ValueId Sb = MB.emitNew(C.Lib.StringBuilder);
  Sb = MB.callVirtual("append", {Sb, MB.constStr("CRefl")});
  Sb = MB.callVirtual("append", {Sb, MB.constStr(N)});
  ValueId Nm = MB.callVirtual("toString", {Sb});
  ValueId K = MB.callStatic(C.Lib.ClassCls, "forName", {Nm});
  ValueId IdM = MB.callVirtual("getMethod", {K, MB.constStr("ident")});
  ValueId Recv = MB.emitNew(RC);
  ValueId Arr = MB.emitNewArray(C.Lib.Object);
  MB.emitArrayStore(Arr, T);
  ValueId S = MB.callVirtual("invoke", {IdM, Recv, Arr});
  emitSink(C, MB, S, C.sinkLine(), MB.param(2), MB.param(3));
  MB.emitRet();
  MB.finish();
  C.Truth.RealPairs.insert({C.srcLine(), C.sinkLine()});
  ++C.FlowIdx;
}

void taj::benchgen::plantThread(PlantCtx &C) {
  std::string N = std::to_string(C.FlowIdx);
  ClassId Sh = C.B.makeClass("Shared" + N, C.Lib.Object);
  FieldId SF = C.B.makeField(Sh, "data", Type::ref(C.Lib.String),
                             /*IsStatic=*/true);
  ClassId Wk = C.B.makeClass("Worker" + N, C.Lib.Thread);
  FieldId In = C.B.makeField(Wk, "input", Type::ref(C.Lib.String));
  {
    MethodBuilder MB =
        C.B.startMethod(Wk, "run", {Type::ref(Wk)}, Type::voidTy());
    ValueId T = MB.emitLoad(MB.param(0), In);
    MB.emitStaticStore(SF, T);
    MB.emitRet();
    MB.finish();
  }
  { // Reader entry first: only flow-insensitive heap flow finds the store.
    MethodBuilder MB = startEntry(C, "r");
    ValueId U = MB.emitStaticLoad(SF);
    emitSink(C, MB, U, C.sinkLine(), MB.param(2), MB.param(3));
    MB.emitRet();
    MB.finish();
  }
  { // Spawner entry second.
    MethodBuilder MB = startEntry(C, "w");
    ValueId T = emitSource(C, MB);
    ValueId W = MB.emitNew(Wk);
    MB.emitStore(W, In, T);
    MB.callVirtual("start", {W});
    MB.emitRet();
    MB.finish();
  }
  C.Truth.RealPairs.insert({C.srcLine(), C.sinkLine()});
  ++C.FlowIdx;
}

void taj::benchgen::plantLongReal(PlantCtx &C) {
  plantDirect(C, /*ChainLen=*/6, /*SinkInHelper=*/false, /*Record=*/true);
}

namespace {

/// Shared shape of the alias/ordering decoys: a helper class whose mk()
/// allocates a wrapper at a single site; the tainted writer stores into
/// one instance, the clean reader loads from another.
void plantAliasShape(PlantCtx &C, bool WriterFirst, uint32_t ChainLen,
                     bool SinkInHelper) {
  std::string N = std::to_string(C.FlowIdx);
  ClassId W = C.B.makeClass("AWrap" + N, C.Lib.Object);
  FieldId F = C.B.makeField(W, "f", Type::ref(C.Lib.String));
  ClassId Mk = C.B.makeClass("AMk" + N, C.Lib.Object);
  {
    MethodBuilder MB = C.B.startMethod(
        Mk, "mk", {Type::ref(Mk), Type::ref(C.Lib.String)}, Type::ref(W));
    ValueId O = MB.emitNew(W);
    MB.emitStore(O, F, MB.param(1));
    MB.emitRet(O);
    MB.finish();
  }
  auto Writer = [&]() {
    MethodBuilder MB = startEntry(C, "w");
    ValueId T = emitSource(C, MB);
    ValueId M = MB.emitNew(Mk);
    MB.callVirtual("mk", {M, T});
    MB.emitRet();
    MB.finish();
  };
  auto Reader = [&]() {
    if (SinkInHelper || ChainLen > 0)
      makeChain(C, std::max<uint32_t>(ChainLen, SinkInHelper ? 1 : 0),
                SinkInHelper, C.decoyLine());
    MethodBuilder MB = startEntry(C, "r");
    ValueId Clean = MB.constStr("benign");
    ValueId M = MB.emitNew(Mk);
    ValueId O = MB.callVirtual("mk", {M, Clean});
    ValueId U = MB.emitLoad(O, F);
    ValueId V = throughChain(C, MB,
                             std::max<uint32_t>(ChainLen, SinkInHelper ? 1 : 0),
                             U, MB.param(2), MB.param(3));
    if (!SinkInHelper)
      emitSink(C, MB, V, C.decoyLine(), MB.param(2), MB.param(3));
    MB.emitRet();
    MB.finish();
  };
  if (WriterFirst) {
    Writer();
    Reader();
  } else {
    Reader();
    Writer();
  }
  // Decoys record no real pair.
  ++C.FlowIdx;
}

} // namespace

void taj::benchgen::plantAliasFp(PlantCtx &C, bool SinkInHelper) {
  plantAliasShape(C, /*WriterFirst=*/true, /*ChainLen=*/1, SinkInHelper);
}

void taj::benchgen::plantHeapFp(PlantCtx &C, uint32_t ChainLen,
                                bool SinkInHelper) {
  plantAliasShape(C, /*WriterFirst=*/false, ChainLen, SinkInHelper);
}

void taj::benchgen::plantCtxFp(PlantCtx &C) {
  std::string Name = "id" + std::to_string(C.FlowIdx);
  {
    MethodBuilder MB = C.B.startMethod(
        C.AppCls, Name, {Type::ref(C.AppCls), Type::ref(C.Lib.String)},
        Type::ref(C.Lib.String));
    MB.emitRet(MB.param(1));
    MB.finish();
  }
  MethodBuilder MB = startEntry(C, "");
  ValueId T = emitSource(C, MB);
  MB.callVirtualV(Name, {MB.param(0), T}); // tainted result unused
  ValueId Clean = MB.constStr("benign");
  ValueId Y = MB.callVirtualV(Name, {MB.param(0), Clean});
  emitSink(C, MB, Y, C.decoyLine(), MB.param(2), MB.param(3));
  MB.emitRet();
  MB.finish();
  ++C.FlowIdx;
}

void taj::benchgen::plantSanitized(PlantCtx &C) {
  MethodBuilder MB = startEntry(C, "");
  ValueId T = emitSource(C, MB);
  ValueId E = MB.callStatic(C.Lib.Encoder, "encode", {T});
  emitSink(C, MB, E, C.decoyLine(), MB.param(2), MB.param(3));
  MB.emitRet();
  MB.finish();
  ++C.FlowIdx;
}

void taj::benchgen::plantBallast(PlantCtx &C, uint32_t NumMethods) {
  if (NumMethods == 0)
    return;
  ClassId BC = C.B.makeClass("BenignLib" + std::to_string(C.FlowIdx),
                             C.Lib.Object,
                             classflags::Library | classflags::Whitelisted);
  Type TB = Type::ref(BC);
  Type TStr = Type::ref(C.Lib.String);
  // A flat cluster: every bl<i> is called directly from the tainted entry,
  // so all of them sit one hop from the source (priority 1) and, created
  // before any real-flow helper, drain the node budget ahead of them.
  for (uint32_t K = 0; K < NumMethods; ++K) {
    MethodBuilder MB = C.B.startMethod(BC, "bl" + std::to_string(K),
                                       {TB, TStr}, Type::voidTy());
    ValueId X = MB.emitBinop(BinopKind::Add, MB.constInt(1), MB.constInt(2));
    (void)X;
    MB.emitRet();
    MB.finish();
  }
  MethodBuilder MB = startEntry(C, "b");
  ValueId T = emitSource(C, MB);
  ValueId O = MB.emitNew(BC);
  for (uint32_t K = 0; K < NumMethods; ++K)
    MB.callVirtualV("bl" + std::to_string(K), {O, T});
  MB.emitRet();
  MB.finish();
  ++C.FlowIdx;
}

void taj::benchgen::plantFiller(PlantCtx &C, uint32_t NumMethods,
                                bool ChanHeavy, bool Library) {
  if (NumMethods == 0)
    return;
  uint32_t Flags = Library ? classflags::Library : 0;
  std::string N = std::to_string(C.FlowIdx);
  std::string Prefix = Library ? "LibFill" : "Fill";
  ClassId FC = C.B.makeClass(Prefix + N, C.Lib.Object, Flags);
  Type TF = Type::ref(FC);
  std::vector<FieldId> Fields;
  if (ChanHeavy)
    for (uint32_t K = 0; K < NumMethods; ++K)
      Fields.push_back(
          C.B.makeField(FC, "g" + std::to_string(K), Type::ref(C.Lib.Object)));
  // fl<i> does arithmetic (and, when chan-heavy, touches its own field)
  // then calls fl<i+1>: a chain, so channel closure grows quadratically.
  for (uint32_t K = 0; K < NumMethods; ++K) {
    MethodBuilder MB = C.B.startMethod(FC, "fl" + std::to_string(K),
                                       {TF, Type::intTy()}, Type::intTy());
    ValueId X = MB.emitBinop(BinopKind::Add, MB.param(1), MB.constInt(1));
    X = MB.emitBinop(BinopKind::Mul, X, MB.constInt(3));
    if (ChanHeavy) {
      ValueId O = MB.emitNew(C.Lib.Object);
      MB.emitStore(MB.param(0), Fields[K], O);
      MB.emitLoad(MB.param(0), Fields[K]);
    }
    if (K + 1 < NumMethods)
      X = MB.callVirtualV("fl" + std::to_string(K + 1), {MB.param(0), X});
    MB.emitRet(X);
    MB.finish();
  }
  // Taint-free entry (lowest priority under §6.1: processed last).
  MethodBuilder MB = startEntry(C, Library ? "lf" : "f");
  ValueId O = MB.emitNew(FC);
  MB.callVirtual("fl0", {O, MB.constInt(7)});
  MB.emitRet();
  MB.finish();
  ++C.FlowIdx;
}
