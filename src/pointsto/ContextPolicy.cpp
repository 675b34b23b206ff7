//===- pointsto/ContextPolicy.cpp ------------------------------*- C++ -*-===//

#include "pointsto/ContextPolicy.h"

using namespace taj;

CtxId ContextPolicy::selectCalleeContext(const Method &Callee, StmtId Site,
                                         IKId RecvIK) {
  // Taint-specific APIs and library factories: 1-level call-string. This is
  // what lets TAJ disambiguate the two getParameter calls of the motivating
  // example even though they share a receiver.
  if (Callee.isTaintApi() || Callee.IsFactory)
    return Ctxs.callSite(Site);

  if (RecvIK == InvalidId)
    return EverywhereCtx; // plain static call

  // Object sensitivity: context = receiver abstraction. The receiver key
  // already encodes its heap context, so collection-internal objects carry
  // the full receiver chain; the depth guard bounds recursion.
  const InstanceKeyData &IK = IKs.data(RecvIK);
  uint32_t HeapDepth = Ctxs.depth(IK.Heap);
  if (HeapDepth + 1 > MaxCtxDepth)
    return EverywhereCtx;
  return Ctxs.receiver(RecvIK, HeapDepth);
}

CtxId ContextPolicy::heapContextForAlloc(const Method &In, CtxId AllocCtx) {
  // Collections clone their internal objects per collection instance
  // (unlimited-depth object sensitivity, §3.1). Everything else uses the
  // allocation-site abstraction (heap context dropped), which is the
  // standard 1-object-sensitive heap.
  if (P.Classes[In.Owner].is(classflags::Collection))
    return AllocCtx;
  return EverywhereCtx;
}
