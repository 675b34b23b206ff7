//===- pointsto/ContextPolicy.h - Context-sensitivity policy ----*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The custom context-sensitivity policy of TAJ §3.1:
///  - most methods: one level of object sensitivity (context = receiver
///    instance key);
///  - collection classes: unlimited-depth object sensitivity "up to
///    recursion" (heap contexts of allocations inside collection methods
///    keep the full receiver chain, bounded by a depth guard);
///  - library factory methods and taint-specific APIs: one level of
///    call-string context;
///  - static methods otherwise: context-insensitive.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_POINTSTO_CONTEXTPOLICY_H
#define TAJ_POINTSTO_CONTEXTPOLICY_H

#include "ir/Program.h"
#include "pointsto/Keys.h"

namespace taj {

/// Selects callee contexts and heap contexts for the solver.
class ContextPolicy {
public:
  ContextPolicy(const Program &P, ContextTable &Ctxs, InstanceKeyTable &IKs)
      : P(P), Ctxs(Ctxs), IKs(IKs) {}

  /// Context for invoking \p Callee at call statement \p Site with receiver
  /// \p RecvIK (InvalidId for static calls).
  CtxId selectCalleeContext(const Method &Callee, StmtId Site, IKId RecvIK);

  /// Heap context for an allocation inside call-graph node context
  /// \p AllocCtx of method \p In. Collection methods clone their internal
  /// objects per receiver (full context); all other allocations use the
  /// plain allocation-site abstraction.
  CtxId heapContextForAlloc(const Method &In, CtxId AllocCtx);

private:
  /// Maximum receiver-chain depth before truncating to Everywhere (the
  /// "up to recursion" guard for unlimited-depth object sensitivity).
  static constexpr uint32_t MaxCtxDepth = 8;

  const Program &P;
  ContextTable &Ctxs;
  InstanceKeyTable &IKs;
};

} // namespace taj

#endif // TAJ_POINTSTO_CONTEXTPOLICY_H
