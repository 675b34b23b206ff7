//===- pointsto/Context.h - Interned analysis contexts ---------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Calling contexts for the context-sensitive pointer analysis (TAJ §3.1).
/// A context is Everywhere (context-insensitive), CallSite (1-level
/// call-string, used for library factories and taint APIs), or Receiver
/// (object sensitivity: the instance key of the receiver, which may itself
/// be heap-context-decorated, giving unlimited-depth object sensitivity for
/// collection classes).
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_POINTSTO_CONTEXT_H
#define TAJ_POINTSTO_CONTEXT_H

#include "ir/Program.h"
#include "support/InternIndex.h"

#include <vector>

namespace taj {

namespace persist {
struct Access;
}

/// Interned context id; 0 is always Everywhere.
using CtxId = uint32_t;
inline constexpr CtxId EverywhereCtx = 0;

/// Kind tag of a context.
enum class ContextKind : uint8_t {
  Everywhere, ///< No distinction.
  CallSite,   ///< Data = StmtId of the call (1-call-string).
  Receiver    ///< Data = IKId of the receiver object.
};

/// Payload of one interned context.
struct ContextData {
  ContextKind Kind = ContextKind::Everywhere;
  uint32_t Data = 0;
};

/// Interning table for contexts. Also memoizes context chain depth, used to
/// bound unlimited-depth object sensitivity "up to recursion".
class ContextTable {
public:
  ContextTable() {
    Contexts.push_back({ContextKind::Everywhere, 0});
    Depths.push_back(0);
  }

  /// Interns a CallSite context for call statement \p Site.
  CtxId callSite(uint32_t Site) {
    return intern({ContextKind::CallSite, Site}, 1);
  }

  /// Interns a Receiver context for instance key \p IK whose own heap
  /// context has depth \p HeapCtxDepth.
  CtxId receiver(uint32_t IK, uint32_t HeapCtxDepth) {
    return intern({ContextKind::Receiver, IK}, HeapCtxDepth + 1);
  }

  const ContextData &data(CtxId C) const { return Contexts[C]; }

  /// Length of the context chain (Everywhere = 0).
  uint32_t depth(CtxId C) const { return Depths[C]; }

  size_t size() const { return Contexts.size(); }

private:
  /// Bulk restore (persist/Serialize.cpp) fills the columns and reindexes.
  friend struct persist::Access;

  static uint64_t hash(const ContextData &D) {
    return internHash2(static_cast<uint32_t>(D.Kind), D.Data);
  }
  uint64_t hashOf(CtxId C) const { return hash(Contexts[C]); }
  static bool same(const ContextData &X, const ContextData &Y) {
    return X.Kind == Y.Kind && X.Data == Y.Data;
  }

  CtxId intern(ContextData D, uint32_t Depth) {
    if (Index.needsGrow())
      Index.grow(Contexts.size() + 1, [this](CtxId C) { return hashOf(C); });
    size_t Slot;
    CtxId Found = Index.find(
        hash(D), [&](CtxId C) { return same(Contexts[C], D); }, Slot);
    if (Found != InvalidId)
      return Found;
    CtxId Id = static_cast<CtxId>(Contexts.size());
    Index.insertAt(Slot, Id);
    Contexts.push_back(D);
    Depths.push_back(Depth);
    return Id;
  }

  /// Indexes every context in one pass after a bulk restore; false if two
  /// contexts are equal.
  bool reindex() {
    return Index.rebuild(
        Contexts.size(), [this](CtxId C) { return hashOf(C); },
        [this](CtxId A, CtxId B) { return same(Contexts[A], Contexts[B]); });
  }

  std::vector<ContextData> Contexts;
  std::vector<uint32_t> Depths;
  /// Indexes the interned contexts. Everywhere is indexed only after a
  /// bulk restore; no interner call can produce an equal key.
  InternIndex Index;
};

} // namespace taj

#endif // TAJ_POINTSTO_CONTEXT_H
