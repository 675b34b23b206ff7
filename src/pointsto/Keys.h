//===- pointsto/Keys.h - Instance keys and pointer keys --------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract heap objects (instance keys) and abstract pointers (pointer
/// keys) of the Andersen-style pointer analysis, following the heap-graph
/// terminology of TAJ §4.1.1. Both are interned into dense ids.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_POINTSTO_KEYS_H
#define TAJ_POINTSTO_KEYS_H

#include "ir/Program.h"
#include "pointsto/Context.h"
#include "pointsto/SmallVec.h"
#include "support/InternIndex.h"

#include <vector>

namespace taj {

namespace persist {
struct Access;
}

/// Dense instance-key id.
using IKId = uint32_t;
/// Dense pointer-key id.
using PKId = uint32_t;
/// Dense call-graph-node id ((method, context) pair).
using CGNodeId = uint32_t;

/// Kinds of abstract objects.
enum class IKKind : uint8_t {
  Alloc,     ///< New at Site under heap context Heap.
  Array,     ///< NewArray at Site; Cls is the element class.
  Synthetic, ///< Result of an intrinsic call at Site (source returns,
             ///< string transfers, caught exceptions, EJB create, ...).
  ClassObj,  ///< java.lang.Class-like object; Extra = represented ClassId.
  MethodObj, ///< java.lang.reflect.Method-like; Extra = MethodId.
  Singleton  ///< Global singleton (JNDI-bound bean); Extra = tag.
};

/// Payload of one instance key.
struct InstanceKeyData {
  IKKind Kind = IKKind::Alloc;
  /// Allocation/creation statement, or 0 for site-less keys.
  StmtId Site = 0;
  /// Heap context of the allocation (collection cloning, §3.1).
  CtxId Heap = EverywhereCtx;
  /// Dynamic class of the object (element class for arrays).
  ClassId Cls = InvalidId;
  /// Extra payload (ClassId for ClassObj, MethodId for MethodObj, tag for
  /// Singleton).
  uint32_t Extra = 0;
};

/// Kinds of abstract pointers.
enum class PKKind : uint8_t {
  Local,     ///< SSA value B of call-graph node A.
  Ret,       ///< Return value of call-graph node A.
  Field,     ///< Field B of instance key A.
  ArrayElem, ///< Array contents of instance key A.
  Static,    ///< Static field A.
  Channel    ///< Model channel (map/collection contents) B of instance A.
             ///< B is an interned symbol like "@map:user" or "@elem".
};

/// Payload of one pointer key.
struct PointerKeyData {
  PKKind Kind = PKKind::Local;
  uint32_t A = 0;
  uint32_t B = 0;
};

/// Interning table for instance keys.
class InstanceKeyTable {
public:
  IKId intern(const InstanceKeyData &D);
  const InstanceKeyData &data(IKId I) const { return Keys[I]; }
  size_t size() const { return Keys.size(); }
  void reserve(size_t N) {
    Keys.reserve(N);
    if (N > Keys.size())
      Index.grow(N, [this](uint32_t I) { return Hash{}(Keys[I]); });
  }

private:
  /// Bulk restore (persist/Serialize.cpp) fills Keys and reindexes.
  friend struct persist::Access;

  /// Indexes every key in one pass after a bulk restore; false if two keys
  /// are equal.
  bool reindex() {
    return Index.rebuild(
        Keys.size(), [this](uint32_t I) { return Hash{}(Keys[I]); },
        [this](uint32_t A, uint32_t B) { return Eq{}(Keys[A], Keys[B]); });
  }

  struct Hash {
    size_t operator()(const InstanceKeyData &D) const {
      uint64_t H = static_cast<uint64_t>(D.Kind);
      H = H * 0x9e3779b97f4a7c15ull + D.Site;
      H = H * 0x9e3779b97f4a7c15ull + D.Heap;
      H = H * 0x9e3779b97f4a7c15ull + D.Cls;
      H = H * 0x9e3779b97f4a7c15ull + D.Extra;
      return static_cast<size_t>(internMix(H));
    }
  };
  struct Eq {
    bool operator()(const InstanceKeyData &X, const InstanceKeyData &Y) const {
      return X.Kind == Y.Kind && X.Site == Y.Site && X.Heap == Y.Heap &&
             X.Cls == Y.Cls && X.Extra == Y.Extra;
    }
  };
  std::vector<InstanceKeyData> Keys;
  InternIndex Index;
};

/// Interning table for pointer keys.
class PointerKeyTable {
public:
  PKId intern(const PointerKeyData &D);
  const PointerKeyData &data(PKId I) const { return Keys[I]; }
  size_t size() const { return Keys.size(); }
  void reserve(size_t N) {
    Keys.reserve(N);
    if (N > Keys.size())
      Index.grow(N, [this](uint32_t I) { return Hash{}(Keys[I]); });
  }

  /// Read-only lookup: the id of \p D if it was ever interned, InvalidId
  /// otherwise. Never mutates the table, so it is safe on post-solve read
  /// paths (and from concurrent slicing workers).
  PKId lookup(const PointerKeyData &D) const {
    size_t Slot;
    return Index.find(Hash{}(D),
                      [&](uint32_t I) { return Eq{}(Keys[I], D); }, Slot);
  }
  PKId localLookup(CGNodeId N, ValueId V) const {
    if (N < LocalFast.size()) {
      const SmallVec<PKId, 8> &Row = LocalFast[N];
      if (static_cast<uint32_t>(V) < Row.size() && Row[V] != InvalidId)
        return Row[V];
    }
    return lookup({PKKind::Local, N, static_cast<uint32_t>(V)});
  }

  /// local() and ret() dominate interning on the constraint-generation hot
  /// path, so both are answered from dense direct-mapped caches when the
  /// key has been seen; the hashed intern runs only on first touch. A
  /// persist restore refills both caches in reindex().
  PKId local(CGNodeId N, ValueId V) {
    if (N < LocalFast.size()) {
      const SmallVec<PKId, 8> &Row = LocalFast[N];
      if (static_cast<uint32_t>(V) < Row.size() && Row[V] != InvalidId)
        return Row[V];
    }
    PKId Id = intern({PKKind::Local, N, static_cast<uint32_t>(V)});
    if (N >= LocalFast.size())
      LocalFast.resize(N + 1);
    SmallVec<PKId, 8> &Row = LocalFast[N];
    if (Row.size() <= static_cast<uint32_t>(V))
      Row.resize(static_cast<uint32_t>(V) + 1, InvalidId);
    Row[V] = Id;
    return Id;
  }
  PKId ret(CGNodeId N) {
    if (N < RetFast.size() && RetFast[N] != InvalidId)
      return RetFast[N];
    PKId Id = intern({PKKind::Ret, N, 0});
    if (N >= RetFast.size())
      RetFast.resize(N + 1, InvalidId);
    RetFast[N] = Id;
    return Id;
  }
  PKId field(IKId I, FieldId F) { return intern({PKKind::Field, I, F}); }
  PKId arrayElem(IKId I) { return intern({PKKind::ArrayElem, I, 0}); }
  PKId staticField(FieldId F) { return intern({PKKind::Static, F, 0}); }
  PKId channel(IKId I, Symbol Chan) {
    return intern({PKKind::Channel, I, Chan});
  }

private:
  /// Bulk restore (persist/Serialize.cpp) fills Keys and reindexes.
  friend struct persist::Access;

  /// Indexes every key in one pass after a bulk restore and refills the
  /// Local/Ret caches; false if two keys are equal. Every Local/Ret key
  /// must already name a node below \p NumNodes; a Local key is cached
  /// only when its value is below \p NumValuesOf(node), so no corrupt
  /// value id can size a cache row.
  template <typename BoundFn>
  bool reindex(uint32_t NumNodes, BoundFn NumValuesOf) {
    if (!Index.rebuild(
            Keys.size(), [this](uint32_t I) { return Hash{}(Keys[I]); },
            [this](uint32_t A, uint32_t B) { return Eq{}(Keys[A], Keys[B]); }))
      return false;
    auto Cached = [&](const PointerKeyData &D) {
      return D.Kind == PKKind::Local && D.B < NumValuesOf(D.A);
    };
    std::vector<uint32_t> RowLen(NumNodes, 0);
    for (const PointerKeyData &D : Keys)
      if (Cached(D) && D.B >= RowLen[D.A])
        RowLen[D.A] = D.B + 1;
    LocalFast.assign(NumNodes, {});
    for (uint32_t N = 0; N < NumNodes; ++N)
      LocalFast[N].resize(RowLen[N], InvalidId);
    RetFast.assign(NumNodes, InvalidId);
    for (PKId Id = 0; Id < Keys.size(); ++Id) {
      const PointerKeyData &D = Keys[Id];
      if (Cached(D))
        LocalFast[D.A][D.B] = Id;
      else if (D.Kind == PKKind::Ret)
        RetFast[D.A] = Id;
    }
    return true;
  }

  struct Hash {
    size_t operator()(const PointerKeyData &D) const {
      uint64_t H = static_cast<uint64_t>(D.Kind);
      H = H * 0x9e3779b97f4a7c15ull + D.A;
      H = H * 0x9e3779b97f4a7c15ull + D.B;
      return static_cast<size_t>(internMix(H));
    }
  };
  struct Eq {
    bool operator()(const PointerKeyData &X, const PointerKeyData &Y) const {
      return X.Kind == Y.Kind && X.A == Y.A && X.B == Y.B;
    }
  };
  std::vector<PointerKeyData> Keys;
  InternIndex Index;
  /// Direct-mapped caches for the two hottest key shapes; InvalidId marks
  /// an empty slot. Purely an accelerator over the index — never
  /// authoritative for absence.
  std::vector<SmallVec<PKId, 8>> LocalFast;
  std::vector<PKId> RetFast;
};

} // namespace taj

#endif // TAJ_POINTSTO_KEYS_H
