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
#include "support/InternIndex.h"

#include <cassert>
#include <cstdint>
#include <utility>
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

/// Interning table for pointer keys. Local and Ret keys, most of every
/// table, live in per-node key blocks: as the solver creates each
/// call-graph node it opens the node's block, one local slot per SSA value
/// of its method (all nodes' slots in one flat column) and one return
/// slot. A slot holds the key's id, or InvalidId until the key is
/// interned, and is its authoritative home. The hash index holds every
/// other key: fields, array contents, statics and channels, plus any
/// Local key whose value lies outside its node's block, which a verified
/// program never creates. Either way a key is appended on first intern,
/// so ids follow first-touch order.
class PointerKeyTable {
public:
  PKId intern(const PointerKeyData &D) {
    if (PKId *S = slotOf(D))
      return *S != InvalidId ? *S : (*S = append(D));
    return internHashed(D);
  }
  const PointerKeyData &data(PKId I) const { return Keys[I]; }
  size_t size() const { return Keys.size(); }
  /// Pre-sizes for \p N keys. The node blocks hold the local and return
  /// keys, 95-97% of a suite pass's keys, so the hash index is sized for a
  /// sixteenth of them.
  void reserve(size_t N) {
    Keys.reserve(N);
    if (N / 16 > Index.size())
      Index.grow(N / 16, [this](uint32_t I) { return Hash{}(Keys[I]); });
  }

  /// Opens the key block of node \p N, the next node id, with
  /// \p NumValues local slots.
  void openNode(CGNodeId N, uint32_t NumValues) {
    assert(N == RetSlots.size() && "nodes open in id order");
    (void)N;
    LocalSlots.resize(LocalSlots.size() + NumValues, InvalidId);
    LocalOff.push_back(static_cast<uint32_t>(LocalSlots.size()));
    RetSlots.push_back(InvalidId);
  }

  /// Read-only lookup: the id of \p D if it was ever interned, InvalidId
  /// otherwise. Never mutates the table, so it is safe on post-solve read
  /// paths.
  PKId lookup(const PointerKeyData &D) const {
    if (const PKId *S = slotOf(D))
      return *S;
    size_t Slot;
    return Index.find(Hash{}(D),
                      [&](uint32_t I) { return Eq{}(Keys[I], D); }, Slot);
  }
  PKId localLookup(CGNodeId N, ValueId V) const {
    return lookup({PKKind::Local, N, static_cast<uint32_t>(V)});
  }

  PKId local(CGNodeId N, ValueId V) {
    return intern({PKKind::Local, N, static_cast<uint32_t>(V)});
  }
  PKId ret(CGNodeId N) { return intern({PKKind::Ret, N, 0}); }
  PKId field(IKId I, FieldId F) { return intern({PKKind::Field, I, F}); }
  PKId arrayElem(IKId I) { return intern({PKKind::ArrayElem, I, 0}); }
  PKId staticField(FieldId F) { return intern({PKKind::Static, F, 0}); }
  PKId channel(IKId I, Symbol Chan) {
    return intern({PKKind::Channel, I, Chan});
  }

private:
  /// Bulk restore (persist/Serialize.cpp) fills Keys and reindexes.
  friend struct persist::Access;

  /// After a bulk restore: opens a block for each of the \p NumNodes
  /// nodes, \p NumValuesOf(node) local slots each, files every Local and
  /// Ret key in its slot and indexes the rest in one pass. False if two
  /// keys are equal (a block slot already taken, or a repeat in the
  /// index) or the blocks would overflow a 32-bit offset. Every Local/Ret
  /// key must already name a node below \p NumNodes.
  template <typename BoundFn>
  bool reindex(uint32_t NumNodes, BoundFn NumValuesOf) {
    LocalOff.assign(1, 0);
    LocalOff.reserve(size_t(NumNodes) + 1);
    uint64_t Total = 0;
    for (CGNodeId N = 0; N < NumNodes; ++N) {
      Total += NumValuesOf(N);
      if (Total > UINT32_MAX)
        return false;
      LocalOff.push_back(static_cast<uint32_t>(Total));
    }
    LocalSlots.assign(Total, InvalidId);
    RetSlots.assign(NumNodes, InvalidId);
    std::vector<PKId> Hashed;
    for (PKId Id = 0; Id < Keys.size(); ++Id) {
      if (PKId *S = slotOf(Keys[Id])) {
        if (*S != InvalidId)
          return false;
        *S = Id;
      } else {
        Hashed.push_back(Id);
      }
    }
    auto HashedAt = [&](size_t K) { return Hashed[K]; };
    auto HashOf = [this](uint32_t I) { return Hash{}(Keys[I]); };
    auto Same = [this](uint32_t A, uint32_t B) {
      return Eq{}(Keys[A], Keys[B]);
    };
    return Index.rebuild(Hashed.size(), HashedAt, HashOf, Same);
  }

  /// The block slot of \p D: a Local key whose value is inside its node's
  /// block, or a Ret key of an opened node. Null for every other key.
  PKId *slotOf(const PointerKeyData &D) {
    return const_cast<PKId *>(std::as_const(*this).slotOf(D));
  }
  const PKId *slotOf(const PointerKeyData &D) const {
    if (D.Kind == PKKind::Local) {
      if (D.A >= RetSlots.size())
        return nullptr;
      const uint32_t Begin = LocalOff[D.A];
      if (D.B >= LocalOff[D.A + 1] - Begin)
        return nullptr;
      return &LocalSlots[Begin + D.B];
    }
    if (D.Kind == PKKind::Ret && D.B == 0 && D.A < RetSlots.size())
      return &RetSlots[D.A];
    return nullptr;
  }

  PKId append(const PointerKeyData &D) {
    Keys.push_back(D);
    return static_cast<PKId>(Keys.size() - 1);
  }

  PKId internHashed(const PointerKeyData &D);

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
  /// Hashed keys only (see the class comment).
  InternIndex Index;
  /// The node blocks: node N's local slots are
  /// LocalSlots[LocalOff[N], LocalOff[N + 1]), its return slot
  /// RetSlots[N]; InvalidId marks a key not yet interned.
  std::vector<uint32_t> LocalOff = {0};
  std::vector<PKId> LocalSlots;
  std::vector<PKId> RetSlots;
};

} // namespace taj

#endif // TAJ_POINTSTO_KEYS_H
