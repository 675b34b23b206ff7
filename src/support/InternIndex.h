//===- support/InternIndex.h - Open-addressed intern index -----*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The slot index behind every interning table of the pointer analysis
/// (contexts, instance keys, pointer keys, call-graph nodes) and behind the
/// class hierarchy's dispatch index. The keys live in the owner's own dense
/// vector; the index only maps a key to its id.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SUPPORT_INTERNINDEX_H
#define TAJ_SUPPORT_INTERNINDEX_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace taj {

/// Finishes a key hash for an InternIndex: the high half of a Fibonacci
/// multiply, where every bit of \p H has mixed in, moved down to the low
/// bits the index masks. Without it the keys' dense, sequential fields
/// fill runs of adjacent slots: Roller's 15k pointer keys averaged 70
/// probes per insert at the solver's reserved capacity, against 0.2 with.
inline uint64_t internMix(uint64_t H) {
  return (H * 0x9e3779b97f4a7c15ull) >> 32;
}

/// InternIndex hash of a key of two 32-bit fields.
inline uint64_t internHash2(uint32_t Hi, uint32_t Lo) {
  return internMix((static_cast<uint64_t>(Hi) << 32) | Lo);
}

/// Open-addressed slot index over an external key vector: each slot holds
/// id + 1 (0 = empty), probing linearly over a power-of-two table. Interning
/// a key costs one probe chain and zero allocations (the node-per-entry
/// malloc of unordered_map was a measurable share of solver time).
class InternIndex {
public:
  /// Probes for the slot of the key hashing to \p H that satisfies
  /// \p IsMatch; returns the existing id, or ~0u (the ids' InvalidId) with
  /// \p Slot set to the insertion position.
  template <typename Pred>
  uint32_t find(uint64_t H, Pred IsMatch, size_t &Slot) const {
    size_t I = static_cast<size_t>(H) & Mask;
    while (true) {
      uint32_t S = Slots[I];
      if (S == 0) {
        Slot = I;
        return ~0u;
      }
      if (IsMatch(S - 1))
        return S - 1;
      I = (I + 1) & Mask;
    }
  }

  /// The number of ids indexed.
  size_t size() const { return Filled; }

  /// True if an insert must call grow() (and re-probe) first.
  bool needsGrow() const { return (Filled + 1) * 3 >= Slots.size() * 2; }

  void insertAt(size_t Slot, uint32_t Id) {
    Slots[Slot] = Id + 1;
    ++Filled;
  }

  /// Rebuilds with at least \p MinIds capacity; \p HashOf maps an id to
  /// its hash.
  template <typename HashFn> void grow(size_t MinIds, HashFn HashOf) {
    std::vector<uint32_t> Old = std::move(Slots);
    Slots.assign(capacityFor(MinIds, Old.size() * 2), 0);
    Mask = Slots.size() - 1;
    for (uint32_t S : Old)
      if (S != 0)
        Slots[freeSlot(HashOf(S - 1))] = S;
  }

  /// Indexes ids [0, \p N) anew in one pass (bulk restore).
  /// Returns false, leaving the index unusable, if two ids hold equal keys
  /// under \p Same: a table never interns a key twice.
  template <typename HashFn, typename EqFn>
  bool rebuild(size_t N, HashFn HashOf, EqFn Same) {
    auto Identity = [](size_t K) { return static_cast<uint32_t>(K); };
    return rebuild(N, Identity, HashOf, Same);
  }

  /// As above, over the \p N ids IdAt(0), ..., IdAt(N - 1): for a table
  /// whose index holds only some of its keys.
  template <typename IdFn, typename HashFn, typename EqFn>
  bool rebuild(size_t N, IdFn IdAt, HashFn HashOf, EqFn Same) {
    Slots.assign(capacityFor(N, 16), 0);
    Mask = Slots.size() - 1;
    Filled = N;
    for (size_t K = 0; K < N; ++K) {
      const uint32_t Id = IdAt(K);
      size_t I = static_cast<size_t>(HashOf(Id)) & Mask;
      for (; Slots[I] != 0; I = (I + 1) & Mask)
        if (Same(Slots[I] - 1, Id))
          return false;
      Slots[I] = Id + 1;
    }
    return true;
  }

private:
  /// The smallest power of two >= \p Floor that keeps \p Ids at most two
  /// thirds full.
  static size_t capacityFor(size_t Ids, size_t Floor) {
    size_t Cap = Floor;
    while (Cap * 2 < Ids * 3 + 16)
      Cap *= 2;
    return Cap;
  }

  size_t freeSlot(uint64_t H) const {
    size_t I = static_cast<size_t>(H) & Mask;
    while (Slots[I] != 0)
      I = (I + 1) & Mask;
    return I;
  }

  std::vector<uint32_t> Slots = std::vector<uint32_t>(16, 0);
  size_t Mask = 15;
  size_t Filled = 0;
};

} // namespace taj

#endif // TAJ_SUPPORT_INTERNINDEX_H
