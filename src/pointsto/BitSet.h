//===- pointsto/BitSet.h - Chunked sparse bitmap over IKIds ----*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The points-to set representations. While solving, each pointer key owns
/// a SparseBitSet: a chunked sparse bitmap over its members (dense small
/// IKIds), kept as a sorted array of (32-bit word index, 64-bit bit word)
/// chunks with zero words never stored. \c unionWith yields new members in
/// ascending order. The chunk array lives in a small inline buffer until it
/// outgrows it: the solver materializes one set per pointer key and most of
/// them span one or two 64-bit chunks, so the common case performs no heap
/// allocation at all.
///
/// Once solving ends, every set is frozen into one immutable
/// PointsToColumn: a CSR column of per-key chunk offsets, word indices and
/// words. Queries read a PtsView over it, which yields members in
/// ascending order; the persist record stores the column as it is, so a
/// warm restore is three bulk copies plus one validation sweep.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_POINTSTO_BITSET_H
#define TAJ_POINTSTO_BITSET_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

namespace taj {

namespace persist {
struct Access;
}

/// Appends the members of chunk (\p WI, \p W) to \p Out, ascending.
template <typename Vec>
inline void appendChunkBits(Vec &Out, uint32_t WI, uint64_t W) {
  const uint32_t Base = WI << 6;
  for (; W; W &= W - 1)
    Out.push_back(Base + uint32_t(std::countr_zero(W)));
}

/// A sparse bitmap over uint32_t values, chunked into 64-bit words: the
/// solver's mutable points-to set.
class SparseBitSet {
public:
  struct Chunk {
    uint32_t Idx;  ///< Word index (value >> 6); no zero words stored.
    uint64_t Word; ///< The 64 bits covering [Idx*64, Idx*64+63].
  };

  SparseBitSet() {}
  SparseBitSet(const SparseBitSet &O) { copyFrom(O); }
  SparseBitSet(SparseBitSet &&O) noexcept { moveFrom(O); }
  SparseBitSet &operator=(const SparseBitSet &O) {
    if (this != &O) {
      Size = 0;
      Cnt = 0;
      copyFrom(O);
    }
    return *this;
  }
  SparseBitSet &operator=(SparseBitSet &&O) noexcept {
    if (this != &O) {
      if (Ptr != Inline)
        delete[] Ptr;
      moveFrom(O);
    }
    return *this;
  }
  ~SparseBitSet() {
    if (Ptr != Inline)
      delete[] Ptr;
  }

  bool empty() const { return Cnt == 0; }
  uint32_t count() const { return Cnt; }

  /// Inserts \p V; returns true iff it was not already present.
  bool insert(uint32_t V) {
    const uint32_t WI = V >> 6;
    const uint64_t Bit = uint64_t(1) << (V & 63);
    uint32_t Pos = lowerBound(WI);
    if (Pos < Size && Ptr[Pos].Idx == WI) {
      if (Ptr[Pos].Word & Bit)
        return false;
      Ptr[Pos].Word |= Bit;
    } else {
      if (Size == Cap)
        grow(Size + 1);
      std::memmove(Ptr + Pos + 1, Ptr + Pos, (Size - Pos) * sizeof(Chunk));
      Ptr[Pos].Idx = WI;
      Ptr[Pos].Word = Bit;
      ++Size;
    }
    ++Cnt;
    return true;
  }

  /// Unions \p O into this set. Members newly added are appended to
  /// \p NewBits in ascending order. Returns true iff anything changed.
  /// \p O must not alias this set.
  bool unionWith(const SparseBitSet &O, std::vector<uint32_t> &NewBits) {
    if (O.Cnt == 0)
      return false;
    // Chunks present in O but absent here, gathered for one merge at the
    // end; stays heap-free when O introduces no new chunks.
    std::vector<Chunk> Fresh;
    bool Changed = false;
    uint32_t I = 0;
    for (uint32_t J = 0; J < O.Size; ++J) {
      const uint32_t WI = O.Ptr[J].Idx;
      while (I < Size && Ptr[I].Idx < WI)
        ++I;
      if (I < Size && Ptr[I].Idx == WI) {
        const uint64_t Add = O.Ptr[J].Word & ~Ptr[I].Word;
        if (Add) {
          Ptr[I].Word |= Add;
          Cnt += uint32_t(std::popcount(Add));
          appendChunkBits(NewBits, WI, Add);
          Changed = true;
        }
      } else {
        Fresh.push_back(O.Ptr[J]);
        Cnt += uint32_t(std::popcount(O.Ptr[J].Word));
        appendChunkBits(NewBits, WI, O.Ptr[J].Word);
        Changed = true;
      }
    }
    if (!Fresh.empty())
      mergeFresh(Fresh);
    return Changed;
  }

  /// Appends all members to \p Out (any push_back container of uint32_t)
  /// in ascending order.
  template <typename Vec> void appendTo(Vec &Out) const {
    for (uint32_t I = 0; I < Size; ++I)
      appendChunkBits(Out, Ptr[I].Idx, Ptr[I].Word);
  }

  /// Raw chunk access, for freezing into a PointsToColumn.
  uint32_t numChunks() const { return Size; }
  const Chunk &chunk(uint32_t I) const { return Ptr[I]; }

private:
  static constexpr uint32_t InlineCap = 2;

  uint32_t lowerBound(uint32_t WI) const {
    uint32_t Lo = 0, Hi = Size;
    while (Lo < Hi) {
      uint32_t Mid = (Lo + Hi) / 2;
      if (Ptr[Mid].Idx < WI)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Lo;
  }

  /// Backward in-place merge of new chunks; \p Fresh is sorted ascending
  /// and disjoint from the stored indices.
  void mergeFresh(const std::vector<Chunk> &Fresh) {
    const uint32_t OldN = Size, Add = uint32_t(Fresh.size());
    if (OldN + Add > Cap)
      grow(OldN + Add);
    uint32_t A = OldN, B = Add, W = OldN + Add;
    while (B > 0) {
      if (A > 0 && Ptr[A - 1].Idx > Fresh[B - 1].Idx) {
        Ptr[W - 1] = Ptr[A - 1];
        --A;
      } else {
        Ptr[W - 1] = Fresh[B - 1];
        --B;
      }
      --W;
    }
    Size = OldN + Add;
  }

  void grow(uint32_t Need) {
    uint32_t NewCap = Cap * 2;
    if (NewCap < Need)
      NewCap = Need;
    Chunk *NewPtr = new Chunk[NewCap];
    std::memcpy(NewPtr, Ptr, Size * sizeof(Chunk));
    if (Ptr != Inline)
      delete[] Ptr;
    Ptr = NewPtr;
    Cap = NewCap;
  }

  void copyFrom(const SparseBitSet &O) {
    if (O.Size > Cap)
      grow(O.Size);
    std::memcpy(Ptr, O.Ptr, O.Size * sizeof(Chunk));
    Size = O.Size;
    Cnt = O.Cnt;
  }

  /// Steals O's storage (heap) or copies its chunks (inline); O is left
  /// empty either way. Only called with this object's storage released.
  void moveFrom(SparseBitSet &O) noexcept {
    if (O.Ptr != O.Inline) {
      Ptr = O.Ptr;
      Cap = O.Cap;
    } else {
      Ptr = Inline;
      Cap = InlineCap;
      std::memcpy(Inline, O.Inline, O.Size * sizeof(Chunk));
    }
    Size = O.Size;
    Cnt = O.Cnt;
    O.Ptr = O.Inline;
    O.Cap = InlineCap;
    O.Size = 0;
    O.Cnt = 0;
  }

  Chunk *Ptr = Inline;  ///< Chunk storage; Inline until it outgrows it.
  uint32_t Size = 0;    ///< Populated chunks.
  uint32_t Cap = InlineCap;
  uint32_t Cnt = 0;     ///< Cached population count.
  Chunk Inline[InlineCap];
};

/// A read-only view of one frozen points-to set: \p N chunks whose word
/// indices ascend strictly and whose words are nonzero. Iteration yields
/// members in ascending order.
class PtsView {
public:
  PtsView() = default;
  PtsView(const uint32_t *Idx, const uint64_t *Words, uint32_t N)
      : Idx(Idx), Words(Words), N(N) {}

  bool empty() const { return N == 0; }

  uint32_t count() const {
    uint32_t C = 0;
    for (uint32_t I = 0; I < N; ++I)
      C += uint32_t(std::popcount(Words[I]));
    return C;
  }

  bool contains(uint32_t V) const {
    const uint32_t *It = std::lower_bound(Idx, Idx + N, V >> 6);
    return It != Idx + N && *It == (V >> 6) &&
           (Words[It - Idx] & (uint64_t(1) << (V & 63)));
  }

  /// True iff every member of \p O is a member of this set.
  bool containsAll(const PtsView &O) const {
    uint32_t I = 0;
    for (uint32_t J = 0; J < O.N; ++J) {
      while (I < N && Idx[I] < O.Idx[J])
        ++I;
      if (I == N || Idx[I] != O.Idx[J] || (O.Words[J] & ~Words[I]))
        return false;
    }
    return true;
  }

  /// Appends all members to \p Out (any push_back container of uint32_t)
  /// in ascending order.
  template <typename Vec> void appendTo(Vec &Out) const {
    for (uint32_t I = 0; I < N; ++I)
      appendChunkBits(Out, Idx[I], Words[I]);
  }

  /// Forward iterator yielding members in ascending order.
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint32_t *;
    using reference = uint32_t;

    const_iterator() = default;
    const_iterator(const PtsView &V, uint32_t WI)
        : Idx(V.Idx), Words(V.Words), N(V.N), WI(WI),
          Rem(WI < N ? Words[WI] : 0) {}

    uint32_t operator*() const {
      return (Idx[WI] << 6) + uint32_t(std::countr_zero(Rem));
    }
    const_iterator &operator++() {
      Rem &= Rem - 1;
      if (!Rem) {
        ++WI;
        Rem = WI < N ? Words[WI] : 0;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator Tmp = *this;
      ++*this;
      return Tmp;
    }
    bool operator==(const const_iterator &O) const {
      return WI == O.WI && Rem == O.Rem;
    }
    bool operator!=(const const_iterator &O) const { return !(*this == O); }

  private:
    // The view's own fields, copied: an iterator never dangles on a
    // temporary view.
    const uint32_t *Idx = nullptr;
    const uint64_t *Words = nullptr;
    uint32_t N = 0;
    uint32_t WI = 0;
    uint64_t Rem = 0;
  };

  const_iterator begin() const { return const_iterator(*this, 0); }
  const_iterator end() const { return const_iterator(*this, N); }

  /// Number of (word index, word) chunks the set spans.
  uint32_t numChunks() const { return N; }

private:
  const uint32_t *Idx = nullptr;
  const uint64_t *Words = nullptr;
  uint32_t N = 0;
};

/// The solved points-to sets of pointer keys 0..numKeys()-1, frozen into
/// one immutable CSR column: key K's chunks are [Offsets[K], Offsets[K+1])
/// of the parallel Idx / Words columns.
class PointsToColumn {
public:
  void reserve(size_t Keys, size_t Chunks) {
    Offsets.reserve(Keys + 1);
    Idx.reserve(Chunks);
    Words.reserve(Chunks);
  }

  /// Appends the set of the next key.
  void append(const SparseBitSet &S) {
    for (uint32_t I = 0; I < S.numChunks(); ++I) {
      Idx.push_back(S.chunk(I).Idx);
      Words.push_back(S.chunk(I).Word);
    }
    Offsets.push_back(static_cast<uint32_t>(Idx.size()));
  }

  uint32_t numKeys() const { return static_cast<uint32_t>(Offsets.size() - 1); }

  /// The set of key \p K; empty for keys past the column (keys interned
  /// after the freeze, or InvalidId).
  PtsView operator[](uint32_t K) const {
    if (K >= numKeys())
      return {};
    const uint32_t B = Offsets[K];
    return PtsView(Idx.data() + B, Words.data() + B, Offsets[K + 1] - B);
  }

private:
  /// The persist record writes and restores the three columns as they are.
  friend struct persist::Access;

  std::vector<uint32_t> Offsets = {0};
  std::vector<uint32_t> Idx;
  std::vector<uint64_t> Words;
};

} // namespace taj

#endif // TAJ_POINTSTO_BITSET_H
