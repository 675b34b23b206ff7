//===- pointsto/SmallVec.h - Inline-storage solver rows ---------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal vector with inline storage for trivially copyable element
/// types, used for the solver's per-pointer-key rows (copy successors,
/// pending deltas, deferred uses). Those rows are numerous, short, and
/// torn down all at once with the solver, so keeping the first few
/// elements inline removes one heap allocation and one free per
/// populated row — the dominant allocator traffic of a solve.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_POINTSTO_SMALLVEC_H
#define TAJ_POINTSTO_SMALLVEC_H

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace taj {

/// Vector with \p N inline slots; \p T must be trivially copyable.
template <typename T, uint32_t N> class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec relocates with memcpy");

public:
  SmallVec() {}
  SmallVec(const SmallVec &O) { copyFrom(O); }
  SmallVec(SmallVec &&O) noexcept { moveFrom(O); }
  SmallVec &operator=(const SmallVec &O) {
    if (this != &O) {
      Size = 0;
      copyFrom(O);
    }
    return *this;
  }
  SmallVec &operator=(SmallVec &&O) noexcept {
    if (this != &O) {
      if (Ptr != inlineBuf())
        delete[] Ptr;
      moveFrom(O);
    }
    return *this;
  }
  ~SmallVec() {
    if (Ptr != inlineBuf())
      delete[] Ptr;
  }

  bool empty() const { return Size == 0; }
  uint32_t size() const { return Size; }
  void clear() { Size = 0; }

  T &operator[](uint32_t I) { return Ptr[I]; }
  const T &operator[](uint32_t I) const { return Ptr[I]; }

  T *begin() { return Ptr; }
  T *end() { return Ptr + Size; }
  const T *begin() const { return Ptr; }
  const T *end() const { return Ptr + Size; }

  void push_back(const T &V) {
    if (Size == Cap)
      grow(Size + 1);
    Ptr[Size++] = V;
  }

  /// Resizes to \p NewSize; slots past the old size are set to \p Fill.
  void resize(uint32_t NewSize, const T &Fill) {
    if (NewSize > Cap)
      grow(NewSize);
    for (uint32_t I = Size; I < NewSize; ++I)
      Ptr[I] = Fill;
    Size = NewSize;
  }

  void append(const T *First, const T *Last) {
    const uint32_t Add = uint32_t(Last - First);
    if (Size + Add > Cap)
      grow(Size + Add);
    std::memcpy(Ptr + Size, First, Add * sizeof(T));
    Size += Add;
  }

  void swap(SmallVec &O) noexcept {
    if (Ptr != inlineBuf() && O.Ptr != O.inlineBuf()) {
      // Both on the heap: a pure pointer swap, no element copies.
      T *P = Ptr;
      uint32_t S = Size, C = Cap;
      Ptr = O.Ptr;
      Size = O.Size;
      Cap = O.Cap;
      O.Ptr = P;
      O.Size = S;
      O.Cap = C;
      return;
    }
    SmallVec Tmp(static_cast<SmallVec &&>(O));
    O = static_cast<SmallVec &&>(*this);
    *this = static_cast<SmallVec &&>(Tmp);
  }

private:
  T *inlineBuf() { return reinterpret_cast<T *>(Inline); }
  const T *inlineBuf() const { return reinterpret_cast<const T *>(Inline); }

  void grow(uint32_t Need) {
    uint32_t NewCap = Cap * 2;
    if (NewCap < Need)
      NewCap = Need;
    T *NewPtr = new T[NewCap];
    std::memcpy(NewPtr, Ptr, Size * sizeof(T));
    if (Ptr != inlineBuf())
      delete[] Ptr;
    Ptr = NewPtr;
    Cap = NewCap;
  }

  void copyFrom(const SmallVec &O) {
    if (O.Size > Cap)
      grow(O.Size);
    std::memcpy(Ptr, O.Ptr, O.Size * sizeof(T));
    Size = O.Size;
  }

  void moveFrom(SmallVec &O) noexcept {
    if (O.Ptr != O.inlineBuf()) {
      Ptr = O.Ptr;
      Cap = O.Cap;
    } else {
      Ptr = inlineBuf();
      Cap = N;
      std::memcpy(Inline, O.Inline, O.Size * sizeof(T));
    }
    Size = O.Size;
    O.Ptr = O.inlineBuf();
    O.Cap = N;
    O.Size = 0;
  }

  T *Ptr = inlineBuf();
  uint32_t Size = 0;
  uint32_t Cap = N;
  alignas(T) unsigned char Inline[N * sizeof(T)];
};

} // namespace taj

#endif // TAJ_POINTSTO_SMALLVEC_H
