//===- pointsto/Keys.cpp ---------------------------------------*- C++ -*-===//

#include "pointsto/Keys.h"

using namespace taj;

// Both hashed interns are on the constraint-generation hot path (local and
// return keys skip them for their node's key block): one probe chain over
// the open-addressed index resolves the hit and the miss, and a miss
// appends to the key vector without any per-entry node allocation.

IKId InstanceKeyTable::intern(const InstanceKeyData &D) {
  if (Index.needsGrow())
    Index.grow(Keys.size() + 1,
               [this](uint32_t I) { return Hash{}(Keys[I]); });
  size_t Slot;
  uint32_t Found = Index.find(
      Hash{}(D), [&](uint32_t I) { return Eq{}(Keys[I], D); }, Slot);
  if (Found != InvalidId)
    return Found;
  IKId Id = static_cast<IKId>(Keys.size());
  Index.insertAt(Slot, Id);
  Keys.push_back(D);
  return Id;
}

PKId PointerKeyTable::internHashed(const PointerKeyData &D) {
  if (Index.needsGrow())
    Index.grow(Index.size() + 1,
               [this](uint32_t I) { return Hash{}(Keys[I]); });
  size_t Slot;
  uint32_t Found = Index.find(
      Hash{}(D), [&](uint32_t I) { return Eq{}(Keys[I], D); }, Slot);
  if (Found != InvalidId)
    return Found;
  Index.insertAt(Slot, static_cast<uint32_t>(Keys.size()));
  return append(D);
}
