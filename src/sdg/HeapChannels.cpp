//===- sdg/HeapChannels.cpp - Channel signatures ---------------*- C++ -*-===//

#include "sdg/SDG.h"

using namespace taj;

uint64_t taj::chansig::field(FieldId F) { return F; }
uint64_t taj::chansig::staticField(FieldId F) { return (1ull << 33) | F; }
uint64_t taj::chansig::array() { return 1ull << 34; }
uint64_t taj::chansig::map() { return 1ull << 35; }
uint64_t taj::chansig::mapKey(Symbol Key) {
  return (1ull << 35) | (static_cast<uint64_t>(Key) << 1) | 1;
}
uint64_t taj::chansig::coll() { return 1ull << 36; }

uint64_t taj::chansig::withIK(uint64_t ClassSig, IKId IK) {
  // Location-qualified signature: mix the instance key into the upper
  // bits; class signatures stay below bit 37.
  return ClassSig ^ (static_cast<uint64_t>(IK + 1) << 37);
}

HeapAccess taj::classifyAccess(const Program &P, const Instruction &I,
                               std::span<const MethodId> IntrTargets) {
  switch (I.Op) {
  case Opcode::Store:
    return HeapAccess::FieldStore;
  case Opcode::Load:
    return HeapAccess::FieldLoad;
  case Opcode::ArrayStore:
    return HeapAccess::ArrayStore;
  case Opcode::ArrayLoad:
    return HeapAccess::ArrayLoad;
  case Opcode::StaticStore:
    return HeapAccess::StaticStore;
  case Opcode::StaticLoad:
    return HeapAccess::StaticLoad;
  case Opcode::Call:
    for (MethodId T : IntrTargets) {
      switch (P.Methods[T].Intr) {
      case Intrinsic::MapPut:
        return HeapAccess::MapPut;
      case Intrinsic::MapGet:
        return HeapAccess::MapGet;
      case Intrinsic::CollAdd:
        return HeapAccess::CollAdd;
      case Intrinsic::CollGet:
        return HeapAccess::CollGet;
      case Intrinsic::MethodInvoke:
        return HeapAccess::InvokeArgsRead;
      default:
        break;
      }
    }
    return HeapAccess::None;
  default:
    return HeapAccess::None;
  }
}
