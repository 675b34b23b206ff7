//===- cha/ClassHierarchy.cpp ----------------------------------*- C++ -*-===//

#include "cha/ClassHierarchy.h"

#include "support/Csr.h"

#include <cassert>

using namespace taj;

ClassHierarchy::ClassHierarchy(const Program &P) : P(P) {
  size_t N = P.Classes.size();
  Depth.assign(N, 0);
  // Depth by walking the (acyclic) superclass chain; classes may be created
  // in any order by the frontend. Each step logs (ancestor, class), so the
  // subtype column's rows come out in class id order.
  std::vector<uint32_t> Rows;
  std::vector<ClassId> Vals;
  for (ClassId C = 0; C < N; ++C) {
    uint32_t D = 0;
    for (ClassId A = C; A != InvalidId; A = P.Classes[A].Super) {
      assert(D <= N && "cycle in class hierarchy");
      Rows.push_back(A);
      Vals.push_back(C);
      ++D;
    }
    Depth[C] = D - 1;
  }
  csrFromLog(Rows, Vals, N, SubtypeOff, Subtypes);

  // A verified program lists each method once, under its owner, so the
  // index never holds more ids than there are methods.
  Dispatch.grow(P.Methods.size(), [&P](MethodId M) {
    return internHash2(P.Methods[M].Owner, P.Methods[M].Name);
  });
  for (const Class &C : P.Classes) {
    for (MethodId M : C.Methods) {
      size_t Slot;
      if (declared(C.Id, P.Methods[M].Name, Slot) == InvalidId)
        Dispatch.insertAt(Slot, M);
    }
  }
}

MethodId ClassHierarchy::declared(ClassId C, Symbol Name, size_t &Slot) const {
  return Dispatch.find(
      internHash2(C, Name),
      [&](MethodId M) {
        return P.Methods[M].Owner == C && P.Methods[M].Name == Name;
      },
      Slot);
}

bool ClassHierarchy::isSubclassOf(ClassId Sub, ClassId Super) const {
  for (ClassId A = Sub; A != InvalidId; A = P.Classes[A].Super)
    if (A == Super)
      return true;
  return false;
}

MethodId ClassHierarchy::resolveVirtual(ClassId Recv, Symbol Name) const {
  size_t Slot;
  for (ClassId A = Recv; A != InvalidId; A = P.Classes[A].Super)
    if (MethodId M = declared(A, Name, Slot); M != InvalidId)
      return M;
  return InvalidId;
}

FieldId ClassHierarchy::resolveField(ClassId C, Symbol Name) const {
  for (ClassId A = C; A != InvalidId; A = P.Classes[A].Super)
    for (FieldId F : P.Classes[A].Fields)
      if (P.Fields[F].Name == Name)
        return F;
  return InvalidId;
}
