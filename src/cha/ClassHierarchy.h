//===- cha/ClassHierarchy.h - Class-hierarchy analysis ---------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Class-hierarchy analysis over a TIR program: subtype tests, virtual
/// dispatch resolution (walking the superclass chain), enumeration of
/// concrete subtypes, and field lookup through inheritance. The pointer
/// analysis and the framework models (Struts ActionForm synthesis) consume
/// this.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_CHA_CLASSHIERARCHY_H
#define TAJ_CHA_CLASSHIERARCHY_H

#include "ir/Program.h"
#include "support/InternIndex.h"

#include <span>
#include <vector>

namespace taj {

/// Precomputed hierarchy queries for one Program. Build after the program
/// is complete (and verified: the superclass chains must be acyclic);
/// adding classes or methods afterwards invalidates the instance.
class ClassHierarchy {
public:
  explicit ClassHierarchy(const Program &P);

  /// True if \p Sub is \p Super or a (transitive) subclass of it.
  bool isSubclassOf(ClassId Sub, ClassId Super) const;

  /// Resolves a virtual call with receiver class \p Recv and method name
  /// \p Name: the first method named \p Name that the nearest class on
  /// \p Recv's superclass chain declares. One dispatch-index probe per
  /// class on the chain. Returns InvalidId if no implementation exists or
  /// \p Recv is InvalidId.
  MethodId resolveVirtual(ClassId Recv, Symbol Name) const;

  /// All classes that are \p C or transitively extend it, in id order.
  std::span<const ClassId> subtypes(ClassId C) const {
    return {Subtypes.data() + SubtypeOff[C],
            Subtypes.data() + SubtypeOff[C + 1]};
  }

  /// Finds field \p Name on \p C or a superclass. InvalidId if absent.
  FieldId resolveField(ClassId C, Symbol Name) const;

  /// Depth of \p C in the hierarchy (root = 0).
  uint32_t depth(ClassId C) const { return Depth[C]; }

private:
  /// Dispatch-index probe: the first method named \p Name that \p C
  /// declares, or InvalidId with \p Slot set to the insertion position.
  MethodId declared(ClassId C, Symbol Name, size_t &Slot) const;

  const Program &P;
  std::vector<uint32_t> Depth;
  /// CSR column: row C is subtypes(C).
  std::vector<uint32_t> SubtypeOff;
  std::vector<ClassId> Subtypes;
  /// Method ids keyed by (owner, name): the first method of each name
  /// each class declares. Same-named overloads parse, and dispatch picks
  /// the first.
  InternIndex Dispatch;
};

} // namespace taj

#endif // TAJ_CHA_CLASSHIERARCHY_H
