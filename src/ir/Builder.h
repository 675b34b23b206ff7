//===- ir/Builder.h - Programmatic TIR construction ------------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fluent construction of TIR programs. Bodies are built in a pre-SSA form
/// where values are mutable local slots; MethodBuilder::finish seals the CFG
/// and runs SSA construction, producing the form all analyses consume.
/// Used by the synthetic model library, the benchmark generator, the
/// examples and the tests; the textual frontend produces the same IR.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_IR_BUILDER_H
#define TAJ_IR_BUILDER_H

#include "ir/Program.h"

#include <initializer_list>
#include <string_view>

namespace taj {

class Builder;

/// Builds the body of one method. Instructions are appended to the current
/// block; every emit helper that produces a value allocates a fresh local
/// slot, so straight-line code is born nearly in SSA form. Loops and
/// reassignments use assign().
class MethodBuilder {
public:
  /// The method under construction.
  MethodId id() const { return M; }

  /// Value id of parameter \p Idx (the receiver is parameter 0 for
  /// instance methods).
  ValueId param(uint32_t Idx) const;

  /// Allocates a fresh uninitialized local slot.
  ValueId freshSlot();

  /// Creates a new (empty, unlinked) basic block and returns its index.
  int32_t newBlock();
  /// Redirects emission to block \p B.
  void setBlock(int32_t B) { Cur = B; }
  /// Index of the current block.
  int32_t curBlock() const { return Cur; }

  ValueId constStr(std::string_view Lit);
  ValueId constInt(int64_t V);
  ValueId emitNew(ClassId C);
  ValueId emitNewArray(ClassId Elem);
  /// Re-assigns an existing slot (for loops / conditional updates).
  void assign(ValueId DstSlot, ValueId Src);
  ValueId emitLoad(ValueId Base, FieldId F);
  void emitStore(ValueId Base, FieldId F, ValueId Val);
  ValueId emitArrayLoad(ValueId Base);
  void emitArrayStore(ValueId Base, ValueId Val);
  ValueId emitStaticLoad(FieldId F);
  void emitStaticStore(FieldId F, ValueId Val);
  ValueId emitBinop(BinopKind K, ValueId A, ValueId B);
  /// Virtual call: Args[0] is the receiver. Returns the result slot, or
  /// NoValue for void callees.
  ValueId callVirtual(std::string_view Name,
                      std::initializer_list<ValueId> Args);
  ValueId callVirtualV(std::string_view Name, const std::vector<ValueId> &Args);
  /// Static call on class \p C.
  ValueId callStatic(ClassId C, std::string_view Name,
                     std::initializer_list<ValueId> Args);
  void emitRet(ValueId V = NoValue);
  void emitGoto(int32_t Target);
  void emitIf(ValueId Cond, int32_t Then, int32_t Else);
  ValueId emitCaught();
  void emitThrow(ValueId V);

  /// Sets the source line attached to subsequently emitted instructions.
  void setLine(uint32_t L) { Line = L; }

  /// Seals the CFG (adds fall-through gotos, computes preds) and converts
  /// the body to SSA. Must be called exactly once.
  void finish();

private:
  friend class Builder;
  MethodBuilder(Program &P, MethodId M) : P(P), M(M) {}

  Instruction &push(Instruction I);
  ValueId def(Instruction I);

  Program &P;
  MethodId M;
  int32_t Cur = 0;
  uint32_t Line = 0;
  bool Finished = false;
};

/// Builds classes, fields and methods of a Program.
class Builder {
public:
  explicit Builder(Program &P) : P(P) {}

  /// Creates a class. \p Super may be InvalidId only for the root class.
  ClassId makeClass(std::string_view Name, ClassId Super, uint32_t Flags = 0);

  /// Adds a field to \p C.
  FieldId makeField(ClassId C, std::string_view Name, Type Ty,
                    bool IsStatic = false);

  /// Starts a method. For instance methods, \p ParamTypes must include the
  /// receiver type at index 0. Creates the entry block.
  MethodBuilder startMethod(ClassId C, std::string_view Name,
                            const std::vector<Type> &ParamTypes, Type Ret,
                            bool IsStatic = false);

  /// Declares a bodiless intrinsic (model) method.
  MethodId makeIntrinsic(ClassId C, std::string_view Name,
                         const std::vector<Type> &ParamTypes, Type Ret,
                         Intrinsic Intr, bool IsStatic = false);

  Program &program() { return P; }

private:
  Program &P;
};

} // namespace taj

#endif // TAJ_IR_BUILDER_H
