//===- ir/Instruction.h - TIR instructions ---------------------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TIR instructions. A method body is a control-flow graph of basic blocks;
/// each block holds a sequence of Instructions. Before SSA construction,
/// operands name mutable local slots; after SSA construction (the form all
/// analyses consume), every value has exactly one definition and Phi
/// instructions appear at join points. The representation mirrors the
/// SSA register-transfer language TAJ Section 3.1 relies on.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_IR_INSTRUCTION_H
#define TAJ_IR_INSTRUCTION_H

#include "ir/Type.h"
#include "support/StringPool.h"

#include <vector>

namespace taj {

/// Value number within a method: a local slot pre-SSA, an SSA value post-SSA.
using ValueId = int32_t;
/// Sentinel for "no value" (e.g. a call whose result is unused).
inline constexpr ValueId NoValue = -1;

/// TIR opcodes.
enum class Opcode : uint8_t {
  ConstStr,    ///< Dst = "literal"        (StrLit)
  ConstInt,    ///< Dst = N                (IntLit)
  New,         ///< Dst = new Cls
  NewArray,    ///< Dst = new Cls[]
  Copy,        ///< Dst = Args[0]
  Phi,         ///< Dst = phi(Args...)     (SSA only; Args[i] from pred i)
  Load,        ///< Dst = Args[0].Field
  Store,       ///< Args[0].Field = Args[1]
  ArrayLoad,   ///< Dst = Args[0][*]
  ArrayStore,  ///< Args[0][*] = Args[1]
  StaticLoad,  ///< Dst = Field            (static field)
  StaticStore, ///< Field = Args[0]
  Binop,       ///< Dst = Args[0] op Args[1]  (IntLit holds BinopKind)
  Call,        ///< Dst? = call; see CallKind / Callee fields
  Return,      ///< return Args[0]?        (block terminator)
  Goto,        ///< jump Target            (block terminator)
  If,          ///< if Args[0] goto Target else goto Target2 (terminator)
  Caught,      ///< Dst = currently caught exception object
  Throw        ///< throw Args[0]          (block terminator)
};

/// Dispatch kind for Call instructions.
enum class CallKind : uint8_t {
  Virtual, ///< receiver = Args[0]; target resolved by dynamic class
  Static,  ///< no receiver; target = (Cls, CalleeName)
  Special  ///< receiver = Args[0]; exact target (constructors, super calls)
};

/// Arithmetic/comparison operators for Binop.
enum class BinopKind : uint8_t { Add, Sub, Mul, Eq, Lt };

/// One TIR instruction. Fields not used by an opcode are left at their
/// defaults; see the Opcode comments for which fields apply.
struct Instruction {
  Opcode Op = Opcode::Goto;
  CallKind CKind = CallKind::Virtual;
  /// Destination value (NoValue if none).
  ValueId Dst = NoValue;
  /// Operand values; for Call, Args[0] is the receiver unless CKind==Static.
  std::vector<ValueId> Args;
  /// Field id for Load/Store/StaticLoad/StaticStore.
  FieldId Field = InvalidId;
  /// Class for New/NewArray and for static/special call resolution.
  ClassId Cls = InvalidId;
  /// String literal symbol for ConstStr.
  Symbol StrLit = 0;
  /// Integer literal for ConstInt, or the BinopKind for Binop.
  int64_t IntLit = 0;
  /// Method name symbol for Call.
  Symbol CalleeName = 0;
  /// Branch target block for Goto/If (block index within the method).
  int32_t Target = -1;
  /// Fallthrough (else) block for If.
  int32_t Target2 = -1;
  /// Source line for diagnostics and reports.
  uint32_t Line = 0;

  bool isTerminator() const {
    return Op == Opcode::Return || Op == Opcode::Goto || Op == Opcode::If ||
           Op == Opcode::Throw;
  }
  bool hasDst() const { return Dst != NoValue; }
};

/// A basic block: straight-line instructions ending in at most one
/// terminator, plus explicit predecessor/successor lists.
struct BasicBlock {
  std::vector<Instruction> Insts;
  std::vector<int32_t> Succs;
  std::vector<int32_t> Preds;
};

} // namespace taj

#endif // TAJ_IR_INSTRUCTION_H
