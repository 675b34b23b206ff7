//===- ir/Program.h - TIR classes, methods, programs -----------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TIR program container: classes with fields and methods, a global
/// field table, a global method table, and a statement index that assigns a
/// dense id to every instruction (used by the pointer analysis, the SDG and
/// the slicers to name program points).
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_IR_PROGRAM_H
#define TAJ_IR_PROGRAM_H

#include "ir/Instruction.h"
#include "ir/Type.h"
#include "support/StringPool.h"

#include <cassert>
#include <string>
#include <unordered_map>
#include <vector>

namespace taj {

/// Bitmask of security-rule kinds (TAJ Section 1 / Section 3: XSS,
/// injection, malicious file execution, information leakage).
using RuleMask = uint8_t;
namespace rules {
inline constexpr RuleMask None = 0;
inline constexpr RuleMask XSS = 1;
inline constexpr RuleMask SQLI = 2;
inline constexpr RuleMask FILE = 4;
inline constexpr RuleMask LEAK = 8;
inline constexpr RuleMask All = XSS | SQLI | FILE | LEAK;
inline constexpr int NumRules = 4;
/// Human-readable rule name for bit \p RuleBit (one of the masks above).
const char *ruleName(RuleMask RuleBit);
} // namespace rules

/// Synthetic-model identifiers (TAJ Section 4). A method marked with an
/// intrinsic has no analyzable body; the pointer analysis and the slicers
/// apply hand-written transfer functions instead.
enum class Intrinsic : uint8_t {
  None,           ///< Ordinary method with a TIR body.
  Identity,       ///< Returns its first real argument (e.g. String.trim).
  StringTransfer, ///< Returns a fresh string derived from all arguments
                  ///< (concat, format, ...). String-carrier model, §4.2.1.
  Sanitize,       ///< Returns a sanitized copy; kills the method's
                  ///< SanitizerRules on flows through it.
  SourceReturn,   ///< Returns fresh tainted data (e.g. getParameter).
  SinkConsume,    ///< Consumes sensitive parameters (e.g. println).
  MapPut,         ///< recv.put(key, value); constant-key model, §4.2.1.
  MapGet,         ///< recv.get(key).
  CollAdd,        ///< recv.add(value); single-channel collection model.
  CollGet,        ///< recv.get(...).
  ClassForName,   ///< Class.forName(name); reflection model, §4.2.3.
  GetMethod,      ///< cls.getMethod(name).
  MethodInvoke,   ///< method.invoke(recv, argsArray).
  ThreadStart,    ///< recv.start() dispatches to recv's run() (native model).
  JndiLookup,     ///< ctx.lookup(name); EJB deployment-descriptor model §4.2.2.
  HomeCreate,     ///< home.create() returns a bean instance.
  GetMessage      ///< exception.getMessage(); info-leak source model §4.1.2.
};

/// A (possibly static) field declaration.
struct Field {
  Symbol Name = 0;
  ClassId Owner = InvalidId;
  Type Ty;
  bool IsStatic = false;
};

/// A method: signature, security/model annotations, and a CFG body.
struct Method {
  Symbol Name = 0;
  ClassId Owner = InvalidId;
  MethodId Id = InvalidId;
  /// Parameter types; for instance methods ParamTypes[0] is the receiver.
  std::vector<Type> ParamTypes;
  Type RetType;
  bool IsStatic = false;
  /// True once the body is in SSA form.
  bool InSSA = false;
  /// Analysis entrypoint (servlet doGet, Struts Action.execute, ...).
  bool IsEntry = false;
  /// Library factory method: gets 1-call-string context (§3.1).
  bool IsFactory = false;
  /// Rule kinds whose taint this method's return value generates.
  RuleMask SourceRules = rules::None;
  /// Rule kinds this method sanitizes.
  RuleMask SanitizerRules = rules::None;
  /// Rule kinds for which this method is a sink.
  RuleMask SinkRules = rules::None;
  /// Bitmask over parameter indices: which params are sensitive sink inputs.
  uint32_t SinkParamMask = 0;
  /// Synthetic-model id; Intrinsic::None means the body is analyzable.
  Intrinsic Intr = Intrinsic::None;
  /// Number of parameters (== leading value ids 0..NumParams-1).
  uint32_t NumParams = 0;
  /// Total number of values (locals pre-SSA, SSA values post-SSA).
  uint32_t NumValues = 0;
  std::vector<BasicBlock> Blocks;

  bool isTaintApi() const {
    return SourceRules != rules::None || SinkRules != rules::None ||
           SanitizerRules != rules::None;
  }
  bool hasBody() const { return !Blocks.empty() && Intr == Intrinsic::None; }
};

/// Class flag bits.
namespace classflags {
inline constexpr uint32_t Library = 1 << 0;       ///< Library (vs app) code.
inline constexpr uint32_t Collection = 1 << 1;    ///< Unlimited obj-sens §3.1.
inline constexpr uint32_t Map = 1 << 2;           ///< Constant-key dictionary.
inline constexpr uint32_t StringCarrier = 1 << 3; ///< String-like, §4.2.1.
inline constexpr uint32_t Whitelisted = 1 << 4;   ///< Benign, excludable.
inline constexpr uint32_t Thread = 1 << 5;        ///< start() dispatches run().
inline constexpr uint32_t ActionForm = 1 << 6;    ///< Struts form bean §4.2.2.
} // namespace classflags

/// A class: name, superclass, members, and model flags.
struct Class {
  Symbol Name = 0;
  ClassId Id = InvalidId;
  ClassId Super = InvalidId; ///< InvalidId only for the root class.
  std::vector<FieldId> Fields;
  std::vector<MethodId> Methods;
  uint32_t Flags = 0;

  bool is(uint32_t Flag) const { return (Flags & Flag) != 0; }
};

/// Dense id of an instruction in the whole program (see
/// Program::indexStatements).
using StmtId = uint32_t;

/// Back-reference from a StmtId to its location.
struct StmtRef {
  MethodId M = InvalidId;
  int32_t Block = -1;
  int32_t Index = -1;
};

/// A whole TIR program.
class Program {
public:
  StringPool Pool;
  std::vector<Class> Classes;
  std::vector<Method> Methods;
  std::vector<Field> Fields;

  /// Looks up a class by name; returns InvalidId if absent.
  ClassId findClass(std::string_view Name) const;
  /// Looks up a field declared directly in \p C; returns InvalidId if absent.
  FieldId findField(ClassId C, std::string_view Name) const;
  /// Looks up a method declared directly in \p C; returns InvalidId if absent.
  MethodId findMethod(ClassId C, std::string_view Name) const;

  const Class &cls(ClassId C) const { return Classes[C]; }
  const Method &method(MethodId M) const { return Methods[M]; }
  const Field &field(FieldId F) const { return Fields[F]; }

  /// Builds the statement index, unless it still matches the blocks.
  /// Must be called after the IR is final (post-SSA) and before any
  /// analysis runs, and again after any block gains or loses
  /// instructions. The check is O(methods + blocks): each method's first
  /// id and each non-empty block's first and last refs.
  void indexStatements();

  /// Number of indexed statements.
  uint32_t numStmts() const { return static_cast<uint32_t>(StmtRefs.size()); }

  /// Dense id of instruction (\p M, \p Block, \p Index).
  StmtId stmtId(MethodId M, int32_t Block, int32_t Index) const;

  /// Location of statement \p S.
  const StmtRef &stmtRef(StmtId S) const {
    assert(S < StmtRefs.size() && "statement id out of range");
    return StmtRefs[S];
  }

  /// The instruction named by \p S.
  const Instruction &stmt(StmtId S) const {
    const StmtRef &R = StmtRefs[S];
    return Methods[R.M].Blocks[R.Block].Insts[R.Index];
  }

  /// First StmtId of method \p M (statements of a method are contiguous).
  StmtId methodStmtBegin(MethodId M) const { return MethodStmtBase[M]; }
  /// One past the last StmtId of method \p M.
  StmtId methodStmtEnd(MethodId M) const {
    return M + 1 < MethodStmtBase.size() ? MethodStmtBase[M + 1] : numStmts();
  }

  /// Renders "Class.method" for diagnostics.
  std::string methodName(MethodId M) const;

private:
  /// True when the index names every instruction of every block at the
  /// id a rebuild would give it.
  bool statementIndexCurrent() const;

  std::vector<StmtRef> StmtRefs;
  std::vector<StmtId> MethodStmtBase;
  mutable std::unordered_map<Symbol, ClassId> ClassByName;
};

} // namespace taj

#endif // TAJ_IR_PROGRAM_H
