//===- dataflow/ConstString.cpp - String-constant propagation --*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Sparse conditional-constant-style propagation over one global cell
// graph. Cells cover every SSA value of every method, one return cell per
// method, one cell per field, plus auxiliary cells for folded carrier
// concatenations. Each non-leaf cell is either a meet over its operands or
// a string concatenation of them; dependency edges drive a worklist until
// fixpoint. The lattice has height 2 (⊤ → constant → ⊥), so every cell
// changes at most twice and the fixpoint is O(edges). Edge construction
// appends (cell, operand) pairs to one log, which a stable counting sort
// then freezes into an operand column and a dependent column (CSR), each
// row in log order.
//
// Interprocedural edges need call targets before the pointer analysis has
// built a call graph. A light intraprocedural type-cone pass (declared
// parameter/return/field types, exact types from New, meets at phis)
// bounds each receiver by a superclass; CHA then enumerates the possible
// targets under that cone. The cone is a sound upper bound of the runtime
// receiver class, so meeting over all enumerated targets never claims a
// constant a runtime dispatch could refute. Methods only reachable
// reflectively (Method.invoke) or via Thread.start get their parameters
// poisoned to ⊥, since those call sites bind arguments outside the normal
// argument→parameter edges.
//
//===----------------------------------------------------------------------===//

#include "dataflow/ConstString.h"

#include "support/Csr.h"
#include "support/RunGuard.h"

#include <algorithm>
#include <span>
#include <string>

using namespace taj;

const char *taj::stringAnalysisModeName(StringAnalysisMode M) {
  switch (M) {
  case StringAnalysisMode::Off:
    return "off";
  case StringAnalysisMode::Local:
    return "local";
  case StringAnalysisMode::Ipa:
    return "ipa";
  }
  return "?";
}

bool taj::parseStringAnalysisMode(std::string_view S,
                                  StringAnalysisMode &Out) {
  if (S == "off")
    Out = StringAnalysisMode::Off;
  else if (S == "local")
    Out = StringAnalysisMode::Local;
  else if (S == "ipa")
    Out = StringAnalysisMode::Ipa;
  else
    return false;
  return true;
}

namespace taj {

class ConstStringAnalysis {
public:
  ConstStringAnalysis(const Program &P, const ClassHierarchy &CHA,
                      RunGuard *Guard)
      : P(P), CHA(CHA), Guard(Guard) {}

  /// Runs one mode to fixpoint into \p R. Returns false iff the guard
  /// stopped the run mid-way (R is then unusable and the caller falls
  /// back to a fresh local-only analysis).
  bool run(StringAnalysisMode Mode, ConstStringResult &R);

private:
  static constexpr Symbol kTop = ConstStringResult::Top;
  static constexpr Symbol kBottom = ConstStringResult::Bottom;
  /// "No cone computed" marker for the type pass (distinct from a real
  /// class id; values of this type are never valid receivers).
  static constexpr ClassId kNoCone = InvalidId;

  enum class EvalKind : uint8_t { Leaf, Meet, Concat };

  //===--------------------------------------------------------------------===//
  // Cell graph
  //===--------------------------------------------------------------------===//

  uint32_t newCell(EvalKind K, Symbol Init) {
    uint32_t C = static_cast<uint32_t>(Val.size());
    Val.push_back(Init);
    Kind.push_back(K);
    NameWatch.push_back(false);
    return C;
  }

  uint32_t valueCell(MethodId M, ValueId V) const {
    return MethodBase[M] + static_cast<uint32_t>(V);
  }

  /// Logs \p Src as an operand of meet/concat cell \p Dst (and so \p Dst as
  /// a dependent of \p Src).
  void addOperand(uint32_t Dst, uint32_t Src) {
    LogDst.push_back(Dst);
    LogSrc.push_back(Src);
  }

  /// Operand cells of \p C, in the order they were logged.
  std::span<const uint32_t> operands(uint32_t C) const {
    return {Ops.data() + OpOff[C], Ops.data() + OpOff[C + 1]};
  }

  /// Lowers \p C to \p NV (⊤ → const → ⊥ only) and, once the graph is
  /// frozen, wakes its dependents; during construction run() seeds the
  /// worklist afterwards instead. \p ConstConflict marks a meet of two
  /// distinct constants (stats).
  void lower(uint32_t C, Symbol NV, bool ConstConflict = false) {
    Symbol Old = Val[C];
    if (Old == NV || Old == kBottom)
      return;
    // A constant may only be refuted to ⊥, never replaced sideways.
    if (Old != kTop && NV != kBottom)
      NV = kBottom;
    if (NV == kTop)
      return;
    Val[C] = NV;
    if (NV == kBottom && (Old != kTop || ConstConflict))
      ++MeetsToBottom;
    if (!DepOff.empty())
      for (uint32_t I = DepOff[C]; I < DepOff[C + 1]; ++I)
        enqueue(Deps[I]);
    if (NameWatch[C] && NV != kBottom)
      poisonMethodsNamed(NV);
  }

  void enqueue(uint32_t C) {
    if (!InWl[C]) {
      InWl[C] = true;
      Worklist.push_back(C);
    }
  }

  void eval(uint32_t C) {
    if (Kind[C] == EvalKind::Leaf)
      return;
    if (Kind[C] == EvalKind::Meet) {
      Symbol Acc = kTop;
      bool Conflict = false;
      for (uint32_t O : operands(C)) {
        Symbol V = Val[O];
        if (V == kTop)
          continue;
        if (V == kBottom) {
          Acc = kBottom;
          break;
        }
        if (Acc == kTop) {
          Acc = V;
        } else if (Acc != V) {
          Acc = kBottom;
          Conflict = true;
          break;
        }
      }
      lower(C, Acc, Conflict);
      return;
    }
    // Concat: all operands must be constants; any ⊥ poisons, any ⊤ waits.
    std::string S;
    for (uint32_t O : operands(C)) {
      Symbol V = Val[O];
      if (V >= kTop) {
        if (V == kBottom)
          lower(C, kBottom);
        return;
      }
      S += P.Pool.str(V);
    }
    ++ConcatsFolded;
    lower(C, intern(S));
  }

  Symbol intern(std::string_view S) const {
    // The pool is append-only and the analysis is single-threaded; the
    // solver relies on the same benign const_cast for channel names.
    return const_cast<Program &>(P).Pool.intern(S);
  }

  /// Marks \p C as the name operand of a getMethod site: once it resolves
  /// to a constant, every same-named method becomes reflectively callable
  /// and its parameters are bound outside our edges.
  void watchName(uint32_t C) {
    NameWatch[C] = true;
    if (Val[C] != kTop && Val[C] != kBottom)
      poisonMethodsNamed(Val[C]);
  }

  void poisonMethodsNamed(Symbol Name) {
    for (const Method &M : P.Methods)
      if (M.Name == Name && M.hasBody())
        poisonParams(M.Id);
  }

  void poisonParams(MethodId M) {
    for (uint32_t K = 0; K < P.Methods[M].NumParams; ++K)
      lower(valueCell(M, static_cast<ValueId>(K)), kBottom);
  }

  //===--------------------------------------------------------------------===//
  // Type cones (receiver bounds for CHA dispatch)
  //===--------------------------------------------------------------------===//

  ClassId rootClass() const {
    for (const Class &C : P.Classes)
      if (C.Super == InvalidId)
        return C.Id;
    return InvalidId;
  }

  /// Nearest common superclass (both arguments are real class ids).
  ClassId commonSuper(ClassId A, ClassId B) const {
    while (CHA.depth(A) > CHA.depth(B))
      A = P.cls(A).Super;
    while (CHA.depth(B) > CHA.depth(A))
      B = P.cls(B).Super;
    while (A != B) {
      A = P.cls(A).Super;
      B = P.cls(B).Super;
    }
    return A;
  }

  /// Widens cone \p Into by \p C (kNoCone = no information).
  static void widen(ClassId &Into, ClassId C,
                    const ConstStringAnalysis &Self) {
    if (C == kNoCone)
      return;
    if (Into == kNoCone)
      Into = C;
    else if (Into != C)
      Into = Self.commonSuper(Into, C);
  }

  ClassId typeOfDecl(const Type &T) const {
    return T.isRefLike() ? T.Cls : kNoCone;
  }

  /// Candidate targets of a virtual call named \p Name on receiver cone
  /// \p Cone: every resolution over the cone's subtypes.
  void coneTargets(ClassId Cone, Symbol Name,
                   std::vector<MethodId> &Out) const {
    Out.clear();
    if (Cone == kNoCone)
      return;
    for (ClassId S : CHA.subtypes(Cone)) {
      MethodId T = CHA.resolveVirtual(S, Name);
      if (T != InvalidId &&
          std::find(Out.begin(), Out.end(), T) == Out.end())
        Out.push_back(T);
    }
  }

  /// Candidate targets of call \p I into \p Out; a virtual call's receiver
  /// is bounded by the current method's Cones.
  void callTargets(const Instruction &I, std::vector<MethodId> &Out) const {
    Out.clear();
    if (I.CKind == CallKind::Virtual) {
      if (!I.Args.empty())
        coneTargets(Cones[static_cast<size_t>(I.Args[0])], I.CalleeName, Out);
    } else if (MethodId M = CHA.resolveVirtual(I.Cls, I.CalleeName);
               M != InvalidId) {
      Out.push_back(M);
    }
  }

  /// Declared return-type cone across current candidates of a call.
  ClassId callResultCone(const Instruction &I) {
    callTargets(I, ResultTargets);
    ClassId Cone = kNoCone;
    for (MethodId M : ResultTargets)
      widen(Cone, typeOfDecl(P.Methods[M].RetType), *this);
    return Cone;
  }

  /// Intraprocedural type-cone fixpoint for method \p M into Cones. Every
  /// value that can hold a reference gets a sound superclass bound; cones
  /// only widen, so a handful of sweeps converge.
  void computeCones(const Method &M) {
    std::vector<ClassId> &T = Cones;
    T.assign(M.NumValues, kNoCone);
    for (uint32_t K = 0; K < M.NumParams && K < M.NumValues; ++K)
      T[K] = typeOfDecl(M.ParamTypes[K]);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const BasicBlock &BB : M.Blocks) {
        for (const Instruction &I : BB.Insts) {
          if (I.Dst == NoValue)
            continue;
          ClassId Cone = T[static_cast<size_t>(I.Dst)];
          ClassId Before = Cone;
          switch (I.Op) {
          case Opcode::ConstStr:
            widen(Cone, StringCls, *this);
            break;
          case Opcode::New:
          case Opcode::NewArray:
            widen(Cone, I.Cls, *this);
            break;
          case Opcode::Copy:
            widen(Cone, T[static_cast<size_t>(I.Args[0])], *this);
            break;
          case Opcode::Phi:
            for (ValueId A : I.Args)
              if (A != NoValue)
                widen(Cone, T[static_cast<size_t>(A)], *this);
            break;
          case Opcode::Load:
          case Opcode::StaticLoad:
            widen(Cone, typeOfDecl(P.field(I.Field).Ty), *this);
            break;
          case Opcode::ArrayLoad:
          case Opcode::Caught:
            widen(Cone, Root, *this);
            break;
          case Opcode::Call:
            widen(Cone, callResultCone(I), *this);
            break;
          default:
            break;
          }
          if (Cone != Before) {
            T[static_cast<size_t>(I.Dst)] = Cone;
            Changed = true;
          }
        }
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Edge construction
  //===--------------------------------------------------------------------===//

  /// True when a StringTransfer target folds as concatenation of its
  /// arguments: only the carrier-chain model methods (§4.2.1). Other
  /// transfers (trim, format, ...) derive arbitrary strings → ⊥.
  bool foldsAsConcat(const Method &M) const {
    if (!P.cls(M.Owner).is(classflags::StringCarrier))
      return false;
    std::string_view N = P.Pool.str(M.Name);
    return N == "append" || N == "concat" || N == "toString";
  }

  void addCallEdges(MethodId Caller, const Instruction &I) {
    callTargets(I, CallTargets);
    uint32_t DstCell =
        I.Dst != NoValue ? valueCell(Caller, I.Dst) : InvalidId;
    for (MethodId TM : CallTargets) {
      const Method &Callee = P.Methods[TM];
      if (Callee.hasBody()) {
        // Arguments bind parameters positionally (receiver = param 0);
        // missing arguments poison the parameters they fail to bind.
        uint32_t Bound =
            std::min<uint32_t>(static_cast<uint32_t>(I.Args.size()),
                               Callee.NumParams);
        for (uint32_t K = 0; K < Bound; ++K) {
          if (I.Args[K] == NoValue)
            lower(valueCell(TM, static_cast<ValueId>(K)), kBottom);
          else
            addOperand(valueCell(TM, static_cast<ValueId>(K)),
                       valueCell(Caller, I.Args[K]));
        }
        for (uint32_t K = Bound; K < Callee.NumParams; ++K)
          lower(valueCell(TM, static_cast<ValueId>(K)), kBottom);
        if (DstCell != InvalidId)
          addOperand(DstCell, RetCell[TM]);
        continue;
      }
      switch (Callee.Intr) {
      case Intrinsic::Identity:
        // Returns one of its arguments: the meet is a sound summary.
        if (DstCell != InvalidId)
          for (ValueId A : I.Args)
            if (A != NoValue)
              addOperand(DstCell, valueCell(Caller, A));
        break;
      case Intrinsic::StringTransfer:
        if (DstCell != InvalidId) {
          if (foldsAsConcat(Callee)) {
            uint32_t Aux = newCell(EvalKind::Concat, kTop);
            for (ValueId A : I.Args)
              if (A != NoValue)
                addOperand(Aux, valueCell(Caller, A));
            addOperand(DstCell, Aux);
          } else {
            addOperand(DstCell, BottomCell);
          }
        }
        break;
      case Intrinsic::GetMethod:
        // Constant method names open reflective entry into same-named
        // methods; their parameters are bound by Method.invoke, outside
        // our argument edges.
        if (I.Args.size() >= 2 && I.Args[1] != NoValue)
          watchName(valueCell(Caller, I.Args[1]));
        if (DstCell != InvalidId)
          addOperand(DstCell, BottomCell);
        break;
      case Intrinsic::ThreadStart:
        // start() dispatches to the receiver's run() with only the
        // receiver bound; poison run()'s parameters under the cone.
        if (!I.Args.empty()) {
          std::vector<MethodId> Runs;
          coneTargets(Cones[static_cast<size_t>(I.Args[0])], RunSym, Runs);
          for (MethodId R : Runs)
            if (P.Methods[R].hasBody())
              poisonParams(R);
        }
        break;
      default:
        // Every other model (sources, sinks, maps, collections, JNDI,
        // forName, invoke, getMessage, natives) yields runtime data.
        if (DstCell != InvalidId)
          addOperand(DstCell, BottomCell);
        break;
      }
    }
  }

  void addMethodEdges(const Method &M, bool Ipa) {
    if (Ipa)
      computeCones(M);
    for (const BasicBlock &BB : M.Blocks) {
      for (const Instruction &I : BB.Insts) {
        switch (I.Op) {
        case Opcode::ConstStr:
          lower(valueCell(M.Id, I.Dst), I.StrLit);
          break;
        case Opcode::Copy:
          if (I.Args[0] != NoValue)
            addOperand(valueCell(M.Id, I.Dst), valueCell(M.Id, I.Args[0]));
          break;
        case Opcode::Phi:
          if (!Ipa) {
            lower(valueCell(M.Id, I.Dst), kBottom);
            break;
          }
          for (ValueId A : I.Args)
            if (A != NoValue)
              addOperand(valueCell(M.Id, I.Dst), valueCell(M.Id, A));
          break;
        case Opcode::New:
          // A fresh string carrier holds the empty string; the carrier
          // model is functional (append returns the extended value), so
          // the allocation itself stays "".
          if (Ipa && P.cls(I.Cls).is(classflags::StringCarrier))
            lower(valueCell(M.Id, I.Dst), EmptySym);
          else if (I.Dst != NoValue)
            lower(valueCell(M.Id, I.Dst), kBottom);
          break;
        case Opcode::Load:
        case Opcode::StaticLoad:
          if (Ipa)
            addOperand(valueCell(M.Id, I.Dst), FieldCell[I.Field]);
          else
            lower(valueCell(M.Id, I.Dst), kBottom);
          break;
        case Opcode::Store:
          if (Ipa)
            addOperand(FieldCell[I.Field], valueCell(M.Id, I.Args[1]));
          break;
        case Opcode::StaticStore:
          if (Ipa)
            addOperand(FieldCell[I.Field], valueCell(M.Id, I.Args[0]));
          break;
        case Opcode::Return:
          if (Ipa && !I.Args.empty() && I.Args[0] != NoValue)
            addOperand(RetCell[M.Id], valueCell(M.Id, I.Args[0]));
          break;
        case Opcode::Call:
          if (Ipa)
            addCallEdges(M.Id, I);
          else if (I.Dst != NoValue)
            lower(valueCell(M.Id, I.Dst), kBottom);
          break;
        default:
          if (I.Dst != NoValue)
            lower(valueCell(M.Id, I.Dst), kBottom);
          break;
        }
      }
    }
  }

  bool guardOk() { return !Guard || Guard->checkpoint(); }

  const Program &P;
  const ClassHierarchy &CHA;
  RunGuard *Guard;

  std::vector<uint32_t> MethodBase;
  std::vector<Symbol> Val;
  std::vector<EvalKind> Kind;
  /// Edge log, (LogDst[I], LogSrc[I]) in construction order; frozen into
  /// the operand column (rows = Dst) and the dependent column (rows = Src).
  std::vector<uint32_t> LogDst, LogSrc;
  std::vector<uint32_t> OpOff, Ops, DepOff, Deps;
  std::vector<bool> NameWatch;
  std::vector<uint32_t> RetCell, FieldCell;
  uint32_t BottomCell = 0;
  std::vector<uint32_t> Worklist;
  std::vector<bool> InWl;
  uint64_t MeetsToBottom = 0, ConcatsFolded = 0;
  /// Scratch reused across methods and calls: the current method's value
  /// cones and the two call-target buffers (the cone pass and the edge
  /// pass each need their own).
  std::vector<ClassId> Cones;
  std::vector<MethodId> ResultTargets, CallTargets;

  ClassId Root = InvalidId, StringCls = InvalidId;
  Symbol EmptySym = 0, RunSym = 0;
};

bool ConstStringAnalysis::run(StringAnalysisMode Mode,
                              ConstStringResult &R) {
  const bool Ipa = Mode == StringAnalysisMode::Ipa;
  Root = rootClass();
  StringCls = P.findClass("String");
  EmptySym = intern("");
  RunSym = intern("run");

  // Value cells first, in (method, value) order, so the result can slice
  // them out by MethodBase directly.
  MethodBase.assign(1, 0);
  MethodBase.reserve(P.Methods.size() + 1);
  for (const Method &M : P.Methods)
    MethodBase.push_back(MethodBase.back() + M.NumValues);
  uint32_t NumVals = MethodBase.back();
  Val.assign(NumVals, kTop);
  Kind.assign(NumVals, EvalKind::Meet);
  NameWatch.assign(NumVals, false);
  RetCell.reserve(P.Methods.size());
  for (size_t I = 0; I < P.Methods.size(); ++I)
    RetCell.push_back(newCell(EvalKind::Meet, kTop));
  FieldCell.reserve(P.Fields.size());
  for (size_t I = 0; I < P.Fields.size(); ++I)
    FieldCell.push_back(newCell(EvalKind::Meet, kTop));
  BottomCell = newCell(EvalKind::Leaf, kBottom);

  // Edge construction (one guard unit per method: the type-cone sweeps
  // dominate this stage's cost).
  for (const Method &M : P.Methods) {
    if (!M.hasBody())
      continue;
    if (Ipa && !guardOk())
      return false;
    addMethodEdges(M, Ipa);
  }

  // Freeze the edge log. The sorts are stable, so every row keeps log
  // order: concatenations fold their operands in argument order.
  const size_t NumCells = Val.size();
  csrFromLog(LogDst, LogSrc, NumCells, OpOff, Ops);
  csrFromLog(LogSrc, LogDst, NumCells, DepOff, Deps);

  // Propagate to fixpoint, seeded with every cell that has operands.
  InWl.assign(NumCells, false);
  for (uint32_t C = 0; C < NumCells; ++C)
    if (Kind[C] != EvalKind::Leaf && OpOff[C] != OpOff[C + 1])
      enqueue(C);
  while (!Worklist.empty()) {
    if (Ipa && !guardOk())
      return false;
    uint32_t C = Worklist.back();
    Worklist.pop_back();
    InWl[C] = false;
    eval(C);
  }

  // Publish.
  R.MethodBase = std::move(MethodBase);
  R.Values.assign(Val.begin(), Val.begin() + NumVals);
  uint64_t NumConst = 0;
  for (Symbol S : R.Values)
    NumConst += S < kTop;
  R.Counters.add("conststr.values", NumVals);
  R.Counters.add("conststr.values_const", NumConst);
  R.Counters.add("conststr.meets_to_bottom", MeetsToBottom);
  R.Counters.add("conststr.concats_folded", ConcatsFolded);
  return true;
}

ConstStringResult analyzeConstStrings(const Program &P,
                                      const ClassHierarchy &CHA,
                                      const ConstStringOptions &Opts) {
  const uint32_t PoolBase = static_cast<uint32_t>(P.Pool.size());
  const uint64_t Work0 = Opts.Guard ? Opts.Guard->checkpointCount() : 0;
  ConstStringResult R;
  R.Mode = Opts.Mode;
  if (Opts.Mode != StringAnalysisMode::Off &&
      !ConstStringAnalysis(P, CHA, Opts.Guard).run(Opts.Mode, R)) {
    // Guard cutoff mid-fixpoint: an optimistic result stopped early may
    // claim constants a later meet would have refuted, so it must not be
    // used. Recompute the cheap, sound local-only answer (no further
    // guard polling: the guard is already latched stopped).
    R = ConstStringResult();
    R.Mode = Opts.Mode;
    R.Degraded = true;
    ConstStringAnalysis(P, CHA, nullptr).run(StringAnalysisMode::Local, R);
    R.Counters.add("conststr.guard_stop");
  }
  R.PoolBase = PoolBase;
  R.Work = Opts.Guard ? Opts.Guard->checkpointCount() - Work0 : 0;
  return R;
}

} // namespace taj
