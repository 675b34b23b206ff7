//===- ir/Verifier.cpp -----------------------------------------*- C++ -*-===//

#include "ir/Verifier.h"
#include "ssa/Dominators.h"

#include <algorithm>

using namespace taj;

void taj::verifyMethod(const Program &P, MethodId MId,
                       std::vector<std::string> &Errors) {
  const Method &M = P.Methods[MId];
  auto Err = [&](const std::string &S) {
    Errors.push_back(P.methodName(MId) + ": " + S);
  };
  if (!M.InSSA) {
    Err("not in SSA form");
    return;
  }
  int32_t N = static_cast<int32_t>(M.Blocks.size());
  if (N == 0) {
    Err("no blocks");
    return;
  }

  // CFG consistency.
  for (int32_t B = 0; B < N; ++B) {
    const BasicBlock &BB = M.Blocks[B];
    if (BB.Insts.empty()) {
      Err("empty block B" + std::to_string(B));
      continue;
    }
    if (!BB.Insts.back().isTerminator())
      Err("block B" + std::to_string(B) + " lacks a terminator");
    for (size_t I = 0; I + 1 < BB.Insts.size(); ++I)
      if (BB.Insts[I].isTerminator())
        Err("terminator in the middle of B" + std::to_string(B));
    for (int32_t S : BB.Succs) {
      if (S < 0 || S >= N) {
        Err("successor out of range in B" + std::to_string(B));
        continue;
      }
      const auto &Preds = M.Blocks[S].Preds;
      if (std::find(Preds.begin(), Preds.end(), B) == Preds.end())
        Err("missing back edge B" + std::to_string(S) + "<-B" +
            std::to_string(B));
    }
  }

  // Single definitions; defs/uses within range.
  std::vector<int> DefCount(M.NumValues, 0);
  for (uint32_t K = 0; K < M.NumParams; ++K)
    DefCount[K] = 1;
  std::vector<std::pair<int32_t, size_t>> DefSite(M.NumValues, {-1, 0});
  for (int32_t B = 0; B < N; ++B) {
    const BasicBlock &BB = M.Blocks[B];
    for (size_t I = 0; I < BB.Insts.size(); ++I) {
      const Instruction &Ins = BB.Insts[I];
      if (Ins.Dst != NoValue) {
        if (Ins.Dst < 0 || static_cast<uint32_t>(Ins.Dst) >= M.NumValues) {
          Err("def out of range");
          continue;
        }
        ++DefCount[Ins.Dst];
        DefSite[Ins.Dst] = {B, I};
      }
      if (Ins.Op == Opcode::Phi) {
        if (I > 0 && BB.Insts[I - 1].Op != Opcode::Phi)
          Err("phi not at block head in B" + std::to_string(B));
        if (Ins.Args.size() != BB.Preds.size())
          Err("phi arity mismatch in B" + std::to_string(B));
      }
      for (ValueId A : Ins.Args) {
        if (A == NoValue) {
          if (Ins.Op != Opcode::Phi)
            Err("undef operand outside phi");
          continue;
        }
        if (A < 0 || static_cast<uint32_t>(A) >= M.NumValues)
          Err("use out of range");
      }
    }
  }
  for (uint32_t V = 0; V < M.NumValues; ++V)
    if (DefCount[V] > 1)
      Err("value v" + std::to_string(V) + " has multiple definitions");

  // Dominance of uses by definitions.
  Dominators Dom(M);
  auto DefDominatesUse = [&](ValueId V, int32_t UseB, size_t UseI) {
    if (static_cast<uint32_t>(V) < M.NumParams)
      return true; // params defined at entry
    auto [DB, DI] = DefSite[V];
    if (DB == -1)
      return false; // no def at all
    if (DB == UseB)
      return DI < UseI;
    return Dom.dominates(DB, UseB);
  };
  for (int32_t B = 0; B < N; ++B) {
    if (!Dom.reachable(B))
      continue;
    const BasicBlock &BB = M.Blocks[B];
    for (size_t I = 0; I < BB.Insts.size(); ++I) {
      const Instruction &Ins = BB.Insts[I];
      if (Ins.Op == Opcode::Phi) {
        // Phi operand k must be defined at the end of predecessor k.
        for (size_t K = 0; K < Ins.Args.size(); ++K) {
          ValueId A = Ins.Args[K];
          if (A == NoValue || static_cast<uint32_t>(A) < M.NumParams)
            continue;
          int32_t PredB = BB.Preds[K];
          auto [DB, DI] = DefSite[A];
          (void)DI;
          if (DB == -1 || !Dom.dominates(DB, PredB))
            Err("phi operand v" + std::to_string(A) +
                " does not dominate predecessor edge in B" +
                std::to_string(B));
        }
        continue;
      }
      for (ValueId A : Ins.Args) {
        if (A == NoValue)
          continue;
        if (!DefDominatesUse(A, B, I))
          Err("use of v" + std::to_string(A) + " in B" + std::to_string(B) +
              " not dominated by its definition");
      }
    }
  }
}

/// Table-reference validity: every class/field/method cross-reference in
/// the tables and in instruction operands names a live table entry. These
/// checks catch structurally stale programs (e.g. a cache restore whose
/// payload mutated under an intact checksum) that the per-method SSA
/// checks cannot see.
static void verifyTables(const Program &P, std::vector<std::string> &Errors) {
  const uint32_t NumClasses = static_cast<uint32_t>(P.Classes.size());
  const uint32_t NumFields = static_cast<uint32_t>(P.Fields.size());
  const uint32_t NumMethods = static_cast<uint32_t>(P.Methods.size());
  for (ClassId C = 0; C < NumClasses; ++C) {
    const Class &Cls = P.Classes[C];
    if (Cls.Id != C)
      Errors.push_back("class table entry " + std::to_string(C) +
                       " carries id " + std::to_string(Cls.Id));
    if (Cls.Super != InvalidId && Cls.Super >= NumClasses)
      Errors.push_back("class " + std::to_string(C) +
                       " has an out-of-range superclass");
    for (FieldId F : Cls.Fields)
      if (F >= NumFields || P.Fields[F].Owner != C)
        Errors.push_back("class " + std::to_string(C) +
                         " lists a field it does not own");
    for (MethodId M : Cls.Methods)
      if (M >= NumMethods || P.Methods[M].Owner != C)
        Errors.push_back("class " + std::to_string(C) +
                         " lists a method it does not own");
  }
  // The class hierarchy and every dispatch walk the superclass chain up
  // to the root; a cycle would never get there.
  if (ClassId C = findSuperclassCycle(P); C != InvalidId)
    Errors.push_back("class " + std::string(P.Pool.str(P.Classes[C].Name)) +
                     " has a cyclic superclass chain");
  for (MethodId M = 0; M < NumMethods; ++M) {
    const Method &Mth = P.Methods[M];
    if (Mth.Owner >= NumClasses) {
      Errors.push_back(P.methodName(M) + ": owner class out of range");
      continue;
    }
    for (const BasicBlock &BB : Mth.Blocks) {
      for (const Instruction &I : BB.Insts) {
        const bool UsesField = I.Op == Opcode::Load || I.Op == Opcode::Store ||
                               I.Op == Opcode::StaticLoad ||
                               I.Op == Opcode::StaticStore;
        if (UsesField && I.Field >= NumFields)
          Errors.push_back(P.methodName(M) +
                           ": instruction references field id out of range");
        const bool UsesClass = I.Op == Opcode::New ||
                               I.Op == Opcode::NewArray ||
                               (I.Op == Opcode::Call &&
                                I.CKind != CallKind::Virtual);
        if (UsesClass && I.Cls != InvalidId && I.Cls >= NumClasses)
          Errors.push_back(P.methodName(M) +
                           ": instruction references class id out of range");
      }
    }
  }
}

ClassId taj::findSuperclassCycle(const Program &P) {
  const size_t N = P.Classes.size();
  // 0 = not seen, 1 = on the walk in progress, 2 = its chain ends.
  std::vector<uint8_t> State(N, 0);
  for (ClassId C = 0; C < N; ++C) {
    ClassId A = C;
    for (; A < N && State[A] == 0; A = P.Classes[A].Super)
      State[A] = 1;
    if (A < N && State[A] == 1)
      return A;
    for (ClassId B = C; B != A; B = P.Classes[B].Super)
      State[B] = 2;
  }
  return InvalidId;
}

std::vector<std::string> taj::verifyProgram(const Program &P) {
  std::vector<std::string> Errors;
  verifyTables(P, Errors);
  for (MethodId M = 0; M < P.Methods.size(); ++M)
    if (P.Methods[M].hasBody())
      verifyMethod(P, M, Errors);
  return Errors;
}
