//===- persist/Serialize.cpp - Artifact encoding/restoration ---*- C++ -*-===//

#include "persist/Serialize.h"

#include "dataflow/ConstString.h"
#include "ir/Verifier.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <unordered_set>

using namespace taj;
using namespace taj::persist;

uint64_t persist::fnv1a(const void *Data, size_t N, uint64_t Seed) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t H = Seed;
  for (size_t K = 0; K < N; ++K) {
    H ^= P[K];
    H *= 0x100000001b3ull;
  }
  return H;
}

namespace {

// xxHash64's primes.
constexpr uint64_t P1 = 0x9e3779b185ebca87ull;
constexpr uint64_t P2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t P3 = 0x165667b19e3779f9ull;
constexpr uint64_t P4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t P5 = 0x27d4eb2f165667c5ull;

/// The little-endian 64-bit word at \p P: one unaligned load where the
/// host is little-endian, so the digest is host-independent.
uint64_t loadLE64(const uint8_t *P) {
  uint64_t W = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&W, P, 8);
  } else {
    for (int B = 0; B < 8; ++B)
      W |= static_cast<uint64_t>(P[B]) << (8 * B);
  }
  return W;
}

/// xxHash64's lane round: a bijection in Acc for each W and in W for
/// each Acc.
uint64_t laneRound(uint64_t Acc, uint64_t W) {
  return std::rotl(Acc + W * P2, 31) * P1;
}

} // namespace

uint64_t persist::recordChecksum(const void *Data, size_t N) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  // Four independent lanes, one word of each 32-byte stripe apiece, so
  // the multiplies of neighbouring words overlap instead of forming one
  // serial chain.
  uint64_t L0 = P1 + P2, L1 = P2, L2 = 0, L3 = 0 - P1;
  size_t K = 0;
  for (; K + 32 <= N; K += 32) {
    L0 = laneRound(L0, loadLE64(P + K));
    L1 = laneRound(L1, loadLE64(P + K + 8));
    L2 = laneRound(L2, loadLE64(P + K + 16));
    L3 = laneRound(L3, loadLE64(P + K + 24));
  }
  // Every step from here on is a bijection in the running state, and the
  // merge in each lane, so a change confined to one word always changes
  // the digest.
  uint64_t H = std::rotl(L0, 1) + std::rotl(L1, 7) + std::rotl(L2, 12) +
               std::rotl(L3, 18);
  H += N;
  for (; K + 8 <= N; K += 8)
    H = std::rotl(H ^ laneRound(0, loadLE64(P + K)), 27) * P1 + P4;
  for (; K < N; ++K)
    H = std::rotl(H ^ (static_cast<uint64_t>(P[K]) * P5), 11) * P1;
  H ^= H >> 33;
  H *= P2;
  H ^= H >> 29;
  H *= P3;
  H ^= H >> 32;
  return H;
}

std::vector<uint8_t> persist::wrapRecord(ArtifactKind Kind,
                                         const std::vector<uint8_t> &Payload) {
  Writer H;
  H.u32(RecordMagic);
  H.u32(FormatVersion);
  H.u32(static_cast<uint32_t>(Kind));
  H.u32(0); // reserved
  H.u64(Payload.size());
  H.u64(recordChecksum(Payload.data(), Payload.size()));
  std::vector<uint8_t> Out = H.bytes();
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

UnwrapStatus persist::unwrapRecord(const uint8_t *Record, size_t Len,
                                   ArtifactKind Expect, const uint8_t *&Payload,
                                   size_t &PayloadLen, std::string &Err) {
  constexpr size_t HeaderLen = 4 * 4 + 2 * 8;
  if (Len < HeaderLen) {
    Err = "record shorter than header";
    return UnwrapStatus::Corrupt;
  }
  Reader R(Record, Len);
  uint32_t Magic = R.u32();
  uint32_t Version = R.u32();
  uint32_t Kind = R.u32();
  R.u32(); // reserved
  uint64_t Size = R.u64();
  uint64_t Sum = R.u64();
  if (Magic != RecordMagic) {
    Err = "bad magic";
    return UnwrapStatus::Corrupt;
  }
  if (Version != FormatVersion) {
    // A well-formed record from another format generation: not damage,
    // just unusable — the cache reports it as a version miss.
    Err = "format version " + std::to_string(Version) + " (expected " +
          std::to_string(FormatVersion) + ")";
    return UnwrapStatus::VersionMismatch;
  }
  if (Kind != static_cast<uint32_t>(Expect)) {
    Err = "artifact kind " + std::to_string(Kind) + " (expected " +
          std::to_string(static_cast<uint32_t>(Expect)) + ")";
    return UnwrapStatus::Corrupt;
  }
  if (Size != Len - HeaderLen) {
    Err = "payload size mismatch";
    return UnwrapStatus::Corrupt;
  }
  if (recordChecksum(Record + HeaderLen, Size) != Sum) {
    Err = "checksum mismatch";
    return UnwrapStatus::Corrupt;
  }
  Payload = Record + HeaderLen;
  PayloadLen = Size;
  return UnwrapStatus::Ok;
}

//===----------------------------------------------------------------------===//
// Small encoding helpers
//===----------------------------------------------------------------------===//

namespace {

void putU32Vec(Writer &W, const std::vector<uint32_t> &V) {
  W.u32(static_cast<uint32_t>(V.size()));
  W.u32Array(V.data(), V.size());
}

void putI32Vec(Writer &W, const std::vector<int32_t> &V) {
  W.u32(static_cast<uint32_t>(V.size()));
  // Signed/unsigned variants share a representation; bytes are identical.
  W.u32Array(reinterpret_cast<const uint32_t *>(V.data()), V.size());
}

bool getU32Vec(Reader &R, std::vector<uint32_t> &V) {
  uint32_t N = R.count(4);
  V.resize(N);
  return R.u32Array(V.data(), N) && !R.failed();
}

bool getI32Vec(Reader &R, std::vector<int32_t> &V) {
  uint32_t N = R.count(4);
  V.resize(N);
  return R.u32Array(reinterpret_cast<uint32_t *>(V.data()), N) && !R.failed();
}

/// True when every element of \p V is < \p Bound (InvalidId allowed when
/// \p AllowInvalid).
bool allBelow(const std::vector<uint32_t> &V, size_t Bound,
              bool AllowInvalid = false) {
  for (uint32_t X : V)
    if (X >= Bound && !(AllowInvalid && X == InvalidId))
      return false;
  return true;
}

void putType(Writer &W, const Type &T) {
  W.u8(static_cast<uint8_t>(T.Kind));
  W.u32(T.Cls);
}

bool getType(Reader &R, Type &T, size_t NumClasses) {
  uint8_t K = R.u8();
  T.Cls = R.u32();
  if (R.failed() || K > static_cast<uint8_t>(TypeKind::Array))
    return false;
  T.Kind = static_cast<TypeKind>(K);
  if (T.isRefLike() && T.Cls >= NumClasses)
    return false;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

namespace {

void putInstruction(Writer &W, const Instruction &I) {
  W.u8(static_cast<uint8_t>(I.Op));
  W.u8(static_cast<uint8_t>(I.CKind));
  W.i32(I.Dst);
  putI32Vec(W, I.Args);
  W.u32(I.Field);
  W.u32(I.Cls);
  W.u32(I.StrLit);
  W.i64(I.IntLit);
  W.u32(I.CalleeName);
  W.i32(I.Target);
  W.i32(I.Target2);
  W.u32(I.Line);
}

bool getInstruction(Reader &R, Instruction &I, size_t NumSyms) {
  uint8_t Op = R.u8();
  uint8_t CK = R.u8();
  if (Op > static_cast<uint8_t>(Opcode::Throw) ||
      CK > static_cast<uint8_t>(CallKind::Special))
    return false;
  I.Op = static_cast<Opcode>(Op);
  I.CKind = static_cast<CallKind>(CK);
  I.Dst = R.i32();
  if (!getI32Vec(R, I.Args))
    return false;
  I.Field = R.u32();
  I.Cls = R.u32();
  I.StrLit = R.u32();
  I.IntLit = R.i64();
  I.CalleeName = R.u32();
  I.Target = R.i32();
  I.Target2 = R.i32();
  I.Line = R.u32();
  if (I.StrLit >= NumSyms || I.CalleeName >= NumSyms)
    return false;
  return !R.failed();
}

} // namespace

void Access::serializeProgram(const Program &P, Writer &W) {
  // String pool, in symbol order (symbol 0, the empty string, is implicit
  // in every fresh pool and skipped).
  W.u32(static_cast<uint32_t>(P.Pool.size()));
  for (Symbol S = 1; S < P.Pool.size(); ++S)
    W.str(P.Pool.str(S));

  W.u32(static_cast<uint32_t>(P.Fields.size()));
  for (const Field &F : P.Fields) {
    W.u32(F.Name);
    W.u32(F.Owner);
    putType(W, F.Ty);
    W.u8(F.IsStatic);
  }

  W.u32(static_cast<uint32_t>(P.Classes.size()));
  for (const Class &C : P.Classes) {
    W.u32(C.Name);
    W.u32(C.Id);
    W.u32(C.Super);
    W.u32(C.Flags);
    putU32Vec(W, C.Fields);
    putU32Vec(W, C.Methods);
  }

  W.u32(static_cast<uint32_t>(P.Methods.size()));
  for (const Method &M : P.Methods) {
    W.u32(M.Name);
    W.u32(M.Owner);
    W.u32(M.Id);
    W.u32(static_cast<uint32_t>(M.ParamTypes.size()));
    for (const Type &T : M.ParamTypes)
      putType(W, T);
    putType(W, M.RetType);
    uint8_t Flags = (M.IsStatic ? 1 : 0) | (M.InSSA ? 2 : 0) |
                    (M.IsEntry ? 4 : 0) | (M.IsFactory ? 8 : 0);
    W.u8(Flags);
    W.u8(M.SourceRules);
    W.u8(M.SanitizerRules);
    W.u8(M.SinkRules);
    W.u32(M.SinkParamMask);
    W.u8(static_cast<uint8_t>(M.Intr));
    W.u32(M.NumParams);
    W.u32(M.NumValues);
    W.u32(static_cast<uint32_t>(M.Blocks.size()));
    for (const BasicBlock &B : M.Blocks) {
      W.u32(static_cast<uint32_t>(B.Insts.size()));
      for (const Instruction &I : B.Insts)
        putInstruction(W, I);
      putI32Vec(W, B.Succs);
      putI32Vec(W, B.Preds);
    }
  }
}

bool Access::restoreProgram(Program &P, Reader &R) {
  if (P.Pool.size() != 1 || !P.Classes.empty() || !P.Methods.empty() ||
      !P.Fields.empty())
    return false; // caller must hand us a pristine program

  uint32_t NumSyms = R.count(1);
  if (R.failed() || NumSyms == 0)
    return false;
  for (Symbol S = 1; S < NumSyms; ++S) {
    std::string Str = R.str();
    if (R.failed() || P.Pool.intern(Str) != S)
      return false; // duplicate or out-of-order string
  }

  uint32_t NumFields = R.count(14);
  P.Fields.resize(NumFields);
  for (Field &F : P.Fields) {
    F.Name = R.u32();
    F.Owner = R.u32();
    // The class count is not known yet; ref bounds are checked below.
    if (!getType(R, F.Ty, static_cast<size_t>(InvalidId) + 1))
      return false;
    F.IsStatic = R.u8() != 0;
    if (F.Name >= NumSyms)
      return false;
  }

  uint32_t NumClasses = R.count(24);
  P.Classes.resize(NumClasses);
  for (uint32_t K = 0; K < NumClasses; ++K) {
    Class &C = P.Classes[K];
    C.Name = R.u32();
    C.Id = R.u32();
    C.Super = R.u32();
    C.Flags = R.u32();
    if (!getU32Vec(R, C.Fields) || !getU32Vec(R, C.Methods))
      return false;
    if (C.Name >= NumSyms || C.Id != K ||
        (C.Super != InvalidId && C.Super >= NumClasses) ||
        !allBelow(C.Fields, NumFields))
      return false;
  }
  if (findSuperclassCycle(P) != InvalidId)
    return false; // the class hierarchy would never reach the root
  for (Field &F : P.Fields)
    if (F.Owner >= NumClasses ||
        (F.Ty.isRefLike() && F.Ty.Cls >= NumClasses))
      return false;

  uint32_t NumMethods = R.count(40);
  P.Methods.resize(NumMethods);
  for (uint32_t K = 0; K < NumMethods; ++K) {
    Method &M = P.Methods[K];
    M.Name = R.u32();
    M.Owner = R.u32();
    M.Id = R.u32();
    uint32_t NumParams = R.count(5);
    M.ParamTypes.resize(NumParams);
    for (Type &T : M.ParamTypes)
      if (!getType(R, T, NumClasses))
        return false;
    if (!getType(R, M.RetType, NumClasses))
      return false;
    uint8_t Flags = R.u8();
    M.IsStatic = Flags & 1;
    M.InSSA = Flags & 2;
    M.IsEntry = Flags & 4;
    M.IsFactory = Flags & 8;
    M.SourceRules = R.u8();
    M.SanitizerRules = R.u8();
    M.SinkRules = R.u8();
    M.SinkParamMask = R.u32();
    uint8_t Intr = R.u8();
    if (Intr > static_cast<uint8_t>(Intrinsic::GetMessage))
      return false;
    M.Intr = static_cast<Intrinsic>(Intr);
    M.NumParams = R.u32();
    M.NumValues = R.u32();
    uint32_t NumBlocks = R.count(12);
    M.Blocks.resize(NumBlocks);
    for (BasicBlock &B : M.Blocks) {
      uint32_t NumInsts = R.count(46);
      B.Insts.resize(NumInsts);
      for (Instruction &I : B.Insts)
        if (!getInstruction(R, I, NumSyms))
          return false;
      if (!getI32Vec(R, B.Succs) || !getI32Vec(R, B.Preds))
        return false;
      for (int32_t Succ : B.Succs)
        if (Succ < 0 || static_cast<uint32_t>(Succ) >= NumBlocks)
          return false;
    }
    if (M.Name >= NumSyms || M.Owner >= NumClasses || M.Id != K ||
        (Flags & ~0xfu) != 0)
      return false;
  }
  for (const Class &C : P.Classes)
    if (!allBelow(C.Methods, NumMethods))
      return false;

  if (R.failed() || !R.atEnd())
    return false;
  P.indexStatements();
  return true;
}

//===----------------------------------------------------------------------===//
// Points-to solution
//===----------------------------------------------------------------------===//

namespace {

// Column codecs over row structs: a table is written field by field, one
// column per field, so a restore reads each column as one bounds-checked
// block and scatters it into the rows in a single pass.

template <typename Row, typename T>
void putU32Field(Writer &W, const std::vector<Row> &Rows, T Row::*Field,
                 size_t From = 0) {
  std::vector<uint32_t> Col;
  Col.reserve(Rows.size() - From);
  for (size_t I = From; I < Rows.size(); ++I)
    Col.push_back(static_cast<uint32_t>(Rows[I].*Field));
  W.u32Array(Col.data(), Col.size());
}

template <typename Row, typename T>
void putU8Field(Writer &W, const std::vector<Row> &Rows, T Row::*Field,
                size_t From = 0) {
  std::vector<uint8_t> Col;
  Col.reserve(Rows.size() - From);
  for (size_t I = From; I < Rows.size(); ++I)
    Col.push_back(static_cast<uint8_t>(Rows[I].*Field));
  W.raw(Col.data(), Col.size());
}

uint32_t loadU32(const uint8_t *B) {
  return static_cast<uint32_t>(B[0]) | static_cast<uint32_t>(B[1]) << 8 |
         static_cast<uint32_t>(B[2]) << 16 | static_cast<uint32_t>(B[3]) << 24;
}

/// Reads a column of little-endian u32 values into \p Field of every row
/// of \p Rows from \p From on.
template <typename Row, typename T>
bool getU32Field(Reader &R, std::vector<Row> &Rows, T Row::*Field,
                 size_t From = 0) {
  const uint8_t *B = R.block((Rows.size() - From) * 4);
  if (!B)
    return false;
  for (size_t I = From; I < Rows.size(); ++I, B += 4)
    Rows[I].*Field = static_cast<T>(loadU32(B));
  return true;
}

/// Reads a column of u8 values, each at most \p Max, into \p Field of
/// every row of \p Rows from \p From on.
template <typename Row, typename T>
bool getU8Field(Reader &R, std::vector<Row> &Rows, T Row::*Field, uint8_t Max,
                size_t From = 0) {
  const uint8_t *B = R.block(Rows.size() - From);
  if (!B)
    return false;
  for (size_t I = From; I < Rows.size(); ++I, ++B) {
    if (*B > Max)
      return false;
    Rows[I].*Field = static_cast<T>(*B);
  }
  return true;
}

/// True when \p Base is a CSR offset column over \p Size elements: it
/// starts at 0, never decreases and ends at \p Size.
bool validOffsets(const std::vector<uint32_t> &Base, size_t Size) {
  if (Base.empty() || Base.front() != 0 || Base.back() != Size)
    return false;
  for (size_t I = 1; I < Base.size(); ++I)
    if (Base[I] < Base[I - 1])
      return false;
  return true;
}

} // namespace

void Access::serializeSolver(const PointsToSolver &S, Writer &W) {
  // The pointer-analysis phase ahead of its solution: the string-pool
  // symbols it interned, its string-constant facts and its guard work.
  const uint32_t PoolEnd = std::max(S.PoolBase, S.PoolEnd);
  W.u32(S.PoolBase);
  W.u32(PoolEnd - S.PoolBase);
  for (Symbol Sym = S.PoolBase; Sym < PoolEnd; ++Sym)
    W.str(S.P.Pool.str(Sym));
  const ConstStringResult &CS = S.constStrings();
  W.u8(static_cast<uint8_t>(CS.Mode));
  W.u8(CS.Degraded);
  putU32Vec(W, CS.MethodBase);
  putU32Vec(W, CS.Values);
  W.str(CS.Counters.toJson());
  W.u64(S.PhaseWork);

  // Contexts, in id order; id 0, the implicit Everywhere, is not written.
  const ContextTable &Ctxs = S.Ctxs;
  W.u32(static_cast<uint32_t>(Ctxs.size()));
  putU8Field(W, Ctxs.Contexts, &ContextData::Kind, 1);
  putU32Field(W, Ctxs.Contexts, &ContextData::Data, 1);
  W.u32Array(Ctxs.Depths.data() + 1, Ctxs.size() - 1);

  const std::vector<InstanceKeyData> &IKs = S.IKs.Keys;
  W.u32(static_cast<uint32_t>(IKs.size()));
  putU8Field(W, IKs, &InstanceKeyData::Kind);
  putU32Field(W, IKs, &InstanceKeyData::Site);
  putU32Field(W, IKs, &InstanceKeyData::Heap);
  putU32Field(W, IKs, &InstanceKeyData::Cls);
  putU32Field(W, IKs, &InstanceKeyData::Extra);

  // Call graph: nodes, the out-edge CSR as a per-node edge count column
  // and its site and callee columns, and the frozen per-site callee CSR,
  // whose per-site order is edge insertion order and cannot be rebuilt
  // from the out-edges.
  const CallGraph &CG = S.CG;
  W.u32(static_cast<uint32_t>(CG.Nodes.size()));
  putU32Field(W, CG.Nodes, &CGNode::M);
  putU32Field(W, CG.Nodes, &CGNode::Ctx);
  putU8Field(W, CG.Nodes, &CGNode::ConstraintsAdded);
  {
    std::vector<uint32_t> Counts(CG.Nodes.size());
    for (CGNodeId N = 0; N < Counts.size(); ++N)
      Counts[N] = static_cast<uint32_t>(CG.edges(N).size());
    W.u32Array(Counts.data(), Counts.size());
  }
  putU32Field(W, CG.OutEdges, &CGEdge::Site);
  putU32Field(W, CG.OutEdges, &CGEdge::Callee);
  putU32Vec(W, CG.SiteBase);
  putU32Vec(W, CG.SiteCallees);

  const std::vector<PointerKeyData> &PKs = S.PKs.Keys;
  W.u32(static_cast<uint32_t>(PKs.size()));
  putU8Field(W, PKs, &PointerKeyData::Kind);
  putU32Field(W, PKs, &PointerKeyData::A);
  putU32Field(W, PKs, &PointerKeyData::B);

  // The frozen points-to column, as it is.
  const PointsToColumn &Pts = S.Frozen;
  W.u32(Pts.numKeys());
  W.u32Array(Pts.Offsets.data(), Pts.Offsets.size());
  W.u32Array(Pts.Idx.data(), Pts.Idx.size());
  W.u64Array(Pts.Words.data(), Pts.Words.size());

  putU32Vec(W, S.IntrSites);
  putU32Vec(W, S.IntrCallees);
  W.u8(S.BudgetHit);
}

bool Access::restoreSolver(PointsToSolver &S, Reader &R) {
  if (S.Solved || S.IKs.size() != 0 || S.PKs.size() != 0 ||
      S.CG.numNodes() != 0)
    return false; // must be a freshly constructed solver

  const size_t NumStmts = S.P.numStmts();
  const size_t NumMethods = S.P.Methods.size();
  const size_t NumClasses = S.P.Classes.size();

  // The phase's pool symbols. Re-interned in order, each must land on its
  // recorded id, which holds only against the pool the storing run began
  // from. Checked here but interned only once the whole record validates,
  // so a rejected restore leaves the pool untouched.
  StringPool &Pool = const_cast<Program &>(S.P).Pool;
  const uint32_t PoolBase = R.u32();
  const uint32_t NumSyms = R.count(4);
  if (R.failed() || PoolBase > Pool.size())
    return false;
  std::vector<std::string> Syms(NumSyms);
  std::unordered_set<std::string_view> Fresh;
  for (uint32_t I = 0; I < NumSyms; ++I) {
    Syms[I] = R.str();
    const uint64_t Id = uint64_t(PoolBase) + I;
    bool Lands;
    if (Id < Pool.size())
      Lands = Pool.str(static_cast<Symbol>(Id)) == Syms[I];
    else
      Lands = Pool.lookup(Syms[I]) == ~0u && Fresh.insert(Syms[I]).second;
    if (R.failed() || !Lands)
      return false;
  }
  const uint64_t PoolEnd =
      std::max<uint64_t>(Pool.size(), uint64_t(PoolBase) + NumSyms);

  // String-constant facts. valueOf() slices Values by MethodBase, so the
  // offsets must start at 0, never decrease and end at Values.size(); a
  // value is a symbol or a lattice sentinel.
  auto CS = std::make_unique<ConstStringResult>();
  const uint8_t Mode = R.u8();
  if (Mode > static_cast<uint8_t>(StringAnalysisMode::Ipa))
    return false;
  CS->Mode = static_cast<StringAnalysisMode>(Mode);
  CS->Degraded = R.u8() != 0;
  CS->PoolBase = PoolBase;
  if (!getU32Vec(R, CS->MethodBase) || !getU32Vec(R, CS->Values) ||
      CS->MethodBase.size() > NumMethods + 1 ||
      !validOffsets(CS->MethodBase, CS->Values.size()))
    return false;
  for (Symbol V : CS->Values)
    if (V >= PoolEnd && V < ConstStringResult::Top)
      return false;
  if (!CS->Counters.mergeJson(R.str()))
    return false;
  const uint64_t PhaseWork = R.u64();

  // Contexts: a call-site context names a statement at depth 1, a
  // receiver context an instance key (checked once the keys are in) at
  // depth >= 1.
  ContextTable &Ctxs = S.Ctxs;
  const uint32_t NumCtxs = R.count(9);
  if (R.failed() || NumCtxs == 0)
    return false;
  Ctxs.Contexts.resize(NumCtxs);
  Ctxs.Depths.resize(NumCtxs);
  if (!getU8Field(R, Ctxs.Contexts, &ContextData::Kind,
                  static_cast<uint8_t>(ContextKind::Receiver), 1) ||
      !getU32Field(R, Ctxs.Contexts, &ContextData::Data, 1) ||
      !R.u32Array(Ctxs.Depths.data() + 1, NumCtxs - 1))
    return false;
  for (CtxId C = 1; C < NumCtxs; ++C) {
    const ContextData &D = Ctxs.Contexts[C];
    const uint32_t Depth = Ctxs.Depths[C];
    if (D.Kind == ContextKind::CallSite) {
      if (Depth != 1 || D.Data >= NumStmts)
        return false;
    } else if (D.Kind != ContextKind::Receiver || Depth == 0) {
      return false;
    }
  }
  if (!Ctxs.reindex())
    return false; // a context appears twice

  std::vector<InstanceKeyData> &IKs = S.IKs.Keys;
  const uint32_t NumIKs = R.count(17);
  IKs.resize(NumIKs);
  if (!getU8Field(R, IKs, &InstanceKeyData::Kind,
                  static_cast<uint8_t>(IKKind::Singleton)) ||
      !getU32Field(R, IKs, &InstanceKeyData::Site) ||
      !getU32Field(R, IKs, &InstanceKeyData::Heap) ||
      !getU32Field(R, IKs, &InstanceKeyData::Cls) ||
      !getU32Field(R, IKs, &InstanceKeyData::Extra))
    return false;
  for (const InstanceKeyData &D : IKs)
    if (D.Site >= NumStmts || D.Heap >= NumCtxs ||
        (D.Cls != InvalidId && D.Cls >= NumClasses))
      return false;
  if (!S.IKs.reindex())
    return false; // an instance key appears twice
  for (CtxId C = 1; C < NumCtxs; ++C)
    if (Ctxs.Contexts[C].Kind == ContextKind::Receiver &&
        Ctxs.Contexts[C].Data >= NumIKs)
      return false;

  // Call graph. Reindexing rejects a repeated (method, context) pair; the
  // per-method index is rebuilt in one pass, in node id order.
  CallGraph &CG = S.CG;
  const uint32_t NumNodes = R.count(9);
  CG.Nodes.resize(NumNodes);
  if (!getU32Field(R, CG.Nodes, &CGNode::M) ||
      !getU32Field(R, CG.Nodes, &CGNode::Ctx) ||
      !getU8Field(R, CG.Nodes, &CGNode::ConstraintsAdded, 1))
    return false;
  for (const CGNode &Node : CG.Nodes) {
    if (Node.M >= NumMethods || Node.Ctx >= NumCtxs)
      return false;
    CG.Processed += Node.ConstraintsAdded;
  }
  if (!CG.reindex())
    return false;
  CG.indexByMethod(static_cast<uint32_t>(NumMethods));
  {
    // The out-edge counts must fit the payload (8 bytes an edge) before
    // the edge columns are allocated.
    const uint8_t *Counts = R.block(size_t(NumNodes) * 4);
    if (!Counts)
      return false;
    uint64_t Total = 0;
    for (CGNodeId N = 0; N < NumNodes; ++N)
      Total += loadU32(Counts + 4 * N);
    if (Total * 8 > R.remaining())
      return false;
    CG.OutOff.resize(NumNodes + 1);
    CG.OutOff[0] = 0;
    for (CGNodeId N = 0; N < NumNodes; ++N)
      CG.OutOff[N + 1] = CG.OutOff[N] + loadU32(Counts + 4 * N);
    CG.OutEdges.resize(Total);
    if (!getU32Field(R, CG.OutEdges, &CGEdge::Site) ||
        !getU32Field(R, CG.OutEdges, &CGEdge::Callee))
      return false;
    for (const CGEdge &E : CG.OutEdges)
      if (E.Site >= NumStmts || E.Callee >= NumNodes)
        return false;
  }
  if (!getU32Vec(R, CG.SiteBase) || !getU32Vec(R, CG.SiteCallees) ||
      CG.SiteBase.size() != NumStmts + 1 ||
      !validOffsets(CG.SiteBase, CG.SiteCallees.size()) ||
      !allBelow(CG.SiteCallees, NumMethods))
    return false;

  // Pointer keys: each names in-range ids; reindexing opens each node's
  // key block from its method, files every Local and Ret key in its slot,
  // indexes the rest and rejects a repeated key.
  std::vector<PointerKeyData> &PKs = S.PKs.Keys;
  const uint32_t NumPKs = R.count(9);
  PKs.resize(NumPKs);
  if (!getU8Field(R, PKs, &PointerKeyData::Kind,
                  static_cast<uint8_t>(PKKind::Channel)) ||
      !getU32Field(R, PKs, &PointerKeyData::A) ||
      !getU32Field(R, PKs, &PointerKeyData::B))
    return false;
  for (const PointerKeyData &D : PKs) {
    bool Ok = false;
    switch (D.Kind) {
    case PKKind::Local:
      Ok = D.A < NumNodes;
      break;
    case PKKind::Ret:
      Ok = D.A < NumNodes && D.B == 0;
      break;
    case PKKind::Field:
    case PKKind::ArrayElem:
      Ok = D.A < NumIKs;
      break;
    case PKKind::Channel:
      Ok = D.A < NumIKs && D.B < PoolEnd;
      break;
    case PKKind::Static:
      Ok = D.A < S.P.Fields.size();
      break;
    }
    if (!Ok)
      return false;
  }
  if (!S.PKs.reindex(NumNodes, [&](CGNodeId N) {
        return S.P.Methods[CG.Nodes[N].M].NumValues;
      }))
    return false;

  // The frozen points-to column: offsets that start at 0 and never
  // decrease, then per key strictly ascending chunk indices, no zero word
  // and a largest member below the instance-key count.
  PointsToColumn &Pts = S.Frozen;
  const uint32_t NumKeys = R.count(4);
  if (R.failed() || NumKeys > NumPKs)
    return false;
  Pts.Offsets.resize(size_t(NumKeys) + 1);
  if (!R.u32Array(Pts.Offsets.data(), Pts.Offsets.size()))
    return false;
  const uint64_t NumChunks = Pts.Offsets.back();
  if (NumChunks * 12 > R.remaining() ||
      !validOffsets(Pts.Offsets, NumChunks))
    return false;
  Pts.Idx.resize(NumChunks);
  Pts.Words.resize(NumChunks);
  if (!R.u32Array(Pts.Idx.data(), NumChunks) ||
      !R.u64Array(Pts.Words.data(), NumChunks))
    return false;
  for (PKId K = 0; K < NumKeys; ++K) {
    const uint32_t B = Pts.Offsets[K], E = Pts.Offsets[K + 1];
    for (uint32_t I = B; I < E; ++I)
      if (Pts.Words[I] == 0 || (I > B && Pts.Idx[I] <= Pts.Idx[I - 1]))
        return false;
    if (E > B && (uint64_t(Pts.Idx[E - 1]) << 6) + 63 -
                         std::countl_zero(Pts.Words[E - 1]) >=
                     NumIKs)
      return false;
  }

  // Intrinsic targets: a (site, callee) column pair, sorted by site, that
  // intrinsicCalleesAt() searches.
  if (!getU32Vec(R, S.IntrSites) || !getU32Vec(R, S.IntrCallees) ||
      S.IntrSites.size() != S.IntrCallees.size() ||
      !std::is_sorted(S.IntrSites.begin(), S.IntrSites.end()) ||
      !allBelow(S.IntrSites, NumStmts) || !allBelow(S.IntrCallees, NumMethods))
    return false;

  S.BudgetHit = R.u8() != 0;
  if (R.failed() || !R.atEnd())
    return false;
  for (size_t I = Pool.size() - PoolBase; I < NumSyms; ++I)
    Pool.intern(Syms[I]);
  if (!S.Opts.ConstStrings)
    S.OwnedConstStr = std::move(CS);
  S.PoolBase = PoolBase;
  S.PoolEnd = PoolBase + NumSyms;
  S.PhaseWork = PhaseWork;
  S.Solved = true;
  return true;
}

//===----------------------------------------------------------------------===//
// SDG + heap edges
//===----------------------------------------------------------------------===//

namespace {

/// Reads an offset column of \p Rows + 1 entries into \p Off and checks it
/// (starts at 0, never decreases) before any element is allocated: the
/// elements, \p ElemBytes each, must fit the remaining payload. Sets
/// \p Total to the element count.
bool getOffsets(Reader &R, size_t Rows, size_t ElemBytes,
                std::vector<uint32_t> &Off, size_t &Total) {
  if (uint64_t(Rows + 1) * 4 > R.remaining()) {
    R.fail();
    return false;
  }
  Off.resize(Rows + 1);
  if (!R.u32Array(Off.data(), Off.size()))
    return false;
  Total = Off.back();
  return uint64_t(Total) * ElemBytes <= R.remaining() &&
         validOffsets(Off, Total);
}

/// Reads \p N node ids into \p V, each below \p NumNodes.
bool getNodeIds(Reader &R, size_t N, std::vector<SDGNodeId> &V,
                size_t NumNodes) {
  V.resize(N);
  return R.u32Array(V.data(), N) && allBelow(V, NumNodes);
}

} // namespace

// A CSR is written as it is: its offset column (rows + 1 entries), then
// each value column over its elements, whose count is the last offset.
void Access::serializeSdg(const SDG &G, const HeapEdges *HE, Writer &W) {
  W.u32(static_cast<uint32_t>(G.Owners.size()));
  putU32Field(W, G.Owners, &SDG::OwnerInfo::M);
  putU32Field(W, G.Owners, &SDG::OwnerInfo::CgNode);

  // Nodes as struct-of-arrays, one column per field.
  W.u32(G.numNodes());
  putU8Field(W, G.Nodes, &SDGNode::Kind);
  putU32Field(W, G.Nodes, &SDGNode::Owner);
  putU32Field(W, G.Nodes, &SDGNode::M);
  putU32Field(W, G.Nodes, &SDGNode::S);
  putU32Field(W, G.Nodes, &SDGNode::Index);
  putU8Field(W, G.Nodes, &SDGNode::Access);
  putU32Field(W, G.Nodes, &SDGNode::Aux);
  putU8Field(W, G.Nodes, &SDGNode::SourceMask);
  putU8Field(W, G.Nodes, &SDGNode::SinkMask);
  putU8Field(W, G.Nodes, &SDGNode::SanitizeMask);
  putU8Field(W, G.Nodes, &SDGNode::IsCall);

  // The CSR edges: offsets, then the target and kind columns.
  W.u32Array(G.SuccOff.data(), G.SuccOff.size());
  putU32Field(W, G.SuccEdges, &SDGEdge::To);
  putU8Field(W, G.SuccEdges, &SDGEdge::Kind);

  // Call sites, then their channel plumbing and the per-owner channel
  // signatures (both CS only; offsets over empty columns otherwise).
  W.u32(static_cast<uint32_t>(G.CallSites.size()));
  putU32Field(W, G.CallSites, &CallSiteInfo::StmtNode);
  putU32Field(W, G.CallSites, &CallSiteInfo::FirstActualIn);
  putU32Field(W, G.CallSites, &CallSiteInfo::NumActualIns);
  W.u32Array(G.ChanSiteOff.data(), G.ChanSiteOff.size());
  W.u64Array(G.ChanSiteSigs.data(), G.ChanSiteSigs.size());
  W.u32Array(G.ChanSiteOuts.data(), G.ChanSiteOuts.size());
  W.u32Array(G.OwnerChanOff.data(), G.OwnerChanOff.size());
  W.u64Array(G.OwnerChanSigs.data(), G.OwnerChanSigs.size());

  putU32Vec(W, G.Stores);
  putU32Vec(W, G.Loads);
  putU32Vec(W, G.Sinks);
  W.u8(G.ChanOOM);
  W.u64(G.ChanNodes);

  // The heap adjacency: two CSRs over the store list.
  W.u8(HE != nullptr);
  if (HE) {
    W.u32Array(HE->LoadOff.data(), HE->LoadOff.size());
    W.u32Array(HE->LoadEdges.data(), HE->LoadEdges.size());
    W.u32Array(HE->SinkOff.data(), HE->SinkOff.size());
    W.u32Array(HE->SinkEdges.data(), HE->SinkEdges.size());
  }
}

bool Access::restoreSdg(std::unique_ptr<SDG> &G, std::unique_ptr<HeapEdges> &HE,
                        const Program &P, const PointsToSolver &Solver,
                        const SDGOptions &Opts, Reader &R) {
  G.reset();
  HE.reset();
  std::unique_ptr<SDG> Out(new SDG(P, Solver, Opts, SDG::RestoreTag{}));
  const size_t NumStmts = P.numStmts();
  const size_t NumMethods = P.Methods.size();
  const size_t NumCgNodes = Solver.callGraph().numNodes();

  const uint32_t NumOwners = R.count(8);
  Out->Owners.resize(NumOwners);
  if (!getU32Field(R, Out->Owners, &SDG::OwnerInfo::M) ||
      !getU32Field(R, Out->Owners, &SDG::OwnerInfo::CgNode))
    return false;
  for (const SDG::OwnerInfo &O : Out->Owners)
    if (O.M >= NumMethods || (O.CgNode != InvalidId && O.CgNode >= NumCgNodes))
      return false;

  // The node table: its eleven columns are claimed up front, then each
  // node is decoded from all of them and range-checked in one pass.
  const uint32_t NumNodes = R.count(26);
  const uint8_t *Kind = R.block(NumNodes);
  const uint8_t *Owner = R.block(4 * size_t(NumNodes));
  const uint8_t *M = R.block(4 * size_t(NumNodes));
  const uint8_t *S = R.block(4 * size_t(NumNodes));
  const uint8_t *Index = R.block(4 * size_t(NumNodes));
  const uint8_t *Acc = R.block(NumNodes);
  const uint8_t *Aux = R.block(4 * size_t(NumNodes));
  const uint8_t *Source = R.block(NumNodes);
  const uint8_t *Sink = R.block(NumNodes);
  const uint8_t *Sanitize = R.block(NumNodes);
  const uint8_t *IsCall = R.block(NumNodes);
  if (R.failed())
    return false;
  std::vector<SDGNode> &Nodes = Out->Nodes;
  Nodes.reserve(NumNodes);
  for (size_t I = 0; I < NumNodes; ++I) {
    if (Kind[I] > static_cast<uint8_t>(SDGNodeKind::ChanActualOut) ||
        Acc[I] > static_cast<uint8_t>(HeapAccess::InvokeArgsRead) ||
        IsCall[I] > 1)
      return false;
    SDGNode N;
    N.Kind = static_cast<SDGNodeKind>(Kind[I]);
    N.Owner = loadU32(Owner + 4 * I);
    N.M = loadU32(M + 4 * I);
    N.S = loadU32(S + 4 * I);
    N.Index = loadU32(Index + 4 * I);
    N.Access = static_cast<HeapAccess>(Acc[I]);
    N.Aux = loadU32(Aux + 4 * I);
    N.SourceMask = Source[I];
    N.SinkMask = Sink[I];
    N.SanitizeMask = Sanitize[I];
    N.IsCall = IsCall[I] != 0;
    if (N.Owner >= NumOwners || N.S >= NumStmts ||
        (N.M != InvalidId && N.M >= NumMethods) ||
        (N.Aux != InvalidId && N.Aux >= NumNodes))
      return false;
    Nodes.push_back(N);
  }

  // The CSR edges: offsets, then the target and kind columns, decoded and
  // range-checked in one pass like the nodes.
  size_t NumEdges;
  if (!getOffsets(R, NumNodes, 5, Out->SuccOff, NumEdges))
    return false;
  const uint8_t *To = R.block(4 * NumEdges);
  const uint8_t *EdgeKind = R.block(NumEdges);
  if (R.failed())
    return false;
  Out->SuccEdges.reserve(NumEdges);
  for (size_t I = 0; I < NumEdges; ++I) {
    SDGEdge E;
    E.To = loadU32(To + 4 * I);
    if (E.To >= NumNodes ||
        EdgeKind[I] > static_cast<uint8_t>(SDGEdgeKind::ParamOut))
      return false;
    E.Kind = static_cast<SDGEdgeKind>(EdgeKind[I]);
    Out->SuccEdges.push_back(E);
  }

  // Call sites: each key an IsCall statement node, named once; each
  // actual-in range holds actual-ins of that call.
  const uint32_t NumSites = R.count(12);
  std::vector<CallSiteInfo> &Sites = Out->CallSites;
  Sites.resize(NumSites);
  if (!getU32Field(R, Sites, &CallSiteInfo::StmtNode) ||
      !getU32Field(R, Sites, &CallSiteInfo::FirstActualIn) ||
      !getU32Field(R, Sites, &CallSiteInfo::NumActualIns))
    return false;
  Out->SiteOf.assign(NumNodes, InvalidId);
  for (uint32_t I = 0; I < NumSites; ++I) {
    const CallSiteInfo &CS = Sites[I];
    if (CS.StmtNode >= NumNodes ||
        Nodes[CS.StmtNode].Kind != SDGNodeKind::Stmt ||
        !Nodes[CS.StmtNode].IsCall || Out->SiteOf[CS.StmtNode] != InvalidId ||
        uint64_t(CS.FirstActualIn) + CS.NumActualIns > NumNodes)
      return false;
    Out->SiteOf[CS.StmtNode] = I;
    for (uint32_t K = 0; K < CS.NumActualIns; ++K) {
      const SDGNode &A = Nodes[CS.FirstActualIn + K];
      if (A.Kind != SDGNodeKind::ActualIn || A.Aux != CS.StmtNode)
        return false;
    }
  }
  size_t NumPlumbs, NumOwnerChans;
  if (!getOffsets(R, NumSites, 12, Out->ChanSiteOff, NumPlumbs))
    return false;
  Out->ChanSiteSigs.resize(NumPlumbs);
  if (!R.u64Array(Out->ChanSiteSigs.data(), NumPlumbs) ||
      !getNodeIds(R, NumPlumbs, Out->ChanSiteOuts, NumNodes) ||
      !getOffsets(R, NumOwners, 8, Out->OwnerChanOff, NumOwnerChans))
    return false;
  Out->OwnerChanSigs.resize(NumOwnerChans);
  if (!R.u64Array(Out->OwnerChanSigs.data(), NumOwnerChans))
    return false;

  // Store, load and sink lists; the stores strictly ascend, since the heap
  // adjacency finds a store by its rank.
  if (!getU32Vec(R, Out->Stores) || !getU32Vec(R, Out->Loads) ||
      !getU32Vec(R, Out->Sinks) || !allBelow(Out->Stores, NumNodes) ||
      !allBelow(Out->Loads, NumNodes) || !allBelow(Out->Sinks, NumNodes) ||
      std::adjacent_find(Out->Stores.begin(), Out->Stores.end(),
                         std::greater_equal<>()) != Out->Stores.end())
    return false;
  Out->ChanOOM = R.u8() != 0;
  Out->ChanNodes = R.u64();

  const bool HasHeapEdges = R.u8() != 0;
  std::unique_ptr<HeapEdges> E;
  if (HasHeapEdges) {
    E.reset(new HeapEdges(*Out, HeapEdges::RestoreTag{}));
    const size_t NumStores = Out->Stores.size();
    size_t NumLoads, NumSinks;
    if (!getOffsets(R, NumStores, 4, E->LoadOff, NumLoads) ||
        !getNodeIds(R, NumLoads, E->LoadEdges, NumNodes) ||
        !getOffsets(R, NumStores, 4, E->SinkOff, NumSinks) ||
        !getNodeIds(R, NumSinks, E->SinkEdges, NumNodes))
      return false;
  }

  if (R.failed() || !R.atEnd())
    return false;
  G = std::move(Out);
  HE = std::move(E);
  return true;
}
