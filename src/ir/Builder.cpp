//===- ir/Builder.cpp ------------------------------------------*- C++ -*-===//

#include "ir/Builder.h"
#include "ssa/SSABuilder.h"

#include <cassert>

using namespace taj;

//===----------------------------------------------------------------------===//
// MethodBuilder
//===----------------------------------------------------------------------===//

ValueId MethodBuilder::param(uint32_t Idx) const {
  assert(Idx < P.Methods[M].NumParams && "parameter index out of range");
  return static_cast<ValueId>(Idx);
}

ValueId MethodBuilder::freshSlot() {
  return static_cast<ValueId>(P.Methods[M].NumValues++);
}

int32_t MethodBuilder::newBlock() {
  Method &Meth = P.Methods[M];
  Meth.Blocks.emplace_back();
  return static_cast<int32_t>(Meth.Blocks.size() - 1);
}

Instruction &MethodBuilder::push(Instruction I) {
  assert(!Finished && "method already finished");
  I.Line = Line;
  Method &Meth = P.Methods[M];
  assert(Cur >= 0 && Cur < static_cast<int32_t>(Meth.Blocks.size()));
  Meth.Blocks[Cur].Insts.push_back(std::move(I));
  return Meth.Blocks[Cur].Insts.back();
}

ValueId MethodBuilder::def(Instruction I) {
  ValueId D = freshSlot();
  I.Dst = D;
  push(std::move(I));
  return D;
}

ValueId MethodBuilder::constStr(std::string_view Lit) {
  Instruction I;
  I.Op = Opcode::ConstStr;
  I.StrLit = P.Pool.intern(Lit);
  return def(std::move(I));
}

ValueId MethodBuilder::constInt(int64_t V) {
  Instruction I;
  I.Op = Opcode::ConstInt;
  I.IntLit = V;
  return def(std::move(I));
}

ValueId MethodBuilder::emitNew(ClassId C) {
  Instruction I;
  I.Op = Opcode::New;
  I.Cls = C;
  return def(std::move(I));
}

ValueId MethodBuilder::emitNewArray(ClassId Elem) {
  Instruction I;
  I.Op = Opcode::NewArray;
  I.Cls = Elem;
  return def(std::move(I));
}

void MethodBuilder::assign(ValueId DstSlot, ValueId Src) {
  Instruction I;
  I.Op = Opcode::Copy;
  I.Dst = DstSlot;
  I.Args = {Src};
  push(std::move(I));
}

ValueId MethodBuilder::emitLoad(ValueId Base, FieldId F) {
  Instruction I;
  I.Op = Opcode::Load;
  I.Args = {Base};
  I.Field = F;
  return def(std::move(I));
}

void MethodBuilder::emitStore(ValueId Base, FieldId F, ValueId Val) {
  Instruction I;
  I.Op = Opcode::Store;
  I.Args = {Base, Val};
  I.Field = F;
  push(std::move(I));
}

ValueId MethodBuilder::emitArrayLoad(ValueId Base) {
  Instruction I;
  I.Op = Opcode::ArrayLoad;
  I.Args = {Base};
  return def(std::move(I));
}

void MethodBuilder::emitArrayStore(ValueId Base, ValueId Val) {
  Instruction I;
  I.Op = Opcode::ArrayStore;
  I.Args = {Base, Val};
  push(std::move(I));
}

ValueId MethodBuilder::emitStaticLoad(FieldId F) {
  Instruction I;
  I.Op = Opcode::StaticLoad;
  I.Field = F;
  return def(std::move(I));
}

void MethodBuilder::emitStaticStore(FieldId F, ValueId Val) {
  Instruction I;
  I.Op = Opcode::StaticStore;
  I.Args = {Val};
  I.Field = F;
  push(std::move(I));
}

ValueId MethodBuilder::emitBinop(BinopKind K, ValueId A, ValueId B) {
  Instruction I;
  I.Op = Opcode::Binop;
  I.IntLit = static_cast<int64_t>(K);
  I.Args = {A, B};
  return def(std::move(I));
}

ValueId MethodBuilder::callVirtualV(std::string_view Name,
                                    const std::vector<ValueId> &Args) {
  assert(!Args.empty() && "virtual call needs a receiver");
  Instruction I;
  I.Op = Opcode::Call;
  I.CKind = CallKind::Virtual;
  I.CalleeName = P.Pool.intern(Name);
  I.Args = Args;
  return def(std::move(I));
}

ValueId MethodBuilder::callVirtual(std::string_view Name,
                                   std::initializer_list<ValueId> Args) {
  return callVirtualV(Name, std::vector<ValueId>(Args));
}

ValueId MethodBuilder::callStatic(ClassId C, std::string_view Name,
                                  std::initializer_list<ValueId> Args) {
  Instruction I;
  I.Op = Opcode::Call;
  I.CKind = CallKind::Static;
  I.Cls = C;
  I.CalleeName = P.Pool.intern(Name);
  I.Args = Args;
  return def(std::move(I));
}

void MethodBuilder::emitRet(ValueId V) {
  Instruction I;
  I.Op = Opcode::Return;
  if (V != NoValue)
    I.Args = {V};
  push(std::move(I));
}

void MethodBuilder::emitGoto(int32_t Target) {
  Instruction I;
  I.Op = Opcode::Goto;
  I.Target = Target;
  push(std::move(I));
}

void MethodBuilder::emitIf(ValueId Cond, int32_t Then, int32_t Else) {
  Instruction I;
  I.Op = Opcode::If;
  I.Args = {Cond};
  I.Target = Then;
  I.Target2 = Else;
  push(std::move(I));
}

ValueId MethodBuilder::emitCaught() {
  Instruction I;
  I.Op = Opcode::Caught;
  return def(std::move(I));
}

void MethodBuilder::emitThrow(ValueId V) {
  Instruction I;
  I.Op = Opcode::Throw;
  I.Args = {V};
  push(std::move(I));
}

void MethodBuilder::finish() {
  assert(!Finished && "finish() called twice");
  Finished = true;
  Method &Meth = P.Methods[M];

  // Add fall-through terminators; the last block returns if unterminated.
  for (int32_t B = 0; B < static_cast<int32_t>(Meth.Blocks.size()); ++B) {
    BasicBlock &BB = Meth.Blocks[B];
    if (!BB.Insts.empty() && BB.Insts.back().isTerminator())
      continue;
    Instruction I;
    if (B + 1 < static_cast<int32_t>(Meth.Blocks.size())) {
      I.Op = Opcode::Goto;
      I.Target = B + 1;
    } else {
      I.Op = Opcode::Return;
    }
    BB.Insts.push_back(std::move(I));
  }

  sealCfg(Meth);
  removeUnreachableBlocks(Meth);
  buildSSA(Meth);
}

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

ClassId Builder::makeClass(std::string_view Name, ClassId Super,
                           uint32_t Flags) {
  assert(P.findClass(Name) == InvalidId && "duplicate class");
  Class C;
  C.Name = P.Pool.intern(Name);
  C.Id = static_cast<ClassId>(P.Classes.size());
  C.Super = Super;
  C.Flags = Flags;
  P.Classes.push_back(std::move(C));
  return P.Classes.back().Id;
}

FieldId Builder::makeField(ClassId C, std::string_view Name, Type Ty,
                           bool IsStatic) {
  Field F;
  F.Name = P.Pool.intern(Name);
  F.Owner = C;
  F.Ty = Ty;
  F.IsStatic = IsStatic;
  FieldId Id = static_cast<FieldId>(P.Fields.size());
  P.Fields.push_back(F);
  P.Classes[C].Fields.push_back(Id);
  return Id;
}

static MethodId addMethod(Program &P, ClassId C, std::string_view Name,
                          const std::vector<Type> &ParamTypes, Type Ret,
                          bool IsStatic) {
  Method M;
  M.Name = P.Pool.intern(Name);
  M.Owner = C;
  M.Id = static_cast<MethodId>(P.Methods.size());
  M.ParamTypes = ParamTypes;
  M.RetType = Ret;
  M.IsStatic = IsStatic;
  M.NumParams = static_cast<uint32_t>(ParamTypes.size());
  M.NumValues = M.NumParams;
  P.Methods.push_back(std::move(M));
  MethodId Id = P.Methods.back().Id;
  P.Classes[C].Methods.push_back(Id);
  return Id;
}

MethodBuilder Builder::startMethod(ClassId C, std::string_view Name,
                                   const std::vector<Type> &ParamTypes,
                                   Type Ret, bool IsStatic) {
  MethodId Id = addMethod(P, C, Name, ParamTypes, Ret, IsStatic);
  MethodBuilder MB(P, Id);
  MB.newBlock();
  MB.setBlock(0);
  return MB;
}

MethodId Builder::makeIntrinsic(ClassId C, std::string_view Name,
                                const std::vector<Type> &ParamTypes, Type Ret,
                                Intrinsic Intr, bool IsStatic) {
  MethodId Id = addMethod(P, C, Name, ParamTypes, Ret, IsStatic);
  P.Methods[Id].Intr = Intr;
  P.Methods[Id].InSSA = true;
  return Id;
}
