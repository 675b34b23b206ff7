//===- interp/Interpreter.cpp ----------------------------------*- C++ -*-===//

#include "interp/Interpreter.h"

#include <algorithm>
#include <cassert>

using namespace taj;

Interpreter::Interpreter(const Program &P, const ClassHierarchy &CHA,
                         InterpOptions Opts)
    : P(P), CHA(CHA), Opts(std::move(Opts)) {}

int32_t Interpreter::newObj(ClassId Cls, StmtId Site, bool IsArray) {
  Obj O;
  O.Cls = Cls;
  O.AllocSite = Site;
  O.IsArray = IsArray;
  Heap.push_back(std::move(O));
  return static_cast<int32_t>(Heap.size() - 1);
}

void Interpreter::mergeTaint(Value &Dst, const Value &Src) {
  for (const Origin &O : Src.Taint) {
    bool Found = false;
    for (Origin &D : Dst.Taint)
      if (D.Source == O.Source) {
        D.Rules |= O.Rules;
        Found = true;
      }
    if (!Found)
      Dst.Taint.push_back(O);
  }
}

std::string Interpreter::stringOf(const Value &V) const {
  if (!V.IsRef || V.Ref < 0)
    return "";
  return Heap[V.Ref].StrContent;
}

bool Interpreter::run(const std::vector<MethodId> &Entries) {
  for (MethodId E : Entries) {
    const Method &M = P.Methods[E];
    std::vector<Value> Args;
    for (uint32_t K = 0; K < M.NumParams; ++K) {
      Value V;
      if (M.ParamTypes[K].isRefLike()) {
        V.IsRef = true;
        V.Ref = newObj(M.ParamTypes[K].Cls, 0,
                       M.ParamTypes[K].Kind == TypeKind::Array);
      }
      Args.push_back(std::move(V));
    }
    callMethod(E, std::move(Args), 0);
    if (OutOfBudget)
      return false;
  }
  return !OutOfBudget;
}

Interpreter::Value Interpreter::callMethod(MethodId MId,
                                           std::vector<Value> Args,
                                           StmtId CallSite) {
  const Method &M = P.Methods[MId];
  if (CallSite != 0)
    CallObs[CallSite].insert(MId);
  if (M.Intr != Intrinsic::None || !M.hasBody())
    return applyIntrinsic(M, Args, CallSite);
  if (++Depth > Opts.MaxCallDepth) {
    --Depth;
    OutOfBudget = true;
    return {};
  }

  std::vector<Value> Locals(M.NumValues);
  for (uint32_t K = 0; K < M.NumParams && K < Args.size(); ++K)
    Locals[K] = Args[K];

  auto Observe = [&](ValueId V) {
    const Value &Val = Locals[V];
    if (Val.IsRef && Val.Ref >= 0)
      PtsObs[{MId, V}].insert(Heap[Val.Ref].AllocSite);
  };
  for (uint32_t K = 0; K < M.NumParams && K < Args.size(); ++K)
    Observe(static_cast<ValueId>(K));

  Value RetVal;
  int32_t Block = 0, PrevBlock = -1;
  StmtId BlockBase = P.methodStmtBegin(MId);
  // Precompute per-block statement bases.
  std::vector<StmtId> Bases(M.Blocks.size());
  {
    StmtId S = BlockBase;
    for (size_t B = 0; B < M.Blocks.size(); ++B) {
      Bases[B] = S;
      S += static_cast<StmtId>(M.Blocks[B].Insts.size());
    }
  }

  bool Running = true;
  while (Running) {
    const BasicBlock &BB = M.Blocks[Block];
    // Evaluate phis as a parallel copy based on the incoming edge.
    {
      std::vector<std::pair<ValueId, Value>> PhiVals;
      for (const Instruction &I : BB.Insts) {
        if (I.Op != Opcode::Phi)
          break;
        size_t PredIdx = 0;
        while (PredIdx < BB.Preds.size() && BB.Preds[PredIdx] != PrevBlock)
          ++PredIdx;
        Value V;
        if (PredIdx < I.Args.size() && I.Args[PredIdx] != NoValue)
          V = Locals[I.Args[PredIdx]];
        PhiVals.emplace_back(I.Dst, std::move(V));
      }
      for (auto &[D, V] : PhiVals) {
        Locals[D] = std::move(V);
        Observe(D);
      }
    }

    bool Jumped = false;
    for (size_t Idx = 0; Idx < BB.Insts.size(); ++Idx) {
      const Instruction &I = BB.Insts[Idx];
      if (I.Op == Opcode::Phi)
        continue;
      if (++Steps > Opts.MaxSteps) {
        OutOfBudget = true;
        --Depth;
        return RetVal;
      }
      StmtId Site = Bases[Block] + static_cast<StmtId>(Idx);
      switch (I.Op) {
      case Opcode::ConstStr: {
        Value V;
        V.IsRef = true;
        V.Ref = newObj(P.findClass("String"), Site);
        Heap[V.Ref].StrContent = P.Pool.str(I.StrLit);
        Locals[I.Dst] = std::move(V);
        Observe(I.Dst);
        break;
      }
      case Opcode::ConstInt: {
        Value V;
        V.Int = I.IntLit;
        Locals[I.Dst] = std::move(V);
        break;
      }
      case Opcode::New:
      case Opcode::NewArray: {
        Value V;
        V.IsRef = true;
        V.Ref = newObj(I.Cls, Site, I.Op == Opcode::NewArray);
        Locals[I.Dst] = std::move(V);
        Observe(I.Dst);
        break;
      }
      case Opcode::Copy:
        Locals[I.Dst] = Locals[I.Args[0]];
        Observe(I.Dst);
        break;
      case Opcode::Load: {
        const Value &Base = Locals[I.Args[0]];
        Value V;
        if (Base.IsRef && Base.Ref >= 0) {
          auto It = Heap[Base.Ref].Fields.find(I.Field);
          if (It != Heap[Base.Ref].Fields.end())
            V = It->second;
        }
        Locals[I.Dst] = std::move(V);
        Observe(I.Dst);
        break;
      }
      case Opcode::Store: {
        const Value &Base = Locals[I.Args[0]];
        if (Base.IsRef && Base.Ref >= 0)
          Heap[Base.Ref].Fields[I.Field] = Locals[I.Args[1]];
        break;
      }
      case Opcode::ArrayLoad: {
        const Value &Base = Locals[I.Args[0]];
        Value V;
        if (Base.IsRef && Base.Ref >= 0 &&
            !Heap[Base.Ref].ArrayElems.empty())
          V = Heap[Base.Ref].ArrayElems.back();
        Locals[I.Dst] = std::move(V);
        Observe(I.Dst);
        break;
      }
      case Opcode::ArrayStore: {
        const Value &Base = Locals[I.Args[0]];
        if (Base.IsRef && Base.Ref >= 0)
          Heap[Base.Ref].ArrayElems.push_back(Locals[I.Args[1]]);
        break;
      }
      case Opcode::StaticLoad: {
        auto It = Statics.find(I.Field);
        Locals[I.Dst] = It == Statics.end() ? Value{} : It->second;
        Observe(I.Dst);
        break;
      }
      case Opcode::StaticStore:
        Statics[I.Field] = Locals[I.Args[0]];
        break;
      case Opcode::Binop: {
        const Value &A = Locals[I.Args[0]];
        const Value &B = Locals[I.Args[1]];
        Value V;
        // Java long arithmetic wraps; computing in uint64_t gives the same
        // two's-complement bits without signed-overflow UB.
        const uint64_t UA = static_cast<uint64_t>(A.Int);
        const uint64_t UB = static_cast<uint64_t>(B.Int);
        switch (static_cast<BinopKind>(I.IntLit)) {
        case BinopKind::Add:
          V.Int = static_cast<int64_t>(UA + UB);
          break;
        case BinopKind::Sub:
          V.Int = static_cast<int64_t>(UA - UB);
          break;
        case BinopKind::Mul:
          V.Int = static_cast<int64_t>(UA * UB);
          break;
        case BinopKind::Eq:
          V.Int = A.IsRef == B.IsRef &&
                  (A.IsRef ? A.Ref == B.Ref : A.Int == B.Int);
          break;
        case BinopKind::Lt:
          V.Int = A.Int < B.Int;
          break;
        }
        mergeTaint(V, A);
        mergeTaint(V, B);
        Locals[I.Dst] = std::move(V);
        break;
      }
      case Opcode::Caught: {
        Value V;
        V.IsRef = true;
        ClassId Exc = P.findClass("Exception");
        V.Ref = newObj(Exc == InvalidId ? 0 : Exc, Site);
        Locals[I.Dst] = std::move(V);
        Observe(I.Dst);
        break;
      }
      case Opcode::Throw:
        // Loose model: unwind the current method.
        --Depth;
        return RetVal;
      case Opcode::Call: {
        // Resolve the target.
        MethodId Target = InvalidId;
        std::vector<Value> CallArgs;
        for (ValueId A : I.Args)
          CallArgs.push_back(Locals[A]);
        if (I.CKind == CallKind::Static) {
          Target = CHA.resolveVirtual(I.Cls, I.CalleeName);
        } else if (I.CKind == CallKind::Special) {
          Target = CHA.resolveVirtual(I.Cls, I.CalleeName);
        } else {
          const Value &Recv = CallArgs.empty() ? Value{} : CallArgs[0];
          if (Recv.IsRef && Recv.Ref >= 0)
            Target = CHA.resolveVirtual(Heap[Recv.Ref].Cls, I.CalleeName);
        }
        Value R;
        if (Target != InvalidId)
          R = callMethod(Target, std::move(CallArgs), Site);
        if (OutOfBudget) {
          --Depth;
          return RetVal;
        }
        if (I.Dst != NoValue) {
          Locals[I.Dst] = std::move(R);
          Observe(I.Dst);
        }
        break;
      }
      case Opcode::Return:
        if (!I.Args.empty())
          RetVal = Locals[I.Args[0]];
        Running = false;
        Jumped = true;
        break;
      case Opcode::Goto:
        PrevBlock = Block;
        Block = I.Target;
        Jumped = true;
        break;
      case Opcode::If: {
        PrevBlock = Block;
        Block = Locals[I.Args[0]].Int != 0 ? I.Target : I.Target2;
        Jumped = true;
        break;
      }
      case Opcode::Phi:
        break;
      }
      if (Jumped)
        break;
    }
    if (!Jumped)
      Running = false; // fell off a block without a terminator (verifier
                       // prevents this; be safe)
  }
  --Depth;
  return RetVal;
}

void Interpreter::collectNestedOrigins(const Value &V,
                                       std::vector<Origin> &Out, int Depth,
                                       std::set<int32_t> &Seen) {
  for (const Origin &O : V.Taint)
    Out.push_back(O);
  if (Depth <= 0 || !V.IsRef || V.Ref < 0 || !Seen.insert(V.Ref).second)
    return;
  const Obj &O = Heap[V.Ref];
  for (const auto &[F, FV] : O.Fields)
    collectNestedOrigins(FV, Out, Depth - 1, Seen);
  for (const Value &EV : O.ArrayElems)
    collectNestedOrigins(EV, Out, Depth - 1, Seen);
  for (const auto &[K, MV] : O.MapData)
    collectNestedOrigins(MV, Out, Depth - 1, Seen);
  for (const Value &CV : O.CollData)
    collectNestedOrigins(CV, Out, Depth - 1, Seen);
}

void Interpreter::recordSink(const Method &CalM,
                             const std::vector<Value> &Args, StmtId Site) {
  for (uint32_t K = 0; K < Args.size(); ++K) {
    if (!(CalM.SinkParamMask & (1u << K)))
      continue;
    std::vector<Origin> Origins;
    std::set<int32_t> Seen;
    // Nested taint: data reachable from the argument counts (§4.1.1);
    // generous depth — the static analysis bounds it, the oracle not.
    collectNestedOrigins(Args[K], Origins, 16, Seen);
    for (const Origin &O : Origins) {
      RuleMask Hit = O.Rules & CalM.SinkRules;
      for (int R = 0; R < rules::NumRules; ++R) {
        RuleMask Bit = static_cast<RuleMask>(1u << R);
        if (Hit & Bit)
          Flows.insert({O.Source, Site, Bit});
      }
    }
  }
}

Interpreter::Value Interpreter::applyIntrinsic(const Method &CalM,
                                               const std::vector<Value> &Args,
                                               StmtId Site) {
  size_t Off = CalM.IsStatic ? 0 : 1;
  auto FreshString = [&](StmtId S) {
    Value V;
    V.IsRef = true;
    ClassId Str = P.findClass("String");
    V.Ref = newObj(Str == InvalidId ? 0 : Str, S);
    return V;
  };
  switch (CalM.Intr) {
  case Intrinsic::None: {
    // Default native model: fresh untainted object of the return type.
    Value V;
    if (CalM.RetType.isRefLike()) {
      V.IsRef = true;
      V.Ref = newObj(CalM.RetType.Cls, Site,
                     CalM.RetType.Kind == TypeKind::Array);
    }
    return V;
  }
  case Intrinsic::Identity: {
    for (const Value &A : Args)
      if (A.IsRef)
        return A;
    return Args.empty() ? Value{} : Args[0];
  }
  case Intrinsic::StringTransfer: {
    Value V = FreshString(Site);
    for (const Value &A : Args)
      mergeTaint(V, A);
    return V;
  }
  case Intrinsic::Sanitize: {
    Value V = FreshString(Site);
    if (Args.size() > Off) {
      mergeTaint(V, Args[Off]);
      for (Origin &O : V.Taint)
        O.Rules &= static_cast<RuleMask>(~CalM.SanitizerRules);
      V.Taint.erase(std::remove_if(V.Taint.begin(), V.Taint.end(),
                                   [](const Origin &O) {
                                     return O.Rules == rules::None;
                                   }),
                    V.Taint.end());
    }
    return V;
  }
  case Intrinsic::SourceReturn: {
    Value V = FreshString(Site);
    if (CalM.RetType.isRefLike() && CalM.RetType.Cls != InvalidId)
      Heap[V.Ref].Cls = CalM.RetType.Cls;
    Heap[V.Ref].StrContent = "<tainted>";
    V.Taint.push_back({Site, CalM.SourceRules});
    return V;
  }
  case Intrinsic::GetMessage: {
    Value V = FreshString(Site);
    V.Taint.push_back({Site, CalM.SourceRules ? CalM.SourceRules
                                              : rules::LEAK});
    return V;
  }
  case Intrinsic::SinkConsume:
    recordSink(CalM, Args, Site);
    return {};
  case Intrinsic::MapPut: {
    if (Args.size() > Off + 1 && Args[0].IsRef && Args[0].Ref >= 0)
      Heap[Args[0].Ref].MapData[stringOf(Args[Off])] = Args[Off + 1];
    return {};
  }
  case Intrinsic::MapGet: {
    if (Args.size() > Off && Args[0].IsRef && Args[0].Ref >= 0) {
      auto &MD = Heap[Args[0].Ref].MapData;
      auto It = MD.find(stringOf(Args[Off]));
      if (It != MD.end())
        return It->second;
    }
    return {};
  }
  case Intrinsic::CollAdd: {
    if (Args.size() > Off && Args[0].IsRef && Args[0].Ref >= 0)
      Heap[Args[0].Ref].CollData.push_back(Args[Off]);
    return {};
  }
  case Intrinsic::CollGet: {
    if (!Args.empty() && Args[0].IsRef && Args[0].Ref >= 0 &&
        !Heap[Args[0].Ref].CollData.empty())
      return Heap[Args[0].Ref].CollData.back();
    return {};
  }
  case Intrinsic::ClassForName: {
    Value V;
    if (Args.size() > Off) {
      ClassId C = P.findClass(stringOf(Args[Off]));
      if (C != InvalidId) {
        V.IsRef = true;
        V.Ref = newObj(CalM.RetType.isRefLike() ? CalM.RetType.Cls : 0, Site);
        Heap[V.Ref].K = Obj::ClassObj;
        Heap[V.Ref].Extra = C;
      }
    }
    return V;
  }
  case Intrinsic::GetMethod: {
    Value V;
    if (Args.size() > Off && Args[0].IsRef && Args[0].Ref >= 0 &&
        Heap[Args[0].Ref].K == Obj::ClassObj) {
      Symbol Name = P.Pool.lookup(stringOf(Args[Off]));
      if (Name != ~0u) {
        MethodId M = CHA.resolveVirtual(Heap[Args[0].Ref].Extra, Name);
        if (M != InvalidId) {
          V.IsRef = true;
          V.Ref =
              newObj(CalM.RetType.isRefLike() ? CalM.RetType.Cls : 0, Site);
          Heap[V.Ref].K = Obj::MethodObj;
          Heap[V.Ref].Extra = M;
        }
      }
    }
    return V;
  }
  case Intrinsic::MethodInvoke: {
    // invoke(methodObj, recv, argsArray)
    if (Args.empty() || !Args[0].IsRef || Args[0].Ref < 0 ||
        Heap[Args[0].Ref].K != Obj::MethodObj)
      return {};
    MethodId Target = Heap[Args[0].Ref].Extra;
    const Method &TM = P.Methods[Target];
    std::vector<Value> CallArgs;
    if (!TM.IsStatic && Args.size() > 1)
      CallArgs.push_back(Args[1]);
    if (Args.size() > 2 && Args[2].IsRef && Args[2].Ref >= 0)
      for (const Value &E : Heap[Args[2].Ref].ArrayElems)
        CallArgs.push_back(E);
    CallArgs.resize(TM.NumParams);
    return callMethod(Target, std::move(CallArgs), Site);
  }
  case Intrinsic::ThreadStart: {
    // Synchronous schedule: run() executes now.
    if (!Args.empty() && Args[0].IsRef && Args[0].Ref >= 0) {
      Symbol Run = P.Pool.lookup("run");
      if (Run != ~0u) {
        MethodId M = CHA.resolveVirtual(Heap[Args[0].Ref].Cls, Run);
        if (M != InvalidId)
          callMethod(M, {Args[0]}, Site);
      }
    }
    return {};
  }
  case Intrinsic::JndiLookup: {
    Value V;
    if (Args.size() > Off) {
      auto It = Opts.JndiBindings.find(stringOf(Args[Off]));
      if (It != Opts.JndiBindings.end()) {
        V.IsRef = true;
        V.Ref = newObj(It->second, Site);
      }
    }
    return V;
  }
  case Intrinsic::HomeCreate: {
    Value V;
    ClassId Bean =
        CalM.RetType.isRefLike() ? CalM.RetType.Cls : InvalidId;
    if (!Args.empty() && Args[0].IsRef && Args[0].Ref >= 0) {
      auto It = Opts.EjbHomeToBean.find(Heap[Args[0].Ref].Cls);
      if (It != Opts.EjbHomeToBean.end())
        Bean = It->second;
    }
    if (Bean != InvalidId) {
      V.IsRef = true;
      V.Ref = newObj(Bean, Site);
    }
    return V;
  }
  }
  return {};
}
