//===- ir/Program.cpp ------------------------------------------*- C++ -*-===//

#include "ir/Program.h"

using namespace taj;

const char *taj::rules::ruleName(RuleMask RuleBit) {
  switch (RuleBit) {
  case XSS:
    return "XSS";
  case SQLI:
    return "SQLi";
  case FILE:
    return "MaliciousFile";
  case LEAK:
    return "InfoLeak";
  default:
    return "Unknown";
  }
}

ClassId Program::findClass(std::string_view Name) const {
  Symbol Sym = Pool.lookup(Name);
  if (Sym == ~0u)
    return InvalidId;
  auto It = ClassByName.find(Sym);
  if (It != ClassByName.end())
    return It->second;
  // Lazily (re)build the cache; class creation is rare after startup.
  ClassByName.clear();
  for (const Class &C : Classes)
    ClassByName.emplace(C.Name, C.Id);
  It = ClassByName.find(Sym);
  return It == ClassByName.end() ? InvalidId : It->second;
}

FieldId Program::findField(ClassId C, std::string_view Name) const {
  Symbol Sym = Pool.lookup(Name);
  if (Sym == ~0u)
    return InvalidId;
  for (FieldId F : Classes[C].Fields)
    if (Fields[F].Name == Sym)
      return F;
  return InvalidId;
}

MethodId Program::findMethod(ClassId C, std::string_view Name) const {
  Symbol Sym = Pool.lookup(Name);
  if (Sym == ~0u)
    return InvalidId;
  for (MethodId M : Classes[C].Methods)
    if (Methods[M].Name == Sym)
      return M;
  return InvalidId;
}

bool Program::statementIndexCurrent() const {
  if (MethodStmtBase.size() != Methods.size())
    return false;
  StmtId Next = 0;
  for (MethodId M = 0; M < Methods.size(); ++M) {
    if (MethodStmtBase[M] != Next)
      return false;
    const std::vector<BasicBlock> &Blocks = Methods[M].Blocks;
    for (int32_t B = 0; B < static_cast<int32_t>(Blocks.size()); ++B) {
      const size_t N = Blocks[B].Insts.size();
      if (N == 0)
        continue;
      // The index only ever holds the refs one rebuild wrote, so a block
      // whose first and last refs sit at its running offsets matches in
      // between too. The last ref matters: a block emptied into its
      // predecessor leaves every first ref in place.
      const size_t Last = Next + N - 1;
      if (Last >= StmtRefs.size())
        return false;
      const StmtRef &F = StmtRefs[Next];
      const StmtRef &L = StmtRefs[Last];
      if (F.M != M || F.Block != B || F.Index != 0 || L.M != M ||
          L.Block != B || L.Index != static_cast<int32_t>(N - 1))
        return false;
      Next = static_cast<StmtId>(Last + 1);
    }
  }
  return Next == StmtRefs.size();
}

void Program::indexStatements() {
  if (statementIndexCurrent())
    return;
  StmtRefs.clear();
  MethodStmtBase.assign(Methods.size(), 0);
  for (MethodId M = 0; M < Methods.size(); ++M) {
    MethodStmtBase[M] = static_cast<StmtId>(StmtRefs.size());
    const Method &Meth = Methods[M];
    for (int32_t B = 0; B < static_cast<int32_t>(Meth.Blocks.size()); ++B)
      for (int32_t I = 0;
           I < static_cast<int32_t>(Meth.Blocks[B].Insts.size()); ++I)
        StmtRefs.push_back({M, B, I});
  }
}

StmtId Program::stmtId(MethodId M, int32_t Block, int32_t Index) const {
  StmtId S = MethodStmtBase[M];
  const Method &Meth = Methods[M];
  for (int32_t B = 0; B < Block; ++B)
    S += static_cast<StmtId>(Meth.Blocks[B].Insts.size());
  return S + Index;
}

std::string Program::methodName(MethodId M) const {
  const Method &Meth = Methods[M];
  std::string Out(Pool.str(Classes[Meth.Owner].Name));
  Out += '.';
  Out += Pool.str(Meth.Name);
  return Out;
}
