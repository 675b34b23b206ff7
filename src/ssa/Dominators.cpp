//===- ssa/Dominators.cpp --------------------------------------*- C++ -*-===//

#include "ssa/Dominators.h"

#include <algorithm>
#include <cassert>

using namespace taj;

Dominators::Dominators(const Method &M) {
  int32_t N = static_cast<int32_t>(M.Blocks.size());
  assert(N > 0 && "method has no blocks");
  Idom.assign(N, -1);
  RpoNum.assign(N, -1);
  DF.assign(N, {});
  Kids.assign(N, {});

  // Iterative DFS postorder from the entry.
  std::vector<int32_t> Post;
  Post.reserve(N);
  std::vector<uint8_t> State(N, 0); // 0 unvisited, 1 on stack, 2 done
  std::vector<std::pair<int32_t, size_t>> Stack;
  Stack.emplace_back(0, 0);
  State[0] = 1;
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    const auto &Succs = M.Blocks[B].Succs;
    if (NextSucc < Succs.size()) {
      int32_t S = Succs[NextSucc++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.emplace_back(S, 0);
      }
      continue;
    }
    State[B] = 2;
    Post.push_back(B);
    Stack.pop_back();
  }
  const std::vector<int32_t> Rpo(Post.rbegin(), Post.rend());
  for (size_t I = 0; I < Rpo.size(); ++I)
    RpoNum[Rpo[I]] = static_cast<int32_t>(I);

  // Cooper-Harvey-Kennedy: iterate until the idom assignment stabilizes.
  auto Intersect = [&](int32_t A, int32_t B) {
    while (A != B) {
      while (RpoNum[A] > RpoNum[B])
        A = Idom[A];
      while (RpoNum[B] > RpoNum[A])
        B = Idom[B];
    }
    return A;
  };
  Idom[0] = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int32_t B : Rpo) {
      if (B == 0)
        continue;
      int32_t NewIdom = -1;
      for (int32_t P : M.Blocks[B].Preds) {
        if (RpoNum[P] == -1 || Idom[P] == -1)
          continue; // unreachable or not yet processed
        NewIdom = NewIdom == -1 ? P : Intersect(P, NewIdom);
      }
      if (NewIdom != -1 && Idom[B] != NewIdom) {
        Idom[B] = NewIdom;
        Changed = true;
      }
    }
  }
  Idom[0] = -1; // canonical: the entry has no idom

  for (int32_t B = 0; B < N; ++B)
    if (B != 0 && Idom[B] != -1)
      Kids[Idom[B]].push_back(B);

  // Dominance frontiers (Cytron et al. via the CHK formulation).
  for (int32_t B = 0; B < N; ++B) {
    if (M.Blocks[B].Preds.size() < 2)
      continue;
    for (int32_t P : M.Blocks[B].Preds) {
      if (RpoNum[P] == -1)
        continue;
      int32_t Runner = P;
      while (Runner != -1 && Runner != Idom[B]) {
        if (std::find(DF[Runner].begin(), DF[Runner].end(), B) ==
            DF[Runner].end())
          DF[Runner].push_back(B);
        Runner = Idom[Runner];
      }
    }
  }
}

bool Dominators::dominates(int32_t A, int32_t B) const {
  while (B != -1) {
    if (A == B)
      return true;
    B = Idom[B];
  }
  return false;
}
