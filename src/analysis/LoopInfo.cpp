//===- analysis/LoopInfo.cpp - Natural loop detection ----------------------===//

#include "analysis/LoopInfo.h"

#include "analysis/CFG.h"

#include <algorithm>

using namespace gis;

LoopInfo LoopInfo::compute(const Function &F) {
  LoopInfo LI;
  unsigned N = F.numBlocks();
  LI.InnermostLoop.assign(N, -1);
  if (N == 0)
    return LI;

  DiGraph G = buildCFG(F);
  DomTree Dom(G);

  // Back edges (latch -> header) and the forward graph without them, in
  // one sweep.  Removing back edges must leave an acyclic graph, or the
  // CFG is irreducible.
  std::vector<GraphEdge> BackEdges, ForwardEdges;
  for (unsigned A = 0; A != N; ++A)
    for (unsigned S : G.succs(A)) {
      if (!Dom.dominates(S, A))
        ForwardEdges.push_back({A, S});
      else if (Dom.isReachable(A))
        BackEdges.push_back({A, S});
    }
  LI.Reducible = isAcyclic(DiGraph(N, G.entry(), ForwardEdges));

  // Group back edges by header, headers ascending and each header's
  // latches in ascending order (the sweep above visits latches in order).
  std::stable_sort(BackEdges.begin(), BackEdges.end(),
                   [](const GraphEdge &X, const GraphEdge &Y) {
                     return X.To < Y.To;
                   });

  // Natural loop of each header: backward walk from the latches, stopping
  // at the header.
  std::vector<BlockId> Work;
  for (size_t First = 0; First != BackEdges.size();) {
    size_t Last = First;
    while (Last != BackEdges.size() &&
           BackEdges[Last].To == BackEdges[First].To)
      ++Last;
    Loop L;
    L.Header = BackEdges[First].To;
    L.Latches.reserve(Last - First);
    for (size_t K = First; K != Last; ++K)
      L.Latches.push_back(BackEdges[K].From);
    L.Blocks = BitSet(N);
    L.Blocks.set(L.Header);
    for (BlockId Latch : L.Latches)
      if (!L.Blocks.test(Latch)) {
        L.Blocks.set(Latch);
        Work.push_back(Latch);
      }
    while (!Work.empty()) {
      BlockId B = Work.back();
      Work.pop_back();
      for (unsigned P : G.preds(B))
        if (Dom.isReachable(P) && !L.Blocks.test(P)) {
          L.Blocks.set(P);
          Work.push_back(P);
        }
    }
    LI.Loops.push_back(std::move(L));
    First = Last;
  }

  // Nesting: parent of L is the smallest loop strictly containing L's
  // header among loops with a different header.
  auto Contains = [&](const Loop &Outer, const Loop &Inner) {
    if (Outer.Header == Inner.Header)
      return false;
    if (!Outer.Blocks.test(Inner.Header))
      return false;
    // With reducible control flow, containing the header implies
    // containing the whole loop; double-check for safety.
    bool All = true;
    Inner.Blocks.forEach([&](unsigned B) { All &= Outer.Blocks.test(B); });
    return All;
  };

  for (size_t I = 0; I != LI.Loops.size(); ++I) {
    int Best = -1;
    for (size_t J = 0; J != LI.Loops.size(); ++J) {
      if (I == J || !Contains(LI.Loops[J], LI.Loops[I]))
        continue;
      if (Best == -1 ||
          LI.Loops[J].numBlocks() < LI.Loops[Best].numBlocks())
        Best = static_cast<int>(J);
    }
    LI.Loops[I].Parent = Best;
  }
  for (size_t I = 0; I != LI.Loops.size(); ++I)
    if (LI.Loops[I].Parent >= 0)
      LI.Loops[LI.Loops[I].Parent].Children.push_back(static_cast<int>(I));

  // Depths (parents have smaller depth).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (Loop &L : LI.Loops) {
      unsigned D = L.Parent < 0 ? 1 : LI.Loops[L.Parent].Depth + 1;
      if (L.Depth != D) {
        L.Depth = D;
        Changed = true;
      }
    }
  }

  // Innermost loop per block = deepest loop containing it.
  for (unsigned B = 0; B != N; ++B) {
    int Best = -1;
    for (size_t I = 0; I != LI.Loops.size(); ++I)
      if (LI.Loops[I].Blocks.test(B) &&
          (Best == -1 || LI.Loops[I].Depth > LI.Loops[Best].Depth))
        Best = static_cast<int>(I);
    LI.InnermostLoop[B] = Best;
  }

  return LI;
}

std::vector<unsigned> LoopInfo::innermostFirstOrder() const {
  std::vector<unsigned> Order(Loops.size());
  for (unsigned I = 0; I != Loops.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [this](unsigned A, unsigned B) {
    if (Loops[A].Depth != Loops[B].Depth)
      return Loops[A].Depth > Loops[B].Depth; // deeper first
    return A < B;
  });
  return Order;
}
