//===- analysis/Dominators.cpp - Dominator / postdominator trees ----------===//

#include "analysis/Dominators.h"

#include <algorithm>

using namespace gis;

DomTree::DomTree(const DiGraph &G) : Root(G.entry()) {
  unsigned N = G.numNodes();
  IDom.assign(N, NoDominator);
  Depth.assign(N, 0);
  ChildOff.assign(N + 1, 0);
  if (N == 0)
    return;

  // Cooper-Harvey-Kennedy: iterate intersection over reverse postorder.
  std::vector<unsigned> RPO = reversePostOrder(G);
  std::vector<unsigned> RPOIndex(N, ~0u);
  for (unsigned I = 0; I != RPO.size(); ++I)
    RPOIndex[RPO[I]] = I;

  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (RPOIndex[A] > RPOIndex[B])
        A = IDom[A];
      while (RPOIndex[B] > RPOIndex[A])
        B = IDom[B];
    }
    return A;
  };

  IDom[Root] = Root; // temporary self-loop to seed the intersection
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned Node : RPO) {
      if (Node == Root)
        continue;
      unsigned NewIDom = NoDominator;
      for (unsigned P : G.preds(Node)) {
        if (IDom[P] == NoDominator || RPOIndex[P] == ~0u)
          continue; // predecessor not processed / unreachable
        NewIDom = NewIDom == NoDominator ? P : Intersect(P, NewIDom);
      }
      if (NewIDom != NoDominator && IDom[Node] != NewIDom) {
        IDom[Node] = NewIDom;
        Changed = true;
      }
    }
  }
  IDom[Root] = NoDominator;

  // Depths and children, walking the nodes with a parent in RPO (parents
  // first); the children rows are a counting sort by parent, so each row
  // stays in RPO.
  RPO.erase(std::remove_if(RPO.begin(), RPO.end(),
                           [&](unsigned Node) {
                             return Node == Root || IDom[Node] == NoDominator;
                           }),
            RPO.end());
  for (unsigned Node : RPO)
    Depth[Node] = Depth[IDom[Node]] + 1;
  countingSortRows(
      N, static_cast<unsigned>(RPO.size()),
      [&](unsigned I) { return IDom[RPO[I]]; },
      [&](unsigned I) { return RPO[I]; }, ChildOff, ChildIdx);
}

bool DomTree::dominates(unsigned A, unsigned B) const {
  if (!isReachable(A) || !isReachable(B))
    return false;
  // Walk B up the tree until reaching A's depth.
  unsigned Cur = B;
  while (Depth[Cur] > Depth[A]) {
    Cur = IDom[Cur];
    GIS_ASSERT(Cur != NoDominator, "broken dominator tree");
  }
  return Cur == A;
}

DiGraph PostDomTree::buildReversed(const DiGraph &G,
                                   const std::vector<unsigned> &ExtraExits) {
  // The reverse of G extended with a virtual exit, which every node without
  // successors and every extra exit reaches.  Emitting the reversed edges
  // source node by source node, each node's own successors before its exit
  // edge, gives every row the order it has when the extended graph is built
  // first and then reversed.
  unsigned ExitNode = G.numNodes();
  size_t NumEdges = ExtraExits.size();
  for (unsigned N = 0; N != G.numNodes(); ++N)
    NumEdges += G.succs(N).size() + 1;
  std::vector<GraphEdge> Edges;
  Edges.reserve(NumEdges);
  for (unsigned N = 0; N != G.numNodes(); ++N) {
    for (unsigned S : G.succs(N))
      Edges.push_back({S, N});
    if (G.succs(N).empty() ||
        std::find(ExtraExits.begin(), ExtraExits.end(), N) != ExtraExits.end())
      Edges.push_back({ExitNode, N});
  }
  return DiGraph(G.numNodes() + 1, ExitNode, Edges);
}

PostDomTree::PostDomTree(const DiGraph &G,
                         const std::vector<unsigned> &ExtraExits)
    : ExitNode(G.numNodes()), Tree(buildReversed(G, ExtraExits)) {}
