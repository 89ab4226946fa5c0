//===- analysis/Graph.cpp - Generic directed graph utilities --------------===//

#include "analysis/Graph.h"

#include <algorithm>

using namespace gis;

namespace {

/// Fills one direction of a CSR adjacency from \p Edges: Off gets N+1
/// row offsets and Idx the row entries (Key picks the row, Value the
/// entry), each row in edge-list order with repeats dropped, the first
/// occurrence kept.  Deduplicating the predecessor rows the same way keeps
/// exactly the first occurrence of each edge, so both directions hold the
/// same edge set, each in edge-list order.
template <typename KeyFn, typename ValueFn>
void buildRows(unsigned N, const std::vector<GraphEdge> &Edges, KeyFn Key,
               ValueFn Value, std::vector<unsigned> &Off,
               std::vector<unsigned> &Idx) {
  countingSortRows(
      N, static_cast<unsigned>(Edges.size()),
      [&](unsigned I) { return Key(Edges[I]); },
      [&](unsigned I) { return Value(Edges[I]); }, Off, Idx);
  // Drop repeats within each row, compacting in place.
  unsigned W = 0;
  for (unsigned K = 0; K != N; ++K) {
    unsigned Begin = Off[K], End = Off[K + 1];
    Off[K] = W;
    for (unsigned I = Begin; I != End; ++I) {
      unsigned V = Idx[I];
      if (std::find(Idx.begin() + Off[K], Idx.begin() + W, V) ==
          Idx.begin() + W)
        Idx[W++] = V;
    }
  }
  Off[N] = W;
  Idx.resize(W);
}

} // namespace

DiGraph::DiGraph(unsigned N, unsigned Entry,
                 const std::vector<GraphEdge> &Edges)
    : NumNodes(N), EntryNode(Entry) {
  for (const GraphEdge &E : Edges)
    GIS_ASSERT(E.From < N && E.To < N, "edge endpoint out of range");
  buildRows(
      N, Edges, [](const GraphEdge &E) { return E.From; },
      [](const GraphEdge &E) { return E.To; }, SuccOff, SuccIdx);
  buildRows(
      N, Edges, [](const GraphEdge &E) { return E.To; },
      [](const GraphEdge &E) { return E.From; }, PredOff, PredIdx);
}

std::vector<unsigned> gis::postOrder(const DiGraph &G) {
  std::vector<unsigned> Order;
  if (G.numNodes() == 0)
    return Order;
  std::vector<uint8_t> State(G.numNodes(), 0); // 0 new, 1 open, 2 done
  // Iterative DFS with an explicit stack of (node, next-successor-index).
  std::vector<std::pair<unsigned, size_t>> Stack;
  Stack.emplace_back(G.entry(), 0);
  State[G.entry()] = 1;
  while (!Stack.empty()) {
    auto &[N, NextIdx] = Stack.back();
    NodeRange Succs = G.succs(N);
    if (NextIdx < Succs.size()) {
      unsigned S = Succs[NextIdx++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.emplace_back(S, 0);
      }
    } else {
      State[N] = 2;
      Order.push_back(N);
      Stack.pop_back();
    }
  }
  return Order;
}

std::vector<unsigned> gis::reversePostOrder(const DiGraph &G) {
  std::vector<unsigned> Order = postOrder(G);
  std::reverse(Order.begin(), Order.end());
  return Order;
}

BitSet gis::reachableFrom(const DiGraph &G, unsigned From) {
  BitSet Reached(G.numNodes());
  std::vector<unsigned> Work = {From};
  Reached.set(From);
  while (!Work.empty()) {
    unsigned N = Work.back();
    Work.pop_back();
    for (unsigned S : G.succs(N))
      if (!Reached.test(S)) {
        Reached.set(S);
        Work.push_back(S);
      }
  }
  return Reached;
}

std::vector<BitSet> gis::allPairsReachability(const DiGraph &G) {
  // For the acyclic case a reverse-topological sweep would do; this version
  // handles cycles too by iterating to a fixed point (regions are small:
  // the paper caps them at 64 blocks).
  std::vector<BitSet> Reach(G.numNodes(), BitSet(G.numNodes()));
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned N = 0; N != G.numNodes(); ++N)
      for (unsigned S : G.succs(N)) {
        if (!Reach[N].test(S)) {
          Reach[N].set(S);
          Changed = true;
        }
        Changed |= Reach[N].unionWith(Reach[S]);
      }
  }
  return Reach;
}

std::vector<unsigned> gis::topologicalOrder(const DiGraph &G) {
  // Kahn's algorithm over the nodes reachable from the entry.
  BitSet Reachable = reachableFrom(G, G.entry());
  std::vector<unsigned> InDegree(G.numNodes(), 0);
  for (unsigned N = 0; N != G.numNodes(); ++N) {
    if (!Reachable.test(N))
      continue;
    for (unsigned S : G.succs(N))
      if (Reachable.test(S))
        ++InDegree[S];
  }
  std::vector<unsigned> Ready;
  // Keep node-index order within ties for determinism; process smallest
  // index first via a sorted insertion into a worklist.
  for (unsigned N = 0; N != G.numNodes(); ++N)
    if (Reachable.test(N) && InDegree[N] == 0)
      Ready.push_back(N);
  std::vector<unsigned> Order;
  for (size_t K = 0; K != Ready.size(); ++K) {
    unsigned N = Ready[K];
    Order.push_back(N);
    for (unsigned S : G.succs(N))
      if (Reachable.test(S) && --InDegree[S] == 0)
        Ready.push_back(S);
  }
  GIS_ASSERT(Order.size() == Reachable.count(),
             "topologicalOrder called on a cyclic graph");
  return Order;
}

bool gis::isAcyclic(const DiGraph &G) {
  BitSet Reachable = reachableFrom(G, G.entry());
  std::vector<unsigned> InDegree(G.numNodes(), 0);
  unsigned NumReachable = 0;
  for (unsigned N = 0; N != G.numNodes(); ++N) {
    if (!Reachable.test(N))
      continue;
    ++NumReachable;
    for (unsigned S : G.succs(N))
      if (Reachable.test(S))
        ++InDegree[S];
  }
  std::vector<unsigned> Ready;
  for (unsigned N = 0; N != G.numNodes(); ++N)
    if (Reachable.test(N) && InDegree[N] == 0)
      Ready.push_back(N);
  size_t Done = 0;
  for (size_t K = 0; K != Ready.size(); ++K) {
    ++Done;
    for (unsigned S : G.succs(Ready[K]))
      if (Reachable.test(S) && --InDegree[S] == 0)
        Ready.push_back(S);
  }
  return Done == NumReachable;
}
