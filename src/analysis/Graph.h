//===- analysis/Graph.h - Generic directed graph utilities -----*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dense directed-graph representation shared by the CFG-level
/// analyses (dominators, postdominators, control dependences, region
/// graphs).  Nodes are dense unsigned indices; callers keep the mapping to
/// blocks/instructions.  The adjacency is compressed sparse row (DESIGN.md
/// section 14): a graph costs four allocations however many nodes it has,
/// and every row walk is a sequential scan.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_ANALYSIS_GRAPH_H
#define GIS_ANALYSIS_GRAPH_H

#include "support/Assert.h"
#include "support/BitSet.h"

#include <vector>

namespace gis {

/// One directed edge, the input a DiGraph is built from.
struct GraphEdge {
  unsigned From;
  unsigned To;
};

/// A borrowed view of one compressed adjacency row (a DiGraph's successors
/// or predecessors, a DomTree's children), usable in range-for.
class NodeRange {
public:
  NodeRange(const unsigned *First, const unsigned *Last)
      : First(First), Last(Last) {}
  const unsigned *begin() const { return First; }
  const unsigned *end() const { return Last; }
  size_t size() const { return static_cast<size_t>(Last - First); }
  bool empty() const { return First == Last; }
  unsigned operator[](size_t I) const { return First[I]; }

private:
  const unsigned *First;
  const unsigned *Last;
};

/// Counting sort into compressed sparse rows: item I, for I from 0 to
/// NumItems - 1, files Value(I) under row Key(I) < NumRows.  \p Off gets
/// the NumRows + 1 row offsets and \p Idx the entries; each row keeps item
/// order.
template <typename KeyFn, typename ValueFn>
void countingSortRows(unsigned NumRows, unsigned NumItems, KeyFn Key,
                      ValueFn Value, std::vector<unsigned> &Off,
                      std::vector<unsigned> &Idx) {
  Off.assign(NumRows + 1, 0);
  for (unsigned I = 0; I != NumItems; ++I)
    ++Off[Key(I) + 1];
  for (unsigned R = 0; R != NumRows; ++R)
    Off[R + 1] += Off[R];
  // Off[R] serves as row R's fill cursor, which leaves it at row R+1's
  // start; shift back afterwards.
  Idx.resize(NumItems);
  for (unsigned I = 0; I != NumItems; ++I)
    Idx[Off[Key(I)]++] = Value(I);
  for (unsigned R = NumRows; R != 0; --R)
    Off[R] = Off[R - 1];
  Off[0] = 0;
}

/// Dense directed graph with a designated entry node, in compressed
/// sparse row form: one offsets array and one node-index array per
/// direction.  It is built once from an edge list and never mutated.
/// Each row keeps the edge list's order; a repeated edge is dropped, the
/// first occurrence wins (CFGs occasionally produce duplicates: a
/// conditional branch to the fall-through block).
class DiGraph {
public:
  DiGraph() = default;
  DiGraph(unsigned N, unsigned Entry, const std::vector<GraphEdge> &Edges);

  unsigned numNodes() const { return NumNodes; }
  unsigned entry() const { return EntryNode; }

  NodeRange succs(unsigned N) const {
    return {SuccIdx.data() + SuccOff[N], SuccIdx.data() + SuccOff[N + 1]};
  }
  NodeRange preds(unsigned N) const {
    return {PredIdx.data() + PredOff[N], PredIdx.data() + PredOff[N + 1]};
  }

  bool hasEdge(unsigned From, unsigned To) const {
    for (unsigned S : succs(From))
      if (S == To)
        return true;
    return false;
  }

private:
  unsigned NumNodes = 0;
  unsigned EntryNode = 0;
  std::vector<unsigned> SuccOff;
  std::vector<unsigned> SuccIdx;
  std::vector<unsigned> PredOff;
  std::vector<unsigned> PredIdx;
};

/// Reverse postorder of the nodes reachable from the entry.
std::vector<unsigned> reversePostOrder(const DiGraph &G);

/// Postorder of the nodes reachable from the entry.
std::vector<unsigned> postOrder(const DiGraph &G);

/// Bit set of nodes reachable from \p From.
BitSet reachableFrom(const DiGraph &G, unsigned From);

/// All-pairs reachability: Result[N] = set of nodes reachable from N
/// (excluding N itself unless N lies on a cycle through N).
std::vector<BitSet> allPairsReachability(const DiGraph &G);

/// A topological order of an acyclic graph (asserts on cycles).
std::vector<unsigned> topologicalOrder(const DiGraph &G);

/// True if the graph (restricted to nodes reachable from the entry) is
/// acyclic.
bool isAcyclic(const DiGraph &G);

} // namespace gis

#endif // GIS_ANALYSIS_GRAPH_H
