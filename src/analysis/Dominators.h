//===- analysis/Dominators.h - Dominator / postdominator trees -*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator trees over DiGraphs (Cooper-Harvey-Kennedy iterative
/// algorithm).  Postdominators are dominators of the reversed graph with a
/// virtual exit node.  These implement the paper's Definitions 1-3
/// (dominates, postdominates, equivalent).
///
//===----------------------------------------------------------------------===//

#ifndef GIS_ANALYSIS_DOMINATORS_H
#define GIS_ANALYSIS_DOMINATORS_H

#include "analysis/Graph.h"

namespace gis {

/// Constant marking "no immediate dominator" (the root) or an unreachable
/// node.
constexpr unsigned NoDominator = ~0u;

/// Dominator tree of a DiGraph.
class DomTree {
public:
  /// Builds the dominator tree of \p G rooted at its entry.
  explicit DomTree(const DiGraph &G);

  /// Immediate dominator of \p N; NoDominator for the root and for
  /// unreachable nodes.
  unsigned idom(unsigned N) const { return IDom[N]; }

  /// True if \p N is reachable from the root.
  bool isReachable(unsigned N) const {
    return N == Root || IDom[N] != NoDominator;
  }

  /// True if \p A dominates \p B (reflexive: a node dominates itself).
  bool dominates(unsigned A, unsigned B) const;

  /// True if \p A strictly dominates \p B.
  bool strictlyDominates(unsigned A, unsigned B) const {
    return A != B && dominates(A, B);
  }

  /// Depth of \p N in the tree (root has depth 0); 0 for unreachable nodes.
  unsigned depth(unsigned N) const { return Depth[N]; }

  unsigned root() const { return Root; }

  /// Children of \p N in the dominator tree, in reverse postorder.
  NodeRange children(unsigned N) const {
    return {ChildIdx.data() + ChildOff[N], ChildIdx.data() + ChildOff[N + 1]};
  }

private:
  unsigned Root;
  std::vector<unsigned> IDom;
  std::vector<unsigned> Depth;
  /// Children, compressed sparse row: node N's are
  /// ChildIdx[ChildOff[N] .. ChildOff[N + 1]).
  std::vector<unsigned> ChildOff;
  std::vector<unsigned> ChildIdx;
};

/// A postdominator tree: the dominator tree of the reversed graph with a
/// virtual exit appended.  Node indices 0..N-1 are the original nodes; the
/// virtual exit is node N.
class PostDomTree {
public:
  /// Builds postdominators for \p G.  Every node without successors gets an
  /// edge to the virtual exit.  When \p ExtraExits is non-empty, those
  /// nodes are also connected to the virtual exit (used for region graphs
  /// whose exits leave the region rather than ending the function).
  explicit PostDomTree(const DiGraph &G,
                       const std::vector<unsigned> &ExtraExits = {});

  unsigned virtualExit() const { return ExitNode; }

  /// Immediate postdominator of \p N (possibly the virtual exit).
  unsigned ipdom(unsigned N) const { return Tree.idom(N); }

  /// True if \p B postdominates \p A (reflexive).
  bool postDominates(unsigned B, unsigned A) const {
    return Tree.dominates(B, A);
  }

  bool isReachable(unsigned N) const { return Tree.isReachable(N); }

  const DomTree &tree() const { return Tree; }

private:
  static DiGraph buildReversed(const DiGraph &G,
                               const std::vector<unsigned> &ExtraExits);

  unsigned ExitNode;
  DomTree Tree;
};

/// The paper's Definition 3: A and B are equivalent iff A dominates B and
/// B postdominates A (checked on one graph's dom and postdom trees).
inline bool areEquivalent(const DomTree &Dom, const PostDomTree &PDom,
                          unsigned A, unsigned B) {
  return Dom.dominates(A, B) && PDom.postDominates(B, A);
}

} // namespace gis

#endif // GIS_ANALYSIS_DOMINATORS_H
