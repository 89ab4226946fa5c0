//===- analysis/Region.h - Scheduling regions -------------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's scheduling regions (Section 5.1): a region is either the
/// body of a loop or the body of the function without enclosed loops.
/// Inner loops are collapsed to opaque "summary" nodes: instructions never
/// move out of or into a region, and the back edges to the region's header
/// are removed, so the region graph is acyclic (the forward CFG on which
/// the forward control dependence graph is built).
///
//===----------------------------------------------------------------------===//

#ifndef GIS_ANALYSIS_REGION_H
#define GIS_ANALYSIS_REGION_H

#include "analysis/Graph.h"
#include "analysis/LoopInfo.h"
#include "ir/Function.h"

namespace gis {

/// A node of a region graph: a real basic block or a collapsed inner loop.
struct RegionNode {
  BlockId Block = InvalidId; ///< valid when this is a real block
  int LoopIndex = -1;        ///< valid when this is a loop summary
  /// For summaries: the collapsed loop's aggregate register defs/uses
  /// (sorted, unique), used by DataDeps to treat the loop as one opaque
  /// barrier instruction.
  std::vector<Reg> SummaryDefs;
  std::vector<Reg> SummaryUses;

  bool isBlock() const { return Block != InvalidId; }
  bool isLoopSummary() const { return LoopIndex >= 0; }
};

/// One scheduling region.
class SchedRegion {
public:
  /// Builds the region for loop \p LoopIndex of \p LI, or, when
  /// \p LoopIndex is -1, the top-level region (the function body with all
  /// outermost loops collapsed).
  static SchedRegion build(const Function &F, const LoopInfo &LI,
                           int LoopIndex);

  /// A degenerate region holding a single basic block: what the
  /// basic-block scheduler (sched/LocalScheduler.h) schedules each block
  /// as.  It needs no loop forest, so irreducible control flow is no
  /// obstacle, and it allocates in proportion to the block alone.
  static SchedRegion buildSingleBlock(const Function &F, BlockId B);

  /// Builds a superblock region over \p Chain: a linear single-entry
  /// trace (trace/TraceFormation.h) whose blocks appear in trace order.
  /// The caller guarantees the single-entry property -- every block but
  /// the head has the preceding chain block as its only CFG predecessor
  /// (tail duplication restores this when formation crossed a join) --
  /// so the head dominates every trace block and region dominance over
  /// the chain is exact, as it is for a loop region (entered only through
  /// its header).  Off-chain successors become region exits; a
  /// loop-back edge to the head is dropped like a loop region's back
  /// edge.  \p TraceIndex tags the region for diagnostics (encoded in
  /// loopIndex() as -2 - TraceIndex; see isTrace()/traceIndex()).
  static SchedRegion buildTrace(const Function &F,
                                const std::vector<BlockId> &Chain,
                                int TraceIndex);

  /// The loop this region represents (-1 for the top-level region;
  /// values <= -2 encode superblock traces, see buildTrace).
  int loopIndex() const { return LoopIdx; }

  /// True when this region is a superblock trace (built by buildTrace).
  bool isTrace() const { return LoopIdx <= -2; }

  /// The trace index this superblock region was built from, or -1.
  int traceIndex() const { return isTrace() ? -2 - LoopIdx : -1; }

  const std::vector<RegionNode> &nodes() const { return Nodes; }
  unsigned numNodes() const { return static_cast<unsigned>(Nodes.size()); }
  const RegionNode &node(unsigned N) const { return Nodes[N]; }

  /// The acyclic forward graph over region nodes (back edges to the entry
  /// removed, inner loops collapsed).
  const DiGraph &forwardGraph() const { return Forward; }

  unsigned entryNode() const { return Entry; }

  /// Region node owning \p B directly (not through a summary), or -1.
  int nodeOfBlock(BlockId B) const {
    return B >= BlockBase && B - BlockBase < BlockToNode.size()
               ? BlockToNode[B - BlockBase]
               : -1;
  }

  /// Nodes with CFG edges that leave the region (loop exits); these are
  /// attached to the virtual exit when computing postdominators.
  const std::vector<unsigned> &exitNodes() const { return Exits; }

  /// Topological order of the forward graph (entry first).
  const std::vector<unsigned> &topoOrder() const { return Topo; }

  /// Number of real basic blocks in the region (the paper's 64-block cap).
  unsigned numRealBlocks() const { return RealBlocks; }

  /// Number of instructions in the region's real blocks (the paper's
  /// 256-instruction cap).
  unsigned numInstrs() const { return NumInstrs; }

private:
  /// Fills BlockBase and BlockToNode from the real-block nodes.
  void indexBlocks();

  int LoopIdx = -1;
  std::vector<RegionNode> Nodes;
  DiGraph Forward;
  unsigned Entry = 0;
  /// Node of block BlockBase + K at index K, -1 for blocks without one:
  /// the map spans the region's own blocks, from the lowest id.
  BlockId BlockBase = 0;
  std::vector<int> BlockToNode;
  std::vector<unsigned> Exits;
  std::vector<unsigned> Topo;
  unsigned RealBlocks = 0;
  unsigned NumInstrs = 0;
};

} // namespace gis

#endif // GIS_ANALYSIS_REGION_H
