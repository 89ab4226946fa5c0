//===- analysis/DataDeps.h - Instruction data dependences -------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data subgraph of the PDG for one scheduling region (paper Section
/// 4.2).  Edges are flow (def -> use, carrying the machine delay),
/// anti (use -> def), output (def -> def) and memory dependences, computed
/// both intra-block and inter-block (for block pairs connected in the
/// region's forward CFG), with the paper's transitive reduction: an edge is
/// skipped when it is implied by already-recorded edges.
///
/// Collapsed inner loops appear as single "barrier" nodes that aggregate
/// the loop's register defs/uses and act as memory-touching, immovable
/// pseudo-instructions, so no instruction can be moved across an inner
/// loop it depends on.
///
/// Layout (DESIGN.md section 14): the graph is struct-of-arrays.  Nodes
/// are two words; register def/use facts (including barrier payloads) live
/// in one flat SpanArena; the adjacency is compressed-sparse-row (one
/// offsets array plus one edge-index array per direction), so the
/// scheduler's per-pick successor walks are sequential index scans, not
/// pointer chases; the transitive closure is one flat node x node bit
/// matrix.  The builder visits only dependent pairs: for each node, the
/// earlier nodes that share a register with it (per-register def and use
/// rows, linear in the region's register facts) and the earlier memory
/// nodes it can conflict with.  Every skipped pair would have classified
/// to no edge, so the edge list, its order and the disambiguator's
/// questions are those of a walk over all pairs.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_ANALYSIS_DATADEPS_H
#define GIS_ANALYSIS_DATADEPS_H

#include "analysis/Region.h"
#include "machine/MachineDescription.h"
#include "support/Arena.h"

#include <vector>

namespace gis {

struct DisambigFacts;

/// Kind of a data dependence edge (paper Section 4.2).
enum class DepKind : uint8_t {
  Flow,   ///< register defined in From, used in To (carries a delay)
  Anti,   ///< register used in From, defined in To
  Output, ///< register defined in both
  Memory, ///< unresolved memory conflict
};

/// Returns a short name for \p K ("flow", "anti", ...).
const char *depKindName(DepKind K);

/// One dependence edge between DDG node indices.
struct DepEdge {
  unsigned From;
  unsigned To;
  DepKind Kind;
  unsigned Delay; ///< nonzero only on flow edges (paper Section 4.2)
};

/// The data dependence graph of one region.
class DataDeps {
public:
  /// One DDG node: a real instruction or an inner-loop barrier.  Register
  /// facts (and a barrier's aggregate payload) live in the shared arena,
  /// reachable through defs()/uses() below.
  struct Node {
    InstrId Instr = InvalidId; ///< valid for real instructions
    unsigned RegionNode = 0;   ///< owning node in the SchedRegion

    bool isBarrier() const { return Instr == InvalidId; }
  };

  /// Coarse size/footprint numbers of one graph, surfaced through the obs
  /// coldpath counters (bytes are capacity of the flat buffers, i.e. what
  /// the arena reserved, not a malloc-accurate footprint).
  struct Stats {
    unsigned Nodes = 0;
    unsigned Edges = 0;
    uint64_t ArenaBytes = 0;
  };

  /// Builds the DDG for region \p R of function \p F, with flow-edge
  /// delays taken from \p MD.  \p Facts are the calling phase's
  /// disambiguation facts of \p F (DESIGN.md section 15); without them the
  /// disambiguator derives its own.
  static DataDeps compute(const Function &F, const SchedRegion &R,
                          const MachineDescription &MD,
                          const DisambigFacts *Facts = nullptr);

  const std::vector<Node> &ddgNodes() const { return Nodes; }
  unsigned numNodes() const { return static_cast<unsigned>(Nodes.size()); }
  const Node &ddgNode(unsigned N) const { return Nodes[N]; }

  /// Registers defined / used by node \p N (a barrier's aggregate payload
  /// for summary nodes).
  SpanRange<Reg> defs(unsigned N) const { return {FactRegs, DefSpan[N]}; }
  SpanRange<Reg> uses(unsigned N) const { return {FactRegs, UseSpan[N]}; }

  /// DDG node index of \p Instr, or -1 when the instruction is not in the
  /// region's real blocks.
  int nodeOfInstr(InstrId Instr) const {
    return Instr < InstrToNode.size() ? InstrToNode[Instr] : -1;
  }

  const std::vector<DepEdge> &edges() const { return Edges; }

  /// Indices into edges() of the edges leaving / entering \p Node: CSR
  /// rows, iterable ranges over the flat index arrays.
  NodeRange succEdges(unsigned Node) const {
    return {SuccIdx.data() + SuccOff[Node],
            SuccIdx.data() + SuccOff[Node + 1]};
  }
  NodeRange predEdges(unsigned Node) const {
    return {PredIdx.data() + PredOff[Node],
            PredIdx.data() + PredOff[Node + 1]};
  }

  /// True if there is a direct edge From -> To.
  bool hasEdge(unsigned From, unsigned To) const {
    for (unsigned E : succEdges(From))
      if (Edges[E].To == To)
        return true;
    return false;
  }

  /// True if \p From reaches \p To through dependence edges (transitive).
  bool depends(unsigned From, unsigned To) const {
    return Ancestors.test(To, From);
  }

  /// Size and reserved-bytes numbers for the obs coldpath counters.
  Stats stats() const;

private:
  std::vector<Node> Nodes;
  std::vector<int> InstrToNode;
  std::vector<DepEdge> Edges;
  /// Per-node register facts, flattened: one arena, two spans per node.
  SpanArena<Reg> FactRegs;
  std::vector<ArenaSpan> DefSpan;
  std::vector<ArenaSpan> UseSpan;
  /// CSR adjacency: node N's outgoing edge indices are
  /// SuccIdx[SuccOff[N] .. SuccOff[N + 1]), incoming likewise; built in one
  /// counting sort after edge discovery.
  std::vector<unsigned> SuccOff;
  std::vector<unsigned> SuccIdx;
  std::vector<unsigned> PredOff;
  std::vector<unsigned> PredIdx;
  /// Row N = DDG nodes with a dependence path into N.
  BitMatrix Ancestors;
};

} // namespace gis

#endif // GIS_ANALYSIS_DATADEPS_H
