//===- analysis/Region.cpp - Scheduling regions ----------------------------===//

#include "analysis/Region.h"

#include <algorithm>
#include <map>

using namespace gis;

void SchedRegion::indexBlocks() {
  BlockId Hi = 0;
  BlockBase = InvalidId; // stays so, with an empty map, without blocks
  for (const RegionNode &N : Nodes)
    if (N.isBlock()) {
      BlockBase = std::min(BlockBase, N.Block);
      Hi = std::max(Hi, N.Block);
    }
  BlockToNode.assign(BlockBase == InvalidId ? 0 : Hi - BlockBase + 1, -1);
  for (unsigned K = 0; K != numNodes(); ++K)
    if (Nodes[K].isBlock()) {
      int &Slot = BlockToNode[Nodes[K].Block - BlockBase];
      GIS_ASSERT(Slot < 0, "block owned by two region nodes");
      Slot = static_cast<int>(K);
    }
}

SchedRegion SchedRegion::buildSingleBlock(const Function &F, BlockId B) {
  SchedRegion R;
  R.LoopIdx = -1;
  RegionNode N;
  N.Block = B;
  R.Nodes.push_back(N);
  R.indexBlocks();
  R.RealBlocks = 1;
  R.NumInstrs = static_cast<unsigned>(F.block(B).size());
  R.Forward = DiGraph(1, 0, {});
  R.Entry = 0;
  R.Topo = {0};
  return R;
}

SchedRegion SchedRegion::buildTrace(const Function &F,
                                    const std::vector<BlockId> &Chain,
                                    int TraceIndex) {
  GIS_ASSERT(!Chain.empty(), "superblock trace must be nonempty");
  GIS_ASSERT(TraceIndex >= 0, "trace index must be nonnegative");
  SchedRegion R;
  R.LoopIdx = -2 - TraceIndex;
  for (BlockId B : Chain) {
    RegionNode N;
    N.Block = B;
    R.Nodes.push_back(N);
    ++R.RealBlocks;
    R.NumInstrs += static_cast<unsigned>(F.block(B).size());
  }
  R.indexBlocks(); // asserts that no block repeats
  R.Entry = 0;

  // Forward edges: in-chain CFG edges (necessarily to the next chain
  // position, by the single-entry property), minus a loop-back edge to
  // the head.  Any off-chain successor is a side exit of the superblock.
  std::vector<GraphEdge> Edges;
  BitSet IsExit(R.numNodes());
  for (unsigned N = 0; N != R.numNodes(); ++N) {
    for (BlockId S : F.block(Chain[N]).succs()) {
      int To = R.nodeOfBlock(S);
      if (To < 0) {
        IsExit.set(N);
        continue;
      }
      if (static_cast<unsigned>(To) == R.Entry)
        continue; // loop-back to the trace head, like a loop back edge
      GIS_ASSERT(static_cast<unsigned>(To) == N + 1,
                 "superblock edge must go to the next trace block");
      Edges.push_back({N, static_cast<unsigned>(To)});
    }
  }
  R.Forward = DiGraph(R.numNodes(), R.Entry, Edges);
  IsExit.forEach([&](unsigned N) { R.Exits.push_back(N); });

  GIS_ASSERT(isAcyclic(R.Forward), "superblock forward graph must be acyclic");
  R.Topo = topologicalOrder(R.Forward);
  return R;
}

SchedRegion SchedRegion::build(const Function &F, const LoopInfo &LI,
                               int LoopIndex) {
  SchedRegion R;
  R.LoopIdx = LoopIndex;
  unsigned NumBlocks = F.numBlocks();

  // Universe of blocks: the loop's blocks, or all blocks for the top level.
  auto InUniverse = [&](BlockId B) {
    return LoopIndex < 0 || LI.loop(LoopIndex).Blocks.test(B);
  };

  // For a block inside a nested loop, the child loop of this region that
  // owns it (the ancestor at depth == region depth + 1).
  auto OwnerLoop = [&](BlockId B) -> int {
    int L = LI.innermostLoopOf(B);
    while (L >= 0 && LI.loop(L).Parent != LoopIndex)
      L = LI.loop(L).Parent;
    return L;
  };

  // Create nodes: direct blocks in layout order, then one summary per
  // immediate child loop (in first-encounter layout order).
  std::map<int, unsigned> SummaryNode;
  for (BlockId B : F.layout()) {
    if (!InUniverse(B))
      continue;
    int Inner = LI.innermostLoopOf(B);
    if (Inner == LoopIndex) {
      // Direct member.
      RegionNode N;
      N.Block = B;
      R.Nodes.push_back(N);
      ++R.RealBlocks;
      R.NumInstrs += static_cast<unsigned>(F.block(B).size());
    } else {
      int Child = OwnerLoop(B);
      GIS_ASSERT(Child >= 0, "block in universe with no owning child loop");
      if (!SummaryNode.count(Child)) {
        SummaryNode[Child] = static_cast<unsigned>(R.Nodes.size());
        RegionNode N;
        N.LoopIndex = Child;
        // Aggregate the loop's register traffic into the barrier payload.
        LI.loop(Child).Blocks.forEach([&](unsigned LB) {
          for (InstrId I : F.block(LB).instrs()) {
            const Instruction &Ins = F.instr(I);
            N.SummaryDefs.insert(N.SummaryDefs.end(), Ins.defs().begin(),
                                 Ins.defs().end());
            N.SummaryUses.insert(N.SummaryUses.end(), Ins.uses().begin(),
                                 Ins.uses().end());
          }
        });
        std::sort(N.SummaryDefs.begin(), N.SummaryDefs.end());
        N.SummaryDefs.erase(
            std::unique(N.SummaryDefs.begin(), N.SummaryDefs.end()),
            N.SummaryDefs.end());
        std::sort(N.SummaryUses.begin(), N.SummaryUses.end());
        N.SummaryUses.erase(
            std::unique(N.SummaryUses.begin(), N.SummaryUses.end()),
            N.SummaryUses.end());
        R.Nodes.push_back(std::move(N));
      }
    }
  }

  R.indexBlocks();

  // Node of any block in the universe (through summaries).
  auto NodeOf = [&](BlockId B) -> int {
    if (int N = R.nodeOfBlock(B); N >= 0)
      return N;
    int Child = OwnerLoop(B);
    auto It = SummaryNode.find(Child);
    return It == SummaryNode.end() ? -1 : static_cast<int>(It->second);
  };

  // Entry: the loop header (or function entry), possibly a summary node.
  BlockId EntryBlock = LoopIndex < 0 ? F.entry() : LI.loop(LoopIndex).Header;
  int EntryNode = NodeOf(EntryBlock);
  GIS_ASSERT(EntryNode >= 0, "region entry not found");
  R.Entry = static_cast<unsigned>(EntryNode);

  // Forward edges: all in-universe CFG edges, minus self edges (internal
  // to one summary) and minus back edges to the region entry.
  std::vector<GraphEdge> Edges;
  BitSet IsExit(R.numNodes());
  for (BlockId B = 0; B != NumBlocks; ++B) {
    if (!InUniverse(B))
      continue;
    int From = NodeOf(B);
    if (From < 0)
      continue;
    for (BlockId S : F.block(B).succs()) {
      if (!InUniverse(S)) {
        IsExit.set(static_cast<unsigned>(From));
        continue;
      }
      int To = NodeOf(S);
      if (To < 0 || To == From)
        continue;
      if (static_cast<unsigned>(To) == R.Entry)
        continue; // back edge
      Edges.push_back(
          {static_cast<unsigned>(From), static_cast<unsigned>(To)});
    }
  }
  R.Forward = DiGraph(R.numNodes(), R.Entry, Edges);
  IsExit.forEach([&](unsigned N) { R.Exits.push_back(N); });

  GIS_ASSERT(isAcyclic(R.Forward),
             "region forward graph must be acyclic (irreducible CFG?)");
  R.Topo = topologicalOrder(R.Forward);
  return R;
}
