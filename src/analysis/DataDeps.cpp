//===- analysis/DataDeps.cpp - Instruction data dependences ----------------===//

#include "analysis/DataDeps.h"

#include "analysis/MemDisambig.h"
#include "support/Assert.h"

#include <algorithm>
#include <functional>
#include <optional>

using namespace gis;

const char *gis::depKindName(DepKind K) {
  switch (K) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  case DepKind::Memory:
    return "memory";
  }
  gis_unreachable("invalid dep kind");
}

namespace {

bool intersects(SpanRange<Reg> A, SpanRange<Reg> B) {
  for (Reg X : A)
    for (Reg Y : B)
      if (X == Y)
        return true;
  return false;
}

} // namespace

DataDeps DataDeps::compute(const Function &F, const SchedRegion &R,
                           const MachineDescription &MD,
                           const DisambigFacts *Facts) {
  DataDeps DD;
  DD.InstrToNode.assign(F.numInstrs(), -1);

  // Memory/call summary bits, only needed during construction.
  std::vector<uint8_t> TouchesMemory, IsCallOrBarrier;

  // Reserve the flat buffers up front: the node count is exact (one per
  // region instruction plus one per barrier), the fact arena and edge
  // list get proportional guesses, killing most of the growth
  // reallocations the E13 profile charged to this builder.
  unsigned ApproxNodes = 0;
  for (unsigned RN : R.topoOrder()) {
    const RegionNode &Node = R.node(RN);
    ApproxNodes += Node.isBlock()
                       ? static_cast<unsigned>(F.block(Node.Block).instrs().size())
                       : 1;
  }
  DD.Nodes.reserve(ApproxNodes);
  DD.DefSpan.reserve(ApproxNodes);
  DD.UseSpan.reserve(ApproxNodes);
  DD.FactRegs.reserve(ApproxNodes * 3);
  DD.Edges.reserve(ApproxNodes * 4);
  TouchesMemory.reserve(ApproxNodes);
  IsCallOrBarrier.reserve(ApproxNodes);

  // Node list, in region topological order; program order within blocks.
  // Register facts go straight into the flat arena: a real instruction's
  // def/use lists, a barrier's aggregate payload (computed by
  // SchedRegion::build), addressed uniformly through DefSpan/UseSpan.
  for (unsigned RN : R.topoOrder()) {
    const RegionNode &Node = R.node(RN);
    if (Node.isBlock()) {
      for (InstrId I : F.block(Node.Block).instrs()) {
        DD.InstrToNode[I] = static_cast<int>(DD.Nodes.size());
        const Instruction &Ins = F.instr(I);
        DD.Nodes.push_back(DataDeps::Node{I, RN});
        DD.DefSpan.push_back(DD.FactRegs.append(Ins.defs()));
        DD.UseSpan.push_back(DD.FactRegs.append(Ins.uses()));
        TouchesMemory.push_back(Ins.touchesMemory());
        IsCallOrBarrier.push_back(Ins.isCall());
      }
      continue;
    }
    // Inner-loop barrier.
    DD.Nodes.push_back(DataDeps::Node{InvalidId, RN});
    DD.DefSpan.push_back(DD.FactRegs.append(Node.SummaryDefs));
    DD.UseSpan.push_back(DD.FactRegs.append(Node.SummaryUses));
    TouchesMemory.push_back(1);
    IsCallOrBarrier.push_back(1);
  }

  unsigned M = DD.numNodes();
  DD.Ancestors.assign(M, M);

  // Block-level reachability in the region's forward graph (region-node
  // indices).
  const std::vector<BitSet> Reach = allPairsReachability(R.forwardGraph());

  MemDisambiguator Disambig(F, R, Facts);

  auto MemConflict = [&](unsigned A, unsigned B) {
    if (!TouchesMemory[A] || !TouchesMemory[B])
      return false;
    if (IsCallOrBarrier[A] || IsCallOrBarrier[B])
      return true;
    const Instruction &IA = F.instr(DD.Nodes[A].Instr);
    const Instruction &IB = F.instr(DD.Nodes[B].Instr);
    if (IA.isLoad() && IB.isLoad())
      return false; // loads never conflict with loads
    return !Disambig.provablyDisjoint(DD.Nodes[A].Instr, DD.Nodes[B].Instr);
  };

  // Dependence classification; Flow wins (it carries the delay).
  auto Classify = [&](unsigned A, unsigned B) -> std::optional<DepKind> {
    if (intersects(DD.defs(A), DD.uses(B)))
      return DepKind::Flow;
    if (intersects(DD.uses(A), DD.defs(B)))
      return DepKind::Anti;
    if (intersects(DD.defs(A), DD.defs(B)))
      return DepKind::Output;
    if (MemConflict(A, B))
      return DepKind::Memory;
    return std::nullopt;
  };

  auto FlowDelay = [&](unsigned A, unsigned B) -> unsigned {
    if (DD.Nodes[A].isBarrier() || DD.Nodes[B].isBarrier())
      return 0;
    return MD.flowDelay(F.instr(DD.Nodes[A].Instr).opcode(),
                        F.instr(DD.Nodes[B].Instr).opcode());
  };

  // Register side of the candidate sources.  Number the region's distinct
  // registers densely (sorting the fact positions by register), then give
  // each register two rows -- row 2r the nodes so far that define it, row
  // 2r+1 those that use it -- stored flat and sized by the fact counts, so
  // memory stays linear in the region's register facts.
  const size_t NumFacts = DD.FactRegs.size();
  const Reg *RegFacts = DD.FactRegs.data();
  std::vector<uint64_t> ByReg(NumFacts);
  for (size_t P = 0; P != NumFacts; ++P)
    ByReg[P] = uint64_t(RegFacts[P].key()) << 32 | P;
  std::sort(ByReg.begin(), ByReg.end());
  std::vector<unsigned> FactReg(NumFacts);
  unsigned NumRegs = 0;
  for (size_t K = 0; K != NumFacts; ++K) {
    if (K != 0 && ByReg[K] >> 32 != ByReg[K - 1] >> 32)
      ++NumRegs;
    FactReg[static_cast<uint32_t>(ByReg[K])] = NumRegs;
  }
  NumRegs += NumFacts != 0;

  auto ForEachFact = [&](ArenaSpan S, auto Fn) {
    for (uint32_t P = S.Offset, E = S.Offset + S.Length; P != E; ++P)
      Fn(FactReg[P]);
  };
  std::vector<unsigned> RowOff(2 * NumRegs + 1, 0);
  for (unsigned N = 0; N != M; ++N) {
    ForEachFact(DD.DefSpan[N], [&](unsigned Rg) { ++RowOff[2 * Rg + 1]; });
    ForEachFact(DD.UseSpan[N], [&](unsigned Rg) { ++RowOff[2 * Rg + 2]; });
  }
  for (unsigned K = 0; K != 2 * NumRegs; ++K)
    RowOff[K + 1] += RowOff[K];
  std::vector<unsigned> RowEnd(RowOff.begin(), RowOff.end() - 1);
  std::vector<unsigned> RowNodes(NumFacts);

  // Memory side: the memory nodes so far, and those that are not plain
  // loads.
  std::vector<unsigned> MemNodes, MemWriters;

  // Construction with the paper's transitive reduction: for each node B,
  // walk its candidate sources in descending order; skip a pair already
  // ordered by recorded edges.  Only the edge list and the ancestor closure
  // are maintained here; the CSR adjacency is derived in one pass
  // afterwards.
  std::vector<unsigned> Cands;
  for (unsigned B = 0; B != M; ++B) {
    Cands.clear();
    auto AddRow = [&](unsigned Row) {
      Cands.insert(Cands.end(), RowNodes.begin() + RowOff[Row],
                   RowNodes.begin() + RowEnd[Row]);
    };
    // Earlier defs of what B uses (flow); earlier defs and uses of what B
    // defines (output, anti).
    ForEachFact(DD.UseSpan[B], [&](unsigned Rg) { AddRow(2 * Rg); });
    ForEachFact(DD.DefSpan[B], [&](unsigned Rg) {
      AddRow(2 * Rg);
      AddRow(2 * Rg + 1);
    });
    // Earlier memory nodes B can conflict with: a plain load only those
    // that are not plain loads (stores, calls, barriers), any other memory
    // node every one (MemConflict answers no for a load pair unasked).
    bool BLoad = TouchesMemory[B] && !IsCallOrBarrier[B] &&
                 F.instr(DD.Nodes[B].Instr).isLoad();
    if (TouchesMemory[B]) {
      const std::vector<unsigned> &Mem = BLoad ? MemWriters : MemNodes;
      Cands.insert(Cands.end(), Mem.begin(), Mem.end());
    }
    std::sort(Cands.begin(), Cands.end(), std::greater<unsigned>());
    Cands.erase(std::unique(Cands.begin(), Cands.end()), Cands.end());

    unsigned BR = DD.Nodes[B].RegionNode;
    uint64_t *BAnc = DD.Ancestors.row(B);
    for (unsigned A : Cands) {
      unsigned AR = DD.Nodes[A].RegionNode;
      // Only pairs in the same block or with B's block reachable from A's.
      if (AR != BR && !Reach[AR].test(BR))
        continue;
      if (DD.Ancestors.test(B, A))
        continue; // transitive: already ordered
      std::optional<DepKind> Kind = Classify(A, B);
      if (!Kind)
        continue;
      unsigned Delay = *Kind == DepKind::Flow ? FlowDelay(A, B) : 0;
      DD.Edges.push_back(DepEdge{A, B, *Kind, Delay});
      DD.Ancestors.set(B, A);
      // A's ancestors all precede A, so only the words up to A's own can
      // hold any.
      const uint64_t *AAnc = DD.Ancestors.row(A);
      for (unsigned W = 0, E = A / 64 + 1; W != E; ++W)
        BAnc[W] |= AAnc[W];
    }

    // B joins the rows of its registers (once per row) and the memory
    // lists, as a source for the nodes after it.
    auto Append = [&](unsigned Row) {
      if (RowEnd[Row] == RowOff[Row] || RowNodes[RowEnd[Row] - 1] != B)
        RowNodes[RowEnd[Row]++] = B;
    };
    ForEachFact(DD.DefSpan[B], [&](unsigned Rg) { Append(2 * Rg); });
    ForEachFact(DD.UseSpan[B], [&](unsigned Rg) { Append(2 * Rg + 1); });
    if (TouchesMemory[B]) {
      MemNodes.push_back(B);
      if (!BLoad)
        MemWriters.push_back(B);
    }
  }

  // CSR adjacency: counting sort of edge indices by endpoint.  Filling in
  // edge-index order keeps each row in edge-creation order.
  unsigned E = static_cast<unsigned>(DD.Edges.size());
  auto EdgeIndex = [](unsigned I) { return I; };
  countingSortRows(
      M, E, [&](unsigned I) { return DD.Edges[I].From; }, EdgeIndex,
      DD.SuccOff, DD.SuccIdx);
  countingSortRows(
      M, E, [&](unsigned I) { return DD.Edges[I].To; }, EdgeIndex,
      DD.PredOff, DD.PredIdx);

  return DD;
}

DataDeps::Stats DataDeps::stats() const {
  Stats S;
  S.Nodes = numNodes();
  S.Edges = static_cast<unsigned>(Edges.size());
  S.ArenaBytes = FactRegs.bytesReserved() + Ancestors.bytesReserved() +
                 static_cast<uint64_t>(Edges.capacity()) * sizeof(DepEdge) +
                 static_cast<uint64_t>(Nodes.capacity()) * sizeof(Node) +
                 static_cast<uint64_t>(DefSpan.capacity() +
                                       UseSpan.capacity()) *
                     sizeof(ArenaSpan) +
                 static_cast<uint64_t>(SuccOff.capacity() + SuccIdx.capacity() +
                                       PredOff.capacity() +
                                       PredIdx.capacity()) *
                     sizeof(unsigned);
  return S;
}
