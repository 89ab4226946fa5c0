//===- analysis/DataDeps.cpp - Instruction data dependences ----------------===//

#include "analysis/DataDeps.h"

#include "analysis/DisambigCache.h"
#include "analysis/MemDisambig.h"
#include "support/Assert.h"

#include <algorithm>
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
                           DisambigCache *Cache) {
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
  DD.Ancestors.assign(M, BitSet(M));

  // Block-level reachability in the region's forward graph (region-node
  // indices), from the shared memo when one is supplied: scheduling never
  // changes region shape, so the local pass, the global pass and every
  // region task of a function share one closure.
  std::shared_ptr<const std::vector<BitSet>> ReachShared;
  std::vector<BitSet> ReachLocal;
  const std::vector<BitSet> *Reach;
  if (Cache) {
    ReachShared = Cache->reachability(R.forwardGraph());
    Reach = ReachShared.get();
  } else {
    ReachLocal = allPairsReachability(R.forwardGraph());
    Reach = &ReachLocal;
  }

  MemDisambiguator Disambig(F, R, Cache);

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

  // Pairwise construction with the paper's transitive reduction: walk
  // sources in descending order; skip a pair already ordered by recorded
  // edges.  Only the edge list and the ancestor closure are maintained
  // here; the CSR adjacency is derived in one pass afterwards.
  for (unsigned B = 0; B != M; ++B) {
    unsigned BR = DD.Nodes[B].RegionNode;
    for (unsigned A = B; A-- > 0;) {
      unsigned AR = DD.Nodes[A].RegionNode;
      // Only pairs in the same block or with B's block reachable from A's.
      if (AR != BR && !(*Reach)[AR].test(BR))
        continue;
      if (DD.Ancestors[B].test(A))
        continue; // transitive: already ordered
      std::optional<DepKind> Kind = Classify(A, B);
      if (!Kind)
        continue;
      unsigned Delay = *Kind == DepKind::Flow ? FlowDelay(A, B) : 0;
      DD.Edges.push_back(DepEdge{A, B, *Kind, Delay});
      DD.Ancestors[B].set(A);
      DD.Ancestors[B].unionWith(DD.Ancestors[A]);
    }
  }

  // CSR adjacency: counting sort of edge indices by endpoint.  Filling in
  // edge-index order keeps each row in edge-creation order, matching the
  // append order the per-node vectors historically had.
  unsigned E = static_cast<unsigned>(DD.Edges.size());
  std::vector<unsigned> SuccOff(M + 1, 0), PredOff(M + 1, 0);
  for (const DepEdge &Ed : DD.Edges) {
    ++SuccOff[Ed.From + 1];
    ++PredOff[Ed.To + 1];
  }
  for (unsigned N = 0; N != M; ++N) {
    SuccOff[N + 1] += SuccOff[N];
    PredOff[N + 1] += PredOff[N];
  }
  std::vector<unsigned> SuccFlat(E), PredFlat(E);
  {
    std::vector<unsigned> SuccFill = SuccOff, PredFill = PredOff;
    for (unsigned EIdx = 0; EIdx != E; ++EIdx) {
      SuccFlat[SuccFill[DD.Edges[EIdx].From]++] = EIdx;
      PredFlat[PredFill[DD.Edges[EIdx].To]++] = EIdx;
    }
  }
  DD.SuccIdx.reserve(E);
  DD.PredIdx.reserve(E);
  DD.SuccIdx.append(SuccFlat);
  DD.PredIdx.append(PredFlat);
  DD.SuccSpan.resize(M);
  DD.PredSpan.resize(M);
  for (unsigned N = 0; N != M; ++N) {
    DD.SuccSpan[N] = ArenaSpan{SuccOff[N], SuccOff[N + 1] - SuccOff[N]};
    DD.PredSpan[N] = ArenaSpan{PredOff[N], PredOff[N + 1] - PredOff[N]};
  }

  return DD;
}

DataDeps::Stats DataDeps::stats() const {
  Stats S;
  S.Nodes = numNodes();
  S.Edges = static_cast<unsigned>(Edges.size());
  S.ArenaBytes = FactRegs.bytesReserved() + SuccIdx.bytesReserved() +
                 PredIdx.bytesReserved() +
                 static_cast<uint64_t>(Edges.capacity()) * sizeof(DepEdge) +
                 static_cast<uint64_t>(Nodes.capacity()) * sizeof(Node) +
                 static_cast<uint64_t>(DefSpan.capacity() +
                                       UseSpan.capacity() +
                                       SuccSpan.capacity() +
                                       PredSpan.capacity()) *
                     sizeof(ArenaSpan) +
                 static_cast<uint64_t>(numNodes()) *
                     ((numNodes() + 63) / 64) * sizeof(uint64_t);
  return S;
}
