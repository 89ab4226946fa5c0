//===- sched/ScheduleVerifier.cpp - Semantic schedule verifier -------------===//

#include "sched/ScheduleVerifier.h"

#include "analysis/Liveness.h"
#include "analysis/PDG.h"
#include "support/Format.h"
#include "support/Hashing.h"

#include <algorithm>

using namespace gis;

namespace {

/// Placement of one instruction: owning region node plus index in its
/// block's instruction list.
struct Placement {
  unsigned Node = 0;
  unsigned Idx = 0;
  bool Valid = false;
};

/// A possibly-overlaid read view of a function: block lists and pool
/// entries resolve through the override tables when present (the scoped
/// verifier overlays the region snapshot onto the post-pass function to
/// reconstruct the "before" side), else straight from \p F.  CFG edges
/// always come from \p F -- a pure scheduling pass never changes them.
struct FuncView {
  const Function *F = nullptr;
  const std::vector<const std::vector<InstrId> *> *Lists = nullptr;
  const std::vector<const Instruction *> *Instrs = nullptr;

  const std::vector<InstrId> &listOf(BlockId B) const {
    if (Lists && (*Lists)[B])
      return *(*Lists)[B];
    return F->block(B).instrs();
  }
  const Instruction &instrOf(InstrId I) const {
    if (Instrs && (*Instrs)[I])
      return *(*Instrs)[I];
    return F->instr(I);
  }
};

/// Read instructions witnessing "D is live on exit from B" in \p V: every
/// read of D reachable from B's exit before an intervening def.  Sorted by
/// id.  Conservation (checked before any caller runs) guarantees the
/// before and after functions share instruction ids, so the same read can
/// be looked up on both sides.
std::vector<InstrId> liveOutWitnesses(const FuncView &V, BlockId B, Reg D) {
  const Function &F = *V.F;
  std::vector<InstrId> Witnesses;
  std::vector<bool> Visited(F.numBlocks(), false);
  std::vector<BlockId> Work(F.block(B).succs().begin(),
                            F.block(B).succs().end());
  while (!Work.empty()) {
    BlockId Cur = Work.back();
    Work.pop_back();
    if (Cur >= Visited.size() || Visited[Cur])
      continue;
    Visited[Cur] = true;
    bool Killed = false;
    for (InstrId I : V.listOf(Cur)) {
      if (V.instrOf(I).usesReg(D))
        Witnesses.push_back(I); // reads happen before the same instr's write
      if (V.instrOf(I).definesReg(D)) {
        Killed = true;
        break;
      }
    }
    if (!Killed)
      for (BlockId S : F.block(Cur).succs())
        Work.push_back(S);
  }
  std::sort(Witnesses.begin(), Witnesses.end());
  return Witnesses;
}

/// True when the two sorted witness lists share an instruction.
bool shareWitness(const std::vector<InstrId> &A, const std::vector<InstrId> &B) {
  size_t I = 0, J = 0;
  while (I != A.size() && J != B.size()) {
    if (A[I] == B[J])
      return true;
    A[I] < B[J] ? ++I : ++J;
  }
  return false;
}

/// Placements of every instruction sitting in one of the region's real
/// blocks of \p F.
std::vector<Placement> placementsOf(const Function &F, const SchedRegion &R) {
  std::vector<Placement> P(F.numInstrs());
  for (unsigned N = 0; N != R.numNodes(); ++N) {
    if (!R.node(N).isBlock())
      continue;
    const std::vector<InstrId> &Instrs = F.block(R.node(N).Block).instrs();
    for (unsigned K = 0; K != Instrs.size(); ++K) {
      if (Instrs[K] >= P.size())
        continue; // structurally ill-formed; the IR verifier reports it
      P[Instrs[K]] = {N, K, true};
    }
  }
  return P;
}

/// Content hash of one block's instruction list (the scoped verifier's
/// out-of-region change detector).
uint64_t hashInstrList(const std::vector<InstrId> &List) {
  return Fingerprint().addU32s(List.data(), List.size()).hash();
}

/// The rule checks shared by both verifier entry points, from the
/// dependence-edge sweep down.  \p BV / \p AV are the before/after read
/// views; \p SkipEdge (optional) tells the edge sweep an edge is provably
/// still forward (both endpoints' home blocks untouched) and can be
/// skipped without changing the emitted diagnostics -- untouched
/// endpoints sit at their construction placements, and every recorded
/// edge ran forward at construction.
void checkMotions(const std::function<void(std::string)> &Problem,
                  const FuncView &BV, const FuncView &AV, const SchedRegion &R,
                  const PDG &P, const std::vector<unsigned> &TopoPos,
                  const std::function<bool(const DepEdge &)> &SkipEdge,
                  const Liveness *LVBefore, const Liveness *LVAfter) {
  const Function &After = *AV.F;
  const DataDeps &DD = P.dataDeps();
  std::vector<Placement> NewPos = placementsOf(After, R);

  // Dependence order: every recorded DDG edge still runs forward.  (The
  // DDG is transitively reduced; per-edge order is transitive, so checking
  // recorded edges enforces all implied ones.)
  auto NodePosOk = [&](unsigned FromNode, unsigned ToNode, unsigned FromIdx,
                       unsigned ToIdx) {
    if (FromNode != ToNode)
      return TopoPos[FromNode] < TopoPos[ToNode];
    return FromIdx < ToIdx;
  };
  for (const DepEdge &E : DD.edges()) {
    const DataDeps::Node &FN = DD.ddgNode(E.From);
    const DataDeps::Node &TN = DD.ddgNode(E.To);
    if (FN.isBarrier() && TN.isBarrier())
      continue; // summaries never move
    if (SkipEdge && SkipEdge(E))
      continue;
    bool Ok;
    if (FN.isBarrier())
      Ok = TopoPos[FN.RegionNode] < TopoPos[NewPos[TN.Instr].Node];
    else if (TN.isBarrier())
      Ok = TopoPos[NewPos[FN.Instr].Node] < TopoPos[TN.RegionNode];
    else
      Ok = NodePosOk(NewPos[FN.Instr].Node, NewPos[TN.Instr].Node,
                     NewPos[FN.Instr].Idx, NewPos[TN.Instr].Idx);
    if (!Ok)
      Problem(formatString("%s dependence %u -> %u no longer runs forward",
                           depKindName(E.Kind),
                           FN.isBarrier() ? ~0u : FN.Instr,
                           TN.isBarrier() ? ~0u : TN.Instr));
  }

  // Per-motion legality: upward only, pinned instructions stay, no
  // duplication-class motion, and the Section 5.3 live-on-exit rule.
  for (unsigned N = 0; N != DD.numNodes(); ++N) {
    const DataDeps::Node &Node = DD.ddgNode(N);
    if (Node.isBarrier())
      continue;
    InstrId I = Node.Instr;
    unsigned OldNode = Node.RegionNode;
    if (!NewPos[I].Valid)
      continue; // conservation already reported
    unsigned NewNode = NewPos[I].Node;
    if (OldNode == NewNode)
      continue;

    if (BV.instrOf(I).neverCrossesBlock()) {
      Problem(formatString("pinned instruction %u crossed blocks", I));
      continue;
    }
    if (!(TopoPos[NewNode] < TopoPos[OldNode])) {
      Problem(formatString("instruction %u moved downward", I));
      continue;
    }
    MotionClass MC = P.classifyMotion(OldNode, NewNode);
    if (MC.Kind == MotionKind::Duplication || MC.Kind == MotionKind::SpecAndDup)
      Problem(formatString("instruction %u moved off the dominance spine "
                           "(requires duplication)",
                           I));
    if (MC.Kind != MotionKind::Speculative)
      continue;

    // Speculative motion must not kill a register a bypassed path reads.
    // A renamed def is a fresh register (never live anywhere in the
    // original) and thus always safe; an un-renamed def is illegal when
    // some read that consumed the pre-motion value from the target block's
    // exit before the pass (a bypassed reader) still consumes from that
    // exit after it.  Comparing the live-out bits alone is not enough:
    // reads the moved def itself used to feed from its home block keep D
    // live on exit from the target block after the pass, and the original
    // bypassed reader may itself have been scheduled above the target or
    // renamed -- so the *same* read must witness liveness on both sides.
    // (A shared witness is itself a live-out proof on both sides, so the
    // live-out bit tests are a pure pre-filter: the scoped caller passes
    // no Liveness and the verdict is unchanged.)
    BlockId ABlock = R.node(NewNode).Block;
    for (Reg D : AV.instrOf(I).defs()) {
      if (!BV.instrOf(I).definesReg(D))
        continue; // renamed: fresh register
      if (LVBefore && LVAfter &&
          (!LVBefore->isLiveOut(ABlock, D) || !LVAfter->isLiveOut(ABlock, D)))
        continue;
      std::vector<InstrId> WB = liveOutWitnesses(BV, ABlock, D);
      if (WB.empty())
        continue;
      if (shareWitness(WB, liveOutWitnesses(AV, ABlock, D)))
        Problem(formatString("speculative instruction %u kills %s, live on "
                             "exit from %s",
                             I, D.str().c_str(),
                             After.block(ABlock).label().c_str()));
    }
  }

  // Parallel write-after-read: two motions from dependence-unordered
  // source blocks land in the same target block; a write of D placed
  // ahead of a read of D would feed the read the wrong value, and no DDG
  // edge exists to order them (the homes are on parallel paths).
  for (unsigned N = 0; N != R.numNodes(); ++N) {
    if (!R.node(N).isBlock())
      continue;
    const std::vector<InstrId> &List = After.block(R.node(N).Block).instrs();
    std::vector<std::pair<unsigned, InstrId>> MovedIn; // (ddg node, instr)
    for (InstrId I : List) {
      int DN = DD.nodeOfInstr(I);
      if (DN >= 0 && DD.ddgNode(DN).RegionNode != N)
        MovedIn.push_back({static_cast<unsigned>(DN), I});
    }
    for (unsigned A = 0; A != MovedIn.size(); ++A)
      for (unsigned B = A + 1; B != MovedIn.size(); ++B) {
        auto [XN, X] = MovedIn[A]; // placed earlier
        auto [YN, Y] = MovedIn[B]; // placed later
        if (DD.depends(XN, YN) || DD.depends(YN, XN))
          continue; // ordered by the DDG; covered by the edge check
        for (Reg D : After.instr(X).defs())
          if (After.instr(Y).usesReg(D))
            Problem(formatString("write of %s (instruction %u) reordered "
                                 "ahead of a parallel read (instruction %u)",
                                 D.str().c_str(), X, Y));
      }
  }
}

std::vector<unsigned> topoPositions(const SchedRegion &R) {
  std::vector<unsigned> TopoPos(R.numNodes(), ~0u);
  for (unsigned K = 0; K != R.topoOrder().size(); ++K)
    TopoPos[R.topoOrder()[K]] = K;
  return TopoPos;
}

} // namespace

std::vector<std::string> gis::verifyRegionSchedule(const Function &Before,
                                                   const Function &After,
                                                   const SchedRegion &R,
                                                   const MachineDescription &MD,
                                                   const PDG *Prebuilt) {
  std::vector<std::string> Problems;
  auto Problem = [&](std::string Msg) {
    Problems.push_back("region schedule of '" + After.name() + "': " +
                       std::move(Msg));
  };

  // The pass reorders block contents only: the CFG shape is inviolable.
  if (Before.numBlocks() != After.numBlocks() ||
      Before.numInstrs() > After.numInstrs() ||
      Before.layout() != After.layout()) {
    Problem("CFG shape changed across a pure scheduling pass");
    return Problems;
  }

  std::vector<bool> InRegion(Before.numBlocks(), false);
  for (const RegionNode &N : R.nodes())
    if (N.isBlock())
      InRegion[N.Block] = true;
  for (BlockId B = 0; B != Before.numBlocks(); ++B)
    if (!InRegion[B] && Before.block(B).instrs() != After.block(B).instrs())
      Problem(formatString("block %s outside the region changed",
                           Before.block(B).label().c_str()));

  // Conservation: the region holds exactly the original instructions.
  std::vector<InstrId> OldIds, NewIds;
  for (const RegionNode &N : R.nodes()) {
    if (!N.isBlock())
      continue;
    const auto &BI = Before.block(N.Block).instrs();
    const auto &AI = After.block(N.Block).instrs();
    OldIds.insert(OldIds.end(), BI.begin(), BI.end());
    NewIds.insert(NewIds.end(), AI.begin(), AI.end());
  }
  std::sort(OldIds.begin(), OldIds.end());
  std::sort(NewIds.begin(), NewIds.end());
  if (OldIds != NewIds) {
    Problem(formatString("region instructions not conserved (%zu before, "
                         "%zu after)",
                         OldIds.size(), NewIds.size()));
    return Problems; // placements below assume conservation
  }

  std::vector<unsigned> TopoPos = topoPositions(R);

  PDG Fresh;
  if (!Prebuilt) {
    Fresh = PDG::build(Before, R, MD);
    Prebuilt = &Fresh;
  }

  Liveness LVBefore = Liveness::compute(Before);
  Liveness LVAfter = Liveness::compute(After);
  FuncView BV{&Before, nullptr, nullptr};
  FuncView AV{&After, nullptr, nullptr};
  checkMotions(Problem, BV, AV, R, *Prebuilt, TopoPos, nullptr, &LVBefore,
               &LVAfter);
  return Problems;
}

ScopedVerifyContext ScopedVerifyContext::capture(const Function &F,
                                                 const SchedRegion &R) {
  ScopedVerifyContext Ctx;
  Ctx.NumBlocks = F.numBlocks();
  Ctx.NumInstrs = F.numInstrs();
  Ctx.Layout = F.layout();
  Ctx.InRegion.assign(F.numBlocks(), 0);
  for (const RegionNode &N : R.nodes())
    if (N.isBlock())
      Ctx.InRegion[N.Block] = 1;
  Ctx.OutListHash.assign(F.numBlocks(), 0);
  for (BlockId B = 0; B != F.numBlocks(); ++B)
    if (!Ctx.InRegion[B])
      Ctx.OutListHash[B] = hashInstrList(F.block(B).instrs());
  return Ctx;
}

std::vector<std::string> gis::verifyRegionScheduleScoped(
    const ScopedVerifyContext &Ctx, const RegionSnapshot &BeforeRegion,
    const Function &After, const SchedRegion &R, const MachineDescription &MD,
    const PDG &P, ScopedVerifyStats *Stats) {
  (void)MD;
  std::vector<std::string> Problems;
  auto Problem = [&](std::string Msg) {
    Problems.push_back("region schedule of '" + After.name() + "': " +
                       std::move(Msg));
  };

  // The pass reorders block contents only: the CFG shape is inviolable.
  if (Ctx.NumBlocks != After.numBlocks() || Ctx.NumInstrs > After.numInstrs() ||
      Ctx.Layout != After.layout()) {
    Problem("CFG shape changed across a pure scheduling pass");
    return Problems;
  }

  // The before side below is the snapshot's view: its lists, its noted
  // pool entries, every other entry read from After.  It must fingerprint
  // to the capture manifest, or a rewrite went unnoted and the checks
  // would compare After with itself.
  if (!BeforeRegion.viewMatchesManifest(After)) {
    Problem("pre-pass view of the region does not match its snapshot "
            "manifest (a rewrite was not noted)");
    return Problems;
  }

  // Out-of-region sweep against the captured fingerprints (the full
  // verifier compares the lists themselves; a 64-bit content hash stands
  // in for the untouched copy we no longer keep).
  for (BlockId B = 0; B != After.numBlocks(); ++B)
    if (!Ctx.InRegion[B] &&
        hashInstrList(After.block(B).instrs()) != Ctx.OutListHash[B])
      Problem(formatString("block %s outside the region changed",
                           After.block(B).label().c_str()));

  // The before side of the region, overlaid from the rollback snapshot:
  // per-block pre-pass lists, and the pre-pass pool entries the scheduler
  // noted before renaming rewrote them (renaming rewrites operands of
  // region instructions only -- a local def's uses are block-local by
  // construction -- so every other pool entry is identical on both sides;
  // DESIGN.md section 15).
  std::vector<const std::vector<InstrId> *> BeforeLists(After.numBlocks(),
                                                        nullptr);
  const std::vector<BlockId> &SnapBlocks = BeforeRegion.blocks();
  for (unsigned K = 0; K != SnapBlocks.size(); ++K)
    BeforeLists[SnapBlocks[K]] = &BeforeRegion.blockInstrs()[K];
  std::vector<const Instruction *> BeforeInstrs(After.numInstrs(), nullptr);
  for (const auto &[Id, Ins] : BeforeRegion.instrs())
    if (Id < BeforeInstrs.size())
      BeforeInstrs[Id] = &Ins;

  // Conservation: the region holds exactly the original instructions.
  std::vector<InstrId> OldIds, NewIds;
  for (const std::vector<InstrId> &BI : BeforeRegion.blockInstrs())
    OldIds.insert(OldIds.end(), BI.begin(), BI.end());
  for (const RegionNode &N : R.nodes()) {
    if (!N.isBlock())
      continue;
    const auto &AI = After.block(N.Block).instrs();
    NewIds.insert(NewIds.end(), AI.begin(), AI.end());
  }
  std::sort(OldIds.begin(), OldIds.end());
  std::sort(NewIds.begin(), NewIds.end());
  if (OldIds != NewIds) {
    Problem(formatString("region instructions not conserved (%zu before, "
                         "%zu after)",
                         OldIds.size(), NewIds.size()));
    return Problems; // placements below assume conservation
  }

  std::vector<unsigned> TopoPos = topoPositions(R);
  const DataDeps &DD = P.dataDeps();

  // Touched region nodes: block list differs from the snapshot.  An
  // untouched node's instructions all sit at their construction
  // placements, so a dependence edge between two untouched homes is
  // still forward by construction and can be skipped exactly.
  std::vector<uint8_t> NodeTouched(R.numNodes(), 1);
  unsigned Touched = 0, Total = 0;
  for (unsigned N = 0; N != R.numNodes(); ++N) {
    if (!R.node(N).isBlock())
      continue;
    ++Total;
    BlockId B = R.node(N).Block;
    bool Same =
        BeforeLists[B] && *BeforeLists[B] == After.block(B).instrs();
    NodeTouched[N] = Same ? 0 : 1;
    Touched += NodeTouched[N];
  }
  if (Stats) {
    Stats->BlocksVerified = Touched;
    Stats->BlocksTotal = Total;
  }
  auto SkipEdge = [&](const DepEdge &E) {
    const DataDeps::Node &FN = DD.ddgNode(E.From);
    const DataDeps::Node &TN = DD.ddgNode(E.To);
    bool FromUntouched = FN.isBarrier() || !NodeTouched[FN.RegionNode];
    bool ToUntouched = TN.isBarrier() || !NodeTouched[TN.RegionNode];
    return FromUntouched && ToUntouched;
  };

  FuncView BV{&After, &BeforeLists, &BeforeInstrs};
  FuncView AV{&After, nullptr, nullptr};
  checkMotions(Problem, BV, AV, R, P, TopoPos, SkipEdge, nullptr, nullptr);
  return Problems;
}
