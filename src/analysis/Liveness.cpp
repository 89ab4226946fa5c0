//===- analysis/Liveness.cpp - Live-register dataflow ---------------------===//

#include "analysis/Liveness.h"

#include "analysis/Region.h"

#include <algorithm>
#include <utility>

using namespace gis;

namespace {

/// Dense per-class register numbering from \p F's register counters:
/// slot = class base + register index.  Returns the universe size.
unsigned denseBases(const Function &F, std::array<unsigned, 3> &ClassBase) {
  ClassBase[0] = 0;
  ClassBase[1] = F.numRegs(RegClass::GPR);
  ClassBase[2] = ClassBase[1] + F.numRegs(RegClass::FPR);
  return ClassBase[2] + F.numRegs(RegClass::CR);
}

/// Upward-exposed uses and kills of block \p B, in the numbering
/// \p ClassBase; \p UEVar and \p Kill must be empty on entry.
void localSets(const Function &F, BlockId B,
               const std::array<unsigned, 3> &ClassBase, BitSet &UEVar,
               BitSet &Kill) {
  auto Index = [&](Reg R) {
    GIS_ASSERT(R.isValid(), "liveness query on invalid register");
    return ClassBase[static_cast<unsigned>(R.regClass())] + R.index();
  };
  for (InstrId Id : F.block(B).instrs()) {
    const Instruction &I = F.instr(Id);
    for (Reg R : I.uses()) {
      unsigned Idx = Index(R);
      if (!Kill.test(Idx))
        UEVar.set(Idx);
    }
    for (Reg R : I.defs())
      Kill.set(Index(R));
  }
}

} // namespace

//===----------------------------------------------------------------------===
// Liveness
//===----------------------------------------------------------------------===

Liveness Liveness::compute(const Function &F) {
  Liveness LV;
  LV.Universe = denseBases(F, LV.ClassBase);

  unsigned U = LV.Universe;
  unsigned N = F.numBlocks();

  // Per block: upward-exposed uses and kills.
  std::vector<BitSet> UEVar(N, BitSet(U)), Kill(N, BitSet(U));
  for (BlockId B = 0; B != N; ++B)
    localSets(F, B, LV.ClassBase, UEVar[B], Kill[B]);

  // Seed LiveIn with the upward-exposed uses so the "LiveIn is a function
  // of LiveOut" early-out below is valid from the first sweep.
  LV.LiveIn = UEVar;
  LV.LiveOut.assign(N, BitSet(U));

  // Backward fixed point: LiveOut(B) = union of LiveIn(S);
  // LiveIn(B) = UEVar(B) | (LiveOut(B) - Kill(B)).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned K = N; K-- > 0;) {
      BlockId B = K;
      BitSet Out(U);
      for (BlockId S : F.block(B).succs())
        Out.unionWith(LV.LiveIn[S]);
      if (Out == LV.LiveOut[B])
        continue; // LiveIn is a function of LiveOut: nothing to redo
      BitSet In = Out;
      In.subtract(Kill[B]);
      In.unionWith(UEVar[B]);
      LV.LiveOut[B] = std::move(Out);
      if (!(In == LV.LiveIn[B])) {
        LV.LiveIn[B] = std::move(In);
        Changed = true;
      }
    }
  }
  return LV;
}

Reg Liveness::regForIndex(unsigned Index) const {
  if (Index >= ClassBase[2])
    return Reg::cr(Index - ClassBase[2]);
  if (Index >= ClassBase[1])
    return Reg::fpr(Index - ClassBase[1]);
  return Reg::gpr(Index);
}

std::vector<Reg> Liveness::liveOutRegs(BlockId B) const {
  std::vector<Reg> Out;
  LiveOut[B].forEach([&](unsigned I) { Out.push_back(regForIndex(I)); });
  return Out;
}

std::vector<Reg> Liveness::liveInRegs(BlockId B) const {
  std::vector<Reg> In;
  LiveIn[B].forEach([&](unsigned I) { In.push_back(regForIndex(I)); });
  return In;
}

//===----------------------------------------------------------------------===
// RegionLiveness
//===----------------------------------------------------------------------===

RegionLiveness RegionLiveness::build(const Function &F, const SchedRegion &R,
                                     const Liveness &WholeLV) {
  RegionLiveness LS;
  for (const RegionNode &N : R.nodes())
    if (N.isBlock())
      LS.Blocks.push_back(N.Block);

  LS.SlotOf.assign(F.numBlocks(), -1);
  for (unsigned S = 0; S != LS.Blocks.size(); ++S)
    LS.SlotOf[LS.Blocks[S]] = static_cast<int>(S);

  LS.InSuccs.resize(LS.Blocks.size());
  LS.InPreds.resize(LS.Blocks.size());
  LS.Boundary.resize(LS.Blocks.size());
  for (unsigned S = 0; S != LS.Blocks.size(); ++S) {
    for (BlockId Succ : F.block(LS.Blocks[S]).succs()) {
      if (LS.ownsBlock(Succ)) {
        // In-region successor -- includes the back edge to the region
        // entry, so liveness that re-enters the loop is solved, not frozen.
        LS.InSuccs[S].push_back(LS.slotOf(Succ));
        LS.InPreds[LS.slotOf(Succ)].push_back(S);
      } else {
        // Out-of-region successor (loop exit or collapsed child-loop
        // entry): freeze its live-in set as a boundary constant.
        for (Reg Rg : WholeLV.liveInRegs(Succ))
          LS.Boundary[S].push_back(Rg);
      }
    }
    std::sort(LS.Boundary[S].begin(), LS.Boundary[S].end());
    LS.Boundary[S].erase(
        std::unique(LS.Boundary[S].begin(), LS.Boundary[S].end()),
        LS.Boundary[S].end());
  }

  LS.recompute(F);
  return LS;
}

bool RegionLiveness::rebuildSlotSets(const Function &F, unsigned S) {
  BitSet NewUEVar(Universe), NewKill(Universe);
  localSets(F, Blocks[S], ClassBase, NewUEVar, NewKill);
  bool Changed = !(NewUEVar == UEVars[S]) || !(NewKill == Kills[S]);
  UEVars[S] = std::move(NewUEVar);
  Kills[S] = std::move(NewKill);
  return Changed;
}

void RegionLiveness::recompute(const Function &F) {
  // Dense universe from the function's *current* counters so registers
  // created by renaming since build() are representable.
  Universe = denseBases(F, ClassBase);

  unsigned U = Universe;
  unsigned N = static_cast<unsigned>(Blocks.size());

  UEVars.assign(N, BitSet(U));
  Kills.assign(N, BitSet(U));
  BoundaryBits.assign(N, BitSet(U));
  for (unsigned S = 0; S != N; ++S) {
    localSets(F, Blocks[S], ClassBase, UEVars[S], Kills[S]);
    for (Reg Rg : Boundary[S])
      BoundaryBits[S].set(denseIndex(Rg));
  }

  LiveIns.assign(N, BitSet(U));
  LiveOuts.assign(N, BitSet(U));
  solve(std::vector<uint8_t>(N, 1));
}

unsigned RegionLiveness::solve(const std::vector<uint8_t> &Affected) {
  // Reset the affected slots to bottom and re-solve the restricted system
  // with the other slots' live-in sets frozen (exact: every in-region
  // successor of an unaffected slot is unaffected).  The frozen boundary
  // plays the role of the out-of-region successors' live-in sets.
  unsigned N = static_cast<unsigned>(Blocks.size());
  unsigned Resolved = 0;
  for (unsigned S = 0; S != N; ++S) {
    if (!Affected[S])
      continue;
    ++Resolved;
    LiveIns[S] = UEVars[S];
    LiveOuts[S].clear();
  }
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned K = N; K-- > 0;) {
      if (!Affected[K])
        continue;
      BitSet Out = BoundaryBits[K];
      for (unsigned T : InSuccs[K])
        Out.unionWith(LiveIns[T]);
      if (Out == LiveOuts[K])
        continue; // LiveIn is a function of LiveOut: nothing to redo
      BitSet In = Out;
      In.subtract(Kills[K]);
      In.unionWith(UEVars[K]);
      LiveOuts[K] = std::move(Out);
      if (!(In == LiveIns[K])) {
        LiveIns[K] = std::move(In);
        Changed = true;
      }
    }
  }
  return Resolved;
}

RegionLiveness::UpdateResult
RegionLiveness::recomputeBlocks(const Function &F,
                                const std::vector<BlockId> &Changed) {
  UpdateResult R;

  // Universe growth (renaming since the last solve) shifts the dense
  // per-class indexing; every cached bit set is then stale.  Full solve.
  std::array<unsigned, 3> NewBase;
  unsigned NewUniverse = denseBases(F, NewBase);
  unsigned N = static_cast<unsigned>(Blocks.size());
  if (NewBase != ClassBase || NewUniverse != Universe) {
    recompute(F);
    R.Full = true;
    R.BlocksResolved = N;
    return R;
  }

  // Re-derive the edited blocks' summaries; unchanged summaries leave the
  // old solution a valid (least) fixpoint.
  std::vector<unsigned> DirtySlots;
  std::vector<uint8_t> Seen(N, 0);
  for (BlockId B : Changed) {
    unsigned S = slotOf(B);
    if (Seen[S])
      continue;
    Seen[S] = 1;
    if (rebuildSlotSets(F, S))
      DirtySlots.push_back(S);
  }
  if (DirtySlots.empty())
    return R;

  // Affected slots: everything that reaches a dirty slot inside the
  // region (backward walk over in-region predecessor edges; the frozen
  // boundary never changes, so out-of-region paths contribute nothing).
  std::vector<uint8_t> Affected(N, 0);
  std::vector<unsigned> Work = DirtySlots;
  for (unsigned S : Work)
    Affected[S] = 1;
  while (!Work.empty()) {
    unsigned S = Work.back();
    Work.pop_back();
    for (unsigned P : InPreds[S])
      if (!Affected[P]) {
        Affected[P] = 1;
        Work.push_back(P);
      }
  }

  R.BlocksResolved = solve(Affected);
  return R;
}
