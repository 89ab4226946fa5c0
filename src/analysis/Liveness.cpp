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
/// \p ClassBase of a universe of \p U registers, into the rows \p UEVar
/// and \p Kill (clear on entry).
void localSets(const Function &F, BlockId B,
               const std::array<unsigned, 3> &ClassBase, unsigned U,
               uint64_t *UEVar, uint64_t *Kill) {
  auto Index = [&](Reg R) {
    GIS_ASSERT(R.isValid(), "liveness query on invalid register");
    unsigned Idx = ClassBase[static_cast<unsigned>(R.regClass())] + R.index();
    GIS_ASSERT(Idx < U, "register outside the liveness universe");
    return Idx;
  };
  for (InstrId Id : F.block(B).instrs()) {
    const Instruction &I = F.instr(Id);
    for (Reg R : I.uses()) {
      unsigned Idx = Index(R);
      if (!((Kill[Idx / 64] >> (Idx % 64)) & 1))
        UEVar[Idx / 64] |= uint64_t(1) << (Idx % 64);
    }
    for (Reg R : I.defs()) {
      unsigned Idx = Index(R);
      Kill[Idx / 64] |= uint64_t(1) << (Idx % 64);
    }
  }
}

/// One backward transfer step for a block whose successors' live-in union
/// is in \p Out: when Out differs from the cached \p LiveOut row, stores it
/// and recomputes \p LiveIn = UEVar | (Out - Kill).  Returns true when
/// LiveIn changed.  (LiveIn is a function of LiveOut, so an unchanged
/// LiveOut leaves nothing to redo.)
bool transfer(const uint64_t *Out, const uint64_t *UEVar,
              const uint64_t *Kill, uint64_t *LiveOut, uint64_t *LiveIn,
              unsigned Words) {
  if (std::equal(Out, Out + Words, LiveOut))
    return false;
  std::copy(Out, Out + Words, LiveOut);
  bool Changed = false;
  for (unsigned W = 0; W != Words; ++W) {
    uint64_t In = (Out[W] & ~Kill[W]) | UEVar[W];
    Changed |= In != LiveIn[W];
    LiveIn[W] = In;
  }
  return Changed;
}

void unionRow(uint64_t *Dst, const uint64_t *Src, unsigned Words) {
  for (unsigned W = 0; W != Words; ++W)
    Dst[W] |= Src[W];
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
  BitMatrix UEVar(N, U), Kill(N, U);
  for (BlockId B = 0; B != N; ++B)
    localSets(F, B, LV.ClassBase, U, UEVar.row(B), Kill.row(B));

  // Seed LiveIn with the upward-exposed uses so the "LiveIn is a function
  // of LiveOut" early-out in transfer() is valid from the first sweep.
  LV.LiveIn = UEVar;
  LV.LiveOut.assign(N, U);

  // Backward fixed point: LiveOut(B) = union of LiveIn(S);
  // LiveIn(B) = UEVar(B) | (LiveOut(B) - Kill(B)).
  unsigned Words = UEVar.wordsPerRow();
  std::vector<uint64_t> Out(Words);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned K = N; K-- > 0;) {
      BlockId B = K;
      std::fill(Out.begin(), Out.end(), 0);
      for (BlockId S : F.block(B).succs())
        unionRow(Out.data(), LV.LiveIn.row(S), Words);
      Changed |= transfer(Out.data(), UEVar.row(B), Kill.row(B),
                          LV.LiveOut.row(B), LV.LiveIn.row(B), Words);
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
  forEachLiveOut(B, [&](Reg R) { Out.push_back(R); });
  return Out;
}

std::vector<Reg> Liveness::liveInRegs(BlockId B) const {
  std::vector<Reg> In;
  forEachLiveIn(B, [&](Reg R) { In.push_back(R); });
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
  unsigned N = static_cast<unsigned>(LS.Blocks.size());

  LS.SlotOf.assign(F.numBlocks(), -1);
  for (unsigned S = 0; S != N; ++S)
    LS.SlotOf[LS.Blocks[S]] = static_cast<int>(S);

  std::vector<GraphEdge> Edges;
  LS.BoundaryOff.assign(N + 1, 0);
  for (unsigned S = 0; S != N; ++S) {
    size_t First = LS.BoundaryRegs.size();
    for (BlockId Succ : F.block(LS.Blocks[S]).succs()) {
      if (LS.ownsBlock(Succ)) {
        // In-region successor -- includes the back edge to the region
        // entry, so liveness that re-enters the loop is solved, not frozen.
        Edges.push_back({S, LS.slotOf(Succ)});
      } else {
        // Out-of-region successor (loop exit or collapsed child-loop
        // entry): freeze its live-in set as a boundary constant.
        WholeLV.forEachLiveIn(Succ,
                              [&](Reg Rg) { LS.BoundaryRegs.push_back(Rg); });
      }
    }
    auto Begin = LS.BoundaryRegs.begin() + static_cast<long>(First);
    std::sort(Begin, LS.BoundaryRegs.end());
    LS.BoundaryRegs.erase(std::unique(Begin, LS.BoundaryRegs.end()),
                          LS.BoundaryRegs.end());
    LS.BoundaryOff[S + 1] = static_cast<unsigned>(LS.BoundaryRegs.size());
  }
  LS.InRegion = DiGraph(N, 0, Edges);

  LS.recompute(F);
  return LS;
}

bool RegionLiveness::rebuildSlotSets(const Function &F, unsigned S) {
  unsigned Words = UEVars.wordsPerRow();
  uint64_t *NewUEVar = Scratch.data(), *NewKill = Scratch.data() + Words;
  std::fill(Scratch.begin(), Scratch.end(), 0);
  localSets(F, Blocks[S], ClassBase, Universe, NewUEVar, NewKill);
  bool Changed = !std::equal(NewUEVar, NewUEVar + Words, UEVars.row(S)) ||
                 !std::equal(NewKill, NewKill + Words, Kills.row(S));
  std::copy(NewUEVar, NewUEVar + Words, UEVars.row(S));
  std::copy(NewKill, NewKill + Words, Kills.row(S));
  return Changed;
}

void RegionLiveness::recompute(const Function &F) {
  // Dense universe from the function's *current* counters so registers
  // created by renaming since build() are representable.
  Universe = denseBases(F, ClassBase);

  unsigned U = Universe;
  unsigned N = static_cast<unsigned>(Blocks.size());

  UEVars.assign(N, U);
  Kills.assign(N, U);
  BoundaryBits.assign(N, U);
  for (unsigned S = 0; S != N; ++S) {
    localSets(F, Blocks[S], ClassBase, U, UEVars.row(S), Kills.row(S));
    for (unsigned K = BoundaryOff[S]; K != BoundaryOff[S + 1]; ++K)
      BoundaryBits.set(S, denseIndex(BoundaryRegs[K]));
  }

  LiveIns.assign(N, U);
  LiveOuts.assign(N, U);
  Scratch.assign(2 * static_cast<size_t>(UEVars.wordsPerRow()), 0);
  solve(std::vector<uint8_t>(N, 1));
}

unsigned RegionLiveness::solve(const std::vector<uint8_t> &Affected) {
  // Reset the affected slots to bottom and re-solve the restricted system
  // with the other slots' live-in sets frozen (exact: every in-region
  // successor of an unaffected slot is unaffected).  The frozen boundary
  // plays the role of the out-of-region successors' live-in sets.
  unsigned N = static_cast<unsigned>(Blocks.size());
  unsigned Words = UEVars.wordsPerRow();
  unsigned Resolved = 0;
  for (unsigned S = 0; S != N; ++S) {
    if (!Affected[S])
      continue;
    ++Resolved;
    std::copy(UEVars.row(S), UEVars.row(S) + Words, LiveIns.row(S));
    LiveOuts.clearRow(S);
  }
  uint64_t *Out = Scratch.data();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned K = N; K-- > 0;) {
      if (!Affected[K])
        continue;
      std::copy(BoundaryBits.row(K), BoundaryBits.row(K) + Words, Out);
      for (unsigned T : InRegion.succs(K))
        unionRow(Out, LiveIns.row(T), Words);
      Changed |= transfer(Out, UEVars.row(K), Kills.row(K), LiveOuts.row(K),
                          LiveIns.row(K), Words);
    }
  }
  return Resolved;
}

RegionLiveness::UpdateResult
RegionLiveness::recomputeBlocks(const Function &F,
                                const std::vector<BlockId> &Changed) {
  UpdateResult R;

  // Universe growth (renaming since the last solve) shifts the dense
  // per-class indexing; every cached row is then stale.  Full solve.
  std::array<unsigned, 3> NewBase;
  unsigned NewUniverse = denseBases(F, NewBase);
  unsigned N = static_cast<unsigned>(Blocks.size());
  if (NewBase != ClassBase || NewUniverse != Universe) {
    recompute(F);
    R.Full = true;
    R.BlocksResolved = N;
    return R;
  }

  // Re-derive the edited blocks' summaries (each block once); unchanged
  // summaries leave the old solution a valid (least) fixpoint.
  std::vector<unsigned> Work;
  for (auto It = Changed.begin(); It != Changed.end(); ++It) {
    if (std::find(Changed.begin(), It, *It) != It)
      continue;
    unsigned S = slotOf(*It);
    if (rebuildSlotSets(F, S))
      Work.push_back(S);
  }
  if (Work.empty())
    return R;

  // Affected slots: everything that reaches a dirty slot inside the
  // region (backward walk over in-region predecessor edges; the frozen
  // boundary never changes, so out-of-region paths contribute nothing).
  std::vector<uint8_t> Affected(N, 0);
  for (unsigned S : Work)
    Affected[S] = 1;
  while (!Work.empty()) {
    unsigned S = Work.back();
    Work.pop_back();
    for (unsigned P : InRegion.preds(S))
      if (!Affected[P]) {
        Affected[P] = 1;
        Work.push_back(P);
      }
  }

  R.BlocksResolved = solve(Affected);
  return R;
}
