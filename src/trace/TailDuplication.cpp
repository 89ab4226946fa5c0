//===- trace/TailDuplication.cpp - Superblock tail duplication -------------===//

#include "trace/TailDuplication.h"

#include "ir/Checkpoint.h"
#include "support/Assert.h"
#include "support/FaultInjection.h"
#include "trace/TraceFormation.h"

#include <algorithm>

using namespace gis;

namespace {

/// The block \p B falls through into, or InvalidId when its terminator
/// never falls through (unconditional branch, return).
BlockId fallthroughOf(const Function &F, BlockId B) {
  InstrId T = F.terminatorOf(B);
  if (T != InvalidId) {
    Opcode Op = F.instr(T).opcode();
    if (Op != Opcode::BT && Op != Opcode::BF)
      return InvalidId;
  }
  return F.layoutSuccessor(B);
}

} // namespace

TailDuplicationStats gis::duplicateTails(Function &F, SuperblockTrace &Trace,
                                         unsigned &BudgetLeft,
                                         DeltaCheckpoint *Ckpt) {
  TailDuplicationStats Stats;
  F.recomputeCFG();
  int IPos = findFirstSideEntrance(F, Trace.Blocks);
  if (IPos < 0) {
    Trace.SideEntrances.clear();
    return Stats;
  }
  const unsigned I = static_cast<unsigned>(IPos);
  const unsigned N = static_cast<unsigned>(Trace.Blocks.size());

  // The whole tail from the first entrance is cloned at once: that clears
  // every entrance at or after position I in one pass (positions before I
  // have none, I being the first), so the budget decision is one number.
  uint64_t Cost = 0;
  for (unsigned J = I; J < N; ++J)
    Cost += F.block(Trace.Blocks[J]).size();
  if (Cost > BudgetLeft) {
    Trace.Blocks.resize(I);
    Trace.SideEntrances.clear();
    Stats.TracesTruncated = 1;
    return Stats;
  }

  auto ChainPos = [&](BlockId B) -> int {
    for (unsigned K = 0; K != N; ++K)
      if (Trace.Blocks[K] == B)
        return static_cast<int>(K);
    return -1;
  };

  // Capture side predecessors and fall-through targets before any layout
  // mutation (clone and trampoline creation edit the layout in place).
  std::vector<std::vector<BlockId>> SidePreds(N);
  for (unsigned J = I; J < N; ++J) {
    std::vector<BlockId> Ps;
    for (BlockId P : F.block(Trace.Blocks[J]).preds())
      if (P != Trace.Blocks[J - 1])
        Ps.push_back(P);
    std::sort(Ps.begin(), Ps.end());
    Ps.erase(std::unique(Ps.begin(), Ps.end()), Ps.end());
    SidePreds[J] = std::move(Ps);
  }
  std::vector<BlockId> FallOf(N, InvalidId);
  for (unsigned J = I; J < N; ++J)
    FallOf[J] = fallthroughOf(F, Trace.Blocks[J]);

  // Clone the tail blocks contiguously at the end of the layout, so the
  // chain's consecutive fall-throughs are preserved clone-to-clone.
  if (Ckpt)
    Ckpt->noteLayout();
  std::vector<BlockId> Clone(N, InvalidId);
  for (unsigned J = I; J < N; ++J) {
    BlockId C = F.createBlock(F.block(Trace.Blocks[J]).label() + ".dup");
    Clone[J] = C;
    for (InstrId Id : F.block(Trace.Blocks[J]).instrs()) {
      F.block(C).instrs().push_back(F.cloneInstr(Id));
      ++Stats.ClonedInstrs;
    }
    ++Stats.ClonedBlocks;
  }
  BudgetLeft -= static_cast<unsigned>(Cost);

  // Fault stage "tail-dup": lose one duplicate.  The function stays
  // structurally well-formed (or trips the verifier), but a path through
  // the clones now skips an instruction -- the lost-duplicate bug class
  // the transaction's oracle must catch (tests/superblock_test.cpp).
  if (Stats.ClonedInstrs &&
      FaultInjector::instance().shouldFire("tail-dup")) {
    for (unsigned J = I; J < N; ++J) {
      std::vector<InstrId> &L = F.block(Clone[J]).instrs();
      if (!L.empty()) {
        L.erase(L.begin());
        Stats.FaultInjected = true;
        break;
      }
    }
  }

  // Intra-chain taken edges of the clones follow the clone chain; the
  // loop-back to the trace head (position 0) keeps targeting the original
  // head, like a rotated loop's back edge.  Targets strictly between the
  // head and the clone's own position are impossible: such an edge would
  // have been a side entrance before position I.
  for (unsigned J = I; J < N; ++J) {
    InstrId T = F.terminatorOf(Clone[J]);
    if (T == InvalidId || !F.instr(T).isBranch())
      continue;
    int M = ChainPos(F.instr(T).target());
    GIS_ASSERT(M <= 0 || M > static_cast<int>(J),
               "backward intra-trace edge survived formation");
    if (M > static_cast<int>(J))
      F.instr(T).setTarget(Clone[M]);
  }

  // Fall-through fixups: a clone whose original falls through must reach
  // the corresponding clone (or the original off-chain/head target).  The
  // contiguous clone layout already realizes the consecutive case; the
  // rest get an explicit branch -- appended when the clone has no
  // terminator, else via a fresh block right after it (a block holds at
  // most one terminator, and it must be last: ir/Verifier.cpp).
  for (unsigned J = I; J < N; ++J) {
    BlockId X = FallOf[J];
    if (X == InvalidId)
      continue;
    int M = ChainPos(X);
    GIS_ASSERT(M <= 0 || M > static_cast<int>(J),
               "backward intra-trace fall-through survived formation");
    BlockId Desired = M > static_cast<int>(J) ? Clone[M] : X;
    BlockId ActualNext = J + 1 < N ? Clone[J + 1] : InvalidId;
    if (Desired == ActualNext)
      continue;
    Instruction Br(Opcode::B);
    Br.setTarget(Desired);
    if (F.terminatorOf(Clone[J]) == InvalidId) {
      F.appendInstr(Clone[J], std::move(Br));
    } else {
      BlockId Fix =
          F.createBlockAfter(Clone[J], F.block(Clone[J]).label() + ".ft");
      F.appendInstr(Fix, std::move(Br));
      ++Stats.TrampolineBlocks;
    }
  }

  // Redirect every side predecessor into the clone chain.  Taken edges
  // retarget in place; fall-through edges cannot (no second terminator),
  // so a trampoline block with an unconditional branch is spliced into the
  // layout right after the predecessor.
  for (unsigned J = I; J < N; ++J) {
    for (BlockId P : SidePreds[J]) {
      InstrId T = F.terminatorOf(P);
      if (T != InvalidId && F.instr(T).isBranch() &&
          F.instr(T).target() == Trace.Blocks[J]) {
        if (Ckpt)
          Ckpt->noteInstr(T);
        F.instr(T).setTarget(Clone[J]);
      }
      bool CanFall = T == InvalidId || F.instr(T).opcode() == Opcode::BT ||
                     F.instr(T).opcode() == Opcode::BF;
      if (CanFall && F.layoutSuccessor(P) == Trace.Blocks[J]) {
        BlockId Tr = F.createBlockAfter(P, F.block(P).label() + ".tramp");
        Instruction Br(Opcode::B);
        Br.setTarget(Clone[J]);
        F.appendInstr(Tr, std::move(Br));
        ++Stats.TrampolineBlocks;
      }
    }
  }

  F.recomputeCFG();
  F.renumberOriginalOrder();
  Trace.SideEntrances.clear();
  return Stats;
}
