//===- sched/Unroll.cpp - Loop unrolling -----------------------------------===//

#include "sched/Unroll.h"

#include "ir/Checkpoint.h"
#include "sched/LoopShape.h"
#include "support/Assert.h"

#include <algorithm>
#include <map>

using namespace gis;

bool gis::canUnrollOnce(const Function &F, const LoopInfo &LI,
                        unsigned LoopIdx) {
  const Loop &L = LI.loop(LoopIdx);
  std::vector<BlockId> Blocks = contiguousLoopBlocks(F, L);
  if (Blocks.empty())
    return false;

  // The last block must branch to the header (conditionally or not), so
  // the copy can be spliced in behind it without breaking fall-through.
  InstrId Term = F.terminatorOf(Blocks.back());
  if (Term == InvalidId)
    return false;
  const Instruction &T = F.instr(Term);
  if (!T.isBranch() || T.target() != L.Header)
    return false;

  // Every other latch must end in a branch to the header as well (no
  // fall-through back edges are possible since the header is first).
  for (BlockId Latch : L.Latches) {
    InstrId LT = F.terminatorOf(Latch);
    if (LT == InvalidId || !F.instr(LT).isBranch())
      return false;
  }
  return true;
}

bool gis::unrollLoopOnce(Function &F, const LoopInfo &LI, unsigned LoopIdx,
                         Status *Err, DeltaCheckpoint *Ckpt) {
  if (Err)
    *Err = Status::ok();
  if (!canUnrollOnce(F, LI, LoopIdx))
    return false;
  // Mid-flight invariant failure: report and leave rollback to the caller,
  // or abort when no error channel was provided.
  auto Fail = [&](const char *Msg) {
    if (!Err)
      fatalError(__FILE__, __LINE__, Msg);
    *Err = Status::error(ErrorCode::LoopTransformFailed, Msg);
    return false;
  };
  const Loop &L = LI.loop(LoopIdx);
  std::vector<BlockId> Blocks = contiguousLoopBlocks(F, L);
  BlockId Last = Blocks.back();

  // Create the copies, in order, right behind the loop.
  if (Ckpt)
    Ckpt->noteLayout();
  std::map<BlockId, BlockId> CopyOf;
  BlockId InsertAfter = Last;
  for (BlockId B : Blocks) {
    BlockId Copy =
        F.createBlockAfter(InsertAfter, F.block(B).label() + ".u");
    CopyOf[B] = Copy;
    InsertAfter = Copy;
  }
  for (BlockId B : Blocks) {
    BlockId Copy = CopyOf[B];
    for (InstrId I : F.block(B).instrs()) {
      InstrId Cloned = F.cloneInstr(I);
      F.block(Copy).instrs().push_back(Cloned);
      // Remap in-loop branch targets: to the header -> original header
      // (the copy's latch closes the loop); to other loop blocks -> their
      // copies.
      Instruction &CI = F.instr(Cloned);
      if (CI.isBranch() && CI.target() != InvalidId) {
        BlockId Target = CI.target();
        if (Target != L.Header && L.Blocks.test(Target))
          CI.setTarget(CopyOf[Target]);
      }
    }
  }

  // Redirect the original back edges into the copied body.
  BlockId FirstCopy = CopyOf[Blocks.front()];
  for (BlockId Latch : L.Latches) {
    InstrId Term = F.terminatorOf(Latch);
    if (Term == InvalidId)
      return Fail("latch without terminator");
    Instruction &T = F.instr(Term);
    if (!T.isBranch() || T.target() != L.Header)
      return Fail("latch terminator must branch to the header");
    if (Ckpt)
      Ckpt->noteInstr(Term);
    if (Latch == Last && (T.opcode() == Opcode::BT || T.opcode() == Opcode::BF)) {
      // The copies sit on this block's fall-through path now.  Invert the
      // branch so the exit keeps its explicit target and the loop-again
      // path becomes the fall-through into the first copy.
      BlockId FallThrough = F.layoutSuccessor(Latch);
      if (FallThrough != FirstCopy)
        return Fail("first copy must follow the last loop block");
      // The original fall-through (the exit) is now behind all copies.
      BlockId Exit = F.layoutSuccessor(CopyOf[Last]);
      if (Exit == InvalidId)
        return Fail("loop exit fell off the layout");
      T.setOpcode(T.opcode() == Opcode::BT ? Opcode::BF : Opcode::BT);
      T.setTarget(Exit);
    } else {
      T.setTarget(FirstCopy);
    }
  }

  F.recomputeCFG();
  F.renumberOriginalOrder();
  return true;
}
