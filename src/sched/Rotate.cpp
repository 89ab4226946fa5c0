//===- sched/Rotate.cpp - Loop rotation ------------------------------------===//

#include "sched/Rotate.h"

#include "ir/Checkpoint.h"
#include "sched/LoopShape.h"
#include "support/Assert.h"

using namespace gis;

namespace {

/// Shape analysis for the header's terminator.  Describes how the bottom
/// copy of the header must terminate.
struct RotationPlan {
  enum class Kind {
    Unsupported,
    AppendBranch,   ///< header falls through: copy gets "B <body>"
    CopyVerbatim,   ///< unconditional in-loop branch or self-loop test
    InvertedBranch, ///< "BT/BF <exit>" becomes inverted "<body>" target
  };
  Kind K = Kind::Unsupported;
  BlockId Target = InvalidId; ///< AppendBranch / InvertedBranch target
};

RotationPlan planRotation(const Function &F, const Loop &L,
                          const std::vector<BlockId> &Blocks) {
  RotationPlan Plan;
  BlockId Header = L.Header;
  BlockId Last = Blocks.back();
  InstrId Term = F.terminatorOf(Header);

  if (Term == InvalidId) {
    // Pure fall-through header: the copy branches explicitly to the
    // header's layout successor (in the loop, by contiguity).
    BlockId Next = F.layoutSuccessor(Header);
    if (Next == InvalidId || !L.Blocks.test(Next))
      return Plan;
    Plan.K = RotationPlan::Kind::AppendBranch;
    Plan.Target = Next;
    return Plan;
  }

  const Instruction &T = F.instr(Term);
  if (T.opcode() == Opcode::B) {
    if (!L.Blocks.test(T.target()))
      return Plan; // branches straight out: not a rotatable loop shape
    Plan.K = RotationPlan::Kind::CopyVerbatim;
    return Plan;
  }
  if (T.opcode() != Opcode::BT && T.opcode() != Opcode::BF)
    return Plan; // RET cannot head a loop body copy

  BlockId Taken = T.target();
  if (Taken == Header) {
    // Single-block loop testing itself: the copy keeps branching to the
    // original header, forming a two-block loop (an unroll-by-two).
    Plan.K = RotationPlan::Kind::CopyVerbatim;
    return Plan;
  }
  if (!L.Blocks.test(Taken)) {
    // "BT/BF exit" with fall-through into the body: the copy inverts the
    // branch so the body continuation is the explicit target and the exit
    // becomes the copy's fall-through -- valid only when the block after
    // the loop IS that exit.
    BlockId FallThrough = F.layoutSuccessor(Header);
    BlockId AfterLoop = F.layoutSuccessor(Last);
    if (FallThrough == InvalidId || !L.Blocks.test(FallThrough))
      return Plan;
    if (AfterLoop != Taken)
      return Plan;
    Plan.K = RotationPlan::Kind::InvertedBranch;
    Plan.Target = FallThrough;
    return Plan;
  }
  // Conditional branch with two in-loop successors: rotating would create
  // a multi-entry (irreducible) loop.
  return Plan;
}

} // namespace

bool gis::canRotateLoop(const Function &F, const LoopInfo &LI,
                        unsigned LoopIdx) {
  const Loop &L = LI.loop(LoopIdx);
  std::vector<BlockId> Blocks = contiguousLoopBlocks(F, L);
  if (Blocks.empty())
    return false;
  // All back edges must be explicit branches to the header.
  for (BlockId Latch : L.Latches) {
    InstrId Term = F.terminatorOf(Latch);
    if (Term == InvalidId)
      return false;
    const Instruction &T = F.instr(Term);
    if (!T.isBranch() || T.target() != L.Header)
      return false;
  }
  return planRotation(F, L, Blocks).K != RotationPlan::Kind::Unsupported;
}

bool gis::rotateLoop(Function &F, const LoopInfo &LI, unsigned LoopIdx,
                     Status *Err, DeltaCheckpoint *Ckpt) {
  if (Err)
    *Err = Status::ok();
  if (!canRotateLoop(F, LI, LoopIdx))
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
  RotationPlan Plan = planRotation(F, L, Blocks);
  BlockId Last = Blocks.back();

  // Create the header copy behind the loop.
  if (Ckpt)
    Ckpt->noteLayout();
  BlockId Copy = F.createBlockAfter(Last, F.block(L.Header).label() + ".rot");
  for (InstrId I : F.block(L.Header).instrs()) {
    InstrId Cloned = F.cloneInstr(I);
    F.block(Copy).instrs().push_back(Cloned);
  }

  // Fix the copy's terminator per the rotation plan.
  switch (Plan.K) {
  case RotationPlan::Kind::AppendBranch: {
    Instruction Br(Opcode::B);
    Br.setTarget(Plan.Target);
    F.appendInstr(Copy, std::move(Br));
    break;
  }
  case RotationPlan::Kind::CopyVerbatim:
    break;
  case RotationPlan::Kind::InvertedBranch: {
    InstrId Term = F.block(Copy).instrs().back();
    Instruction &T = F.instr(Term);
    T.setOpcode(T.opcode() == Opcode::BT ? Opcode::BF : Opcode::BT);
    T.setTarget(Plan.Target);
    break;
  }
  case RotationPlan::Kind::Unsupported:
    return Fail("rotation plan must be supported here");
  }

  // Redirect all back edges to the copy.  A conditional back edge on the
  // loop's last block needs inverting: the copy now sits on its
  // fall-through path, so the exit keeps its explicit target and the
  // loop-again path becomes the fall-through into the copy.
  for (BlockId Latch : L.Latches) {
    InstrId Term = F.terminatorOf(Latch);
    if (Term == InvalidId)
      return Fail("latch without terminator");
    Instruction &T = F.instr(Term);
    if (!T.isBranch() || T.target() != L.Header)
      return Fail("latch must branch to the header");
    if (Ckpt)
      Ckpt->noteInstr(Term);
    if (Latch == Last &&
        (T.opcode() == Opcode::BT || T.opcode() == Opcode::BF)) {
      BlockId Exit = F.layoutSuccessor(Copy);
      if (Exit == InvalidId)
        return Fail("loop exit fell off the layout");
      T.setOpcode(T.opcode() == Opcode::BT ? Opcode::BF : Opcode::BT);
      T.setTarget(Exit);
    } else {
      T.setTarget(Copy);
    }
  }

  F.recomputeCFG();
  F.renumberOriginalOrder();
  return true;
}
