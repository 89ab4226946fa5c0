//===- sched/Rotate.h - Loop rotation ---------------------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop rotation, the second preparation step of the paper's Section 6
/// pipeline: "such regions that represent loops with up to 4 basic blocks
/// are rotated, by copying their first basic block after the end of the
/// loop.  By applying the global scheduling the second time to the rotated
/// inner loops, we achieve the partial effect of software pipelining" —
/// instructions of the next iteration's first block (the bottom copy) can
/// be hoisted into the previous iteration's body.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SCHED_ROTATE_H
#define GIS_SCHED_ROTATE_H

#include "analysis/LoopInfo.h"
#include "ir/Function.h"
#include "support/Status.h"

namespace gis {

class DeltaCheckpoint;

/// True if loop \p LoopIdx can be rotated by rotateLoop: contiguous in
/// layout with the header first, every back edge is an explicit branch,
/// and the header has at most one in-loop successor (otherwise the rotated
/// loop would become multi-entry).
bool canRotateLoop(const Function &F, const LoopInfo &LI, unsigned LoopIdx);

/// Rotates the loop: the header is copied after the loop's last block,
/// back edges are redirected to the copy, and the copy branches back into
/// the loop body (the original header is peeled and runs only on entry).
/// Returns false (no change) for unsupported shapes.
///
/// With \p Err non-null, a mid-flight invariant failure is reported
/// through it and the function may be left partially transformed -- the
/// caller owns a checkpoint and must roll back.  With \p Err null such
/// failures abort.  \p Ckpt (optional) receives first-touch records of
/// the layout, the original-order numbers and every latch terminator the
/// transform rewrites, for delta rollback; the appended copy needs none.
bool rotateLoop(Function &F, const LoopInfo &LI, unsigned LoopIdx,
                Status *Err = nullptr, DeltaCheckpoint *Ckpt = nullptr);

} // namespace gis

#endif // GIS_SCHED_ROTATE_H
