//===- sched/Unroll.h - Loop unrolling --------------------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop unrolling, the preparation step of the paper's Section 6 pipeline:
/// "inner regions that represent loops with up to 4 basic blocks are
/// unrolled once (i.e., after unrolling they include two iterations of a
/// loop instead of one)", which widens the region the global scheduler can
/// work with.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SCHED_UNROLL_H
#define GIS_SCHED_UNROLL_H

#include "analysis/LoopInfo.h"
#include "ir/Function.h"
#include "support/Status.h"

namespace gis {

class DeltaCheckpoint;

/// True if loop \p LoopIdx of \p LI is unrollable by unrollLoopOnce:
/// its blocks are contiguous in layout with the header first, and the
/// last block's terminator is a branch to the header (the common shape of
/// generated loops).
bool canUnrollOnce(const Function &F, const LoopInfo &LI, unsigned LoopIdx);

/// Unrolls the loop once: the body is duplicated, the original latch
/// branches into the copy, and the copy's latch closes the loop back to
/// the original header.  Returns false (leaving \p F untouched) when the
/// loop shape is unsupported.  On success the caller must recompute CFG
/// consumers (LoopInfo etc.); the function's CFG edge lists and original
/// order are refreshed.
///
/// With \p Err non-null, a mid-flight invariant failure is reported
/// through it and the function may be left partially transformed -- the
/// caller owns a checkpoint and must roll back.  With \p Err null such
/// failures abort.  \p Ckpt (optional) receives first-touch records of
/// the layout, the original-order numbers and every latch terminator the
/// transform rewrites, for delta rollback; the appended copies need none.
bool unrollLoopOnce(Function &F, const LoopInfo &LI, unsigned LoopIdx,
                    Status *Err = nullptr, DeltaCheckpoint *Ckpt = nullptr);

} // namespace gis

#endif // GIS_SCHED_UNROLL_H
