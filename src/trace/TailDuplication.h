//===- trace/TailDuplication.h - Superblock tail duplication ----*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tail duplication (DESIGN.md section 16): the repo's route to the
/// paper's Definition 6 motion, cloning whole trace tails rather than
/// single instructions hoisted above a join.  For the first side entrance at chain position i, the tail blocks[i..n] is cloned and
/// every off-chain predecessor is redirected into the clone chain, so each
/// remaining trace block's sole predecessor is its chain predecessor --
/// the head then dominates the whole chain and the paper's Definition 6
/// duplication motions along it become plain useful/speculative motions
/// for the existing global scheduler.
///
/// Code growth is bounded by a per-function budget of cloned
/// instructions; an unaffordable tail truncates the trace at the side
/// entrance instead (the shorter chain is still single-entry).  The
/// transform registers the "tail-dup" fault-injection stage: the injected
/// fault drops one cloned instruction -- a structurally well-formed but
/// semantically wrong function, exactly the lost-duplicate bug class --
/// which the transaction's differential oracle must catch and roll back
/// (see support/FaultInjection.h).
///
//===----------------------------------------------------------------------===//

#ifndef GIS_TRACE_TAILDUPLICATION_H
#define GIS_TRACE_TAILDUPLICATION_H

#include "trace/Trace.h"

namespace gis {

class DeltaCheckpoint;

struct TailDuplicationStats {
  unsigned ClonedInstrs = 0;     ///< instructions copied into clone blocks
  unsigned ClonedBlocks = 0;     ///< clone blocks created
  unsigned TrampolineBlocks = 0; ///< fall-through redirect blocks created
  unsigned TracesTruncated = 0;  ///< 1 when the budget forced a truncation
  bool FaultInjected = false;    ///< the "tail-dup" fault fired in here
};

/// Makes \p Trace single-entry: clones the tail from the first side
/// entrance onward and redirects every side predecessor into the clones,
/// or -- when the tail's instruction count exceeds \p BudgetLeft --
/// truncates \p Trace at the entrance instead.  \p BudgetLeft is
/// decremented by the instructions actually cloned.  Recomputes the
/// function's CFG before deciding and after mutating, so stale
/// SuperblockTrace::SideEntrances data (e.g. entrances added by an earlier
/// trace's duplication) is handled; a no-op on already single-entry
/// traces.  \p Ckpt (optional) receives first-touch records of the
/// layout, the original-order numbers and every side predecessor's
/// terminator the transform retargets, for delta rollback; the appended
/// clones and trampolines need none.
TailDuplicationStats duplicateTails(Function &F, SuperblockTrace &Trace,
                                    unsigned &BudgetLeft,
                                    DeltaCheckpoint *Ckpt = nullptr);

} // namespace gis

#endif // GIS_TRACE_TAILDUPLICATION_H
