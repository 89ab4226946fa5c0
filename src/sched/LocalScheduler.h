//===- sched/LocalScheduler.h - Basic-block scheduler -----------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The basic-block scheduler applied to every block after global
/// scheduling (paper Section 5.1: "the basic block scheduler is applied to
/// every single basic block of a program after the global scheduling is
/// completed").  It reuses the list-scheduling engine with the block's own
/// instructions as the only candidates.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SCHED_LOCALSCHEDULER_H
#define GIS_SCHED_LOCALSCHEDULER_H

#include "ir/Function.h"
#include "machine/MachineDescription.h"
#include "obs/Decision.h"

namespace gis {

class DeltaCheckpoint;
class LoopInfo;

/// Statistics of a local scheduling pass.
struct LocalSchedStats {
  unsigned BlocksScheduled = 0;
  unsigned BlocksReordered = 0; ///< blocks whose instruction order changed
  /// Blocks the engine could not schedule (divergence or inconsistency);
  /// such blocks keep their original instruction order.  Local scheduling
  /// never moves instructions between blocks, so skipping is always safe.
  unsigned BlocksFailed = 0;
};

/// Reorders the instructions of every basic block of \p F for the machine
/// \p MD, respecting all data dependences.  The CFG never changes.
/// \p LI is the loop forest of \p F's current CFG, which the pass walks
/// region by region (the pipeline passes the one it keeps current across
/// CFG transforms; other callers pass LoopInfo::compute(F)).
/// \p Sink optionally collects observability counters and decision records
/// (src/obs/); local picks carry stage tag "local".  The pass derives its
/// disambiguation facts once on entry, shares them across its regions and
/// patches positions after each intra-block reorder (DESIGN.md
/// section 15).
/// \p Ckpt (optional) receives a first-touch record of every block list
/// this pass rewrites, for delta rollback.
LocalSchedStats scheduleLocal(Function &F, const MachineDescription &MD,
                              const LoopInfo &LI,
                              const obs::SchedSink &Sink = {},
                              DeltaCheckpoint *Ckpt = nullptr);

} // namespace gis

#endif // GIS_SCHED_LOCALSCHEDULER_H
