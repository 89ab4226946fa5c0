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
/// completed").  Each block is scheduled alone, as a one-block region, with
/// its own instructions as the only candidates, so the pass's cost follows
/// the function's size.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SCHED_LOCALSCHEDULER_H
#define GIS_SCHED_LOCALSCHEDULER_H

#include "ir/Function.h"
#include "machine/MachineDescription.h"
#include "obs/Decision.h"
#include "support/Status.h"

#include <vector>

namespace gis {

class DeltaCheckpoint;
struct DisambigFacts;
struct EngineObs;

/// Statistics of a local scheduling pass.
struct LocalSchedStats {
  unsigned BlocksScheduled = 0;
  unsigned BlocksReordered = 0; ///< blocks whose instruction order changed
  /// Blocks the engine could not schedule (divergence or inconsistency);
  /// such blocks keep their original instruction order.  Local scheduling
  /// never moves instructions between blocks, so skipping is always safe.
  unsigned BlocksFailed = 0;
};

/// One block list-scheduled alone.
struct BlockSchedule {
  std::vector<InstrId> Order; ///< issue order; complete only when S is ok
  uint64_t Makespan = 0;      ///< completion cycle of the block
  Status S;
};

/// Schedules block \p B of \p F for \p MD without changing \p F: the
/// one-block region's dependence graph, disambiguated with \p Facts (of
/// \p F's current state), D and CP over it, one engine run observed by
/// \p Obs.  The local pass and the report's cycle estimate share it.
BlockSchedule scheduleBlock(const Function &F, BlockId B,
                            const MachineDescription &MD,
                            const DisambigFacts &Facts,
                            const EngineObs *Obs = nullptr);

/// Reorders the instructions of every basic block of \p F for the machine
/// \p MD, respecting all data dependences, in layout order.  The CFG never
/// changes.
/// \p Sink optionally collects observability counters and decision records
/// (src/obs/); local picks carry stage tag "local".  The pass derives its
/// disambiguation facts once on entry, shares them across its blocks and
/// patches positions after each reorder (DESIGN.md section 15).
/// \p Ckpt (optional) receives a first-touch record of every block list
/// this pass rewrites, for delta rollback.
LocalSchedStats scheduleLocal(Function &F, const MachineDescription &MD,
                              const obs::SchedSink &Sink = {},
                              DeltaCheckpoint *Ckpt = nullptr);

} // namespace gis

#endif // GIS_SCHED_LOCALSCHEDULER_H
