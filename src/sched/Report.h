//===- sched/Report.h - Per-function scheduling report ----------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A structured before/after report for one scheduling run: region
/// inventory, motion counts, code growth, register pressure, and a static
/// cycle estimate per block (the engine's makespans).  This is what a
/// compiler would print under a -fsched-verbose flag; gisc exposes it via
/// --report.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SCHED_REPORT_H
#define GIS_SCHED_REPORT_H

#include "ir/Module.h"
#include "machine/MachineDescription.h"
#include "sched/Pipeline.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace gis {

/// Inventory of one function before or after scheduling.
struct FunctionInventory {
  std::string Name;
  unsigned Blocks = 0;
  unsigned Instructions = 0;
  unsigned Loops = 0;
  bool Reducible = true;
  /// Sum over blocks of the machine-model makespan when each block is
  /// list-scheduled in isolation: a static per-function latency estimate.
  uint64_t StaticCycleEstimate = 0;
  /// Peak simultaneously-live registers (GPR, FPR, CR).
  std::array<unsigned, 3> PeakLive = {0, 0, 0};
};

/// Takes the inventory of every function of \p M under machine \p MD.
/// (Not a checkpoint: ir/Checkpoint.h's FunctionSnapshot is the one that
/// holds a function copy.)
std::vector<FunctionInventory> snapshotModule(const Module &M,
                                              const MachineDescription &MD);

/// A complete run report: inventories around a pipeline invocation plus
/// the pipeline's own statistics.
struct ScheduleReport {
  std::vector<FunctionInventory> Before;
  std::vector<FunctionInventory> After;
  PipelineStats Stats;
};

/// Convenience: inventory, schedule, inventory.
ScheduleReport scheduleWithReport(Module &M, const MachineDescription &MD,
                                  const PipelineOptions &Opts);

/// Renders the report as a fixed-width table.
void printReport(const ScheduleReport &R, std::ostream &OS);

} // namespace gis

#endif // GIS_SCHED_REPORT_H
