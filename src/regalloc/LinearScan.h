//===- regalloc/LinearScan.h - Linear-scan register allocation --*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear-scan register allocation over the scheduled IR, closing the gap
/// the paper leaves open: Section 2 schedules before allocation on
/// unbounded symbolic registers, and the shipping XL compiler then mapped
/// the result onto the finite RS/6000 register file and rescheduled.  This
/// allocator is per class (GPR/FPR/CR), Poletto-style: one coarse interval
/// per register (regalloc/LiveIntervals.h), intervals visited in start
/// order against an active list, spill-furthest-end heuristic, and
/// spill-everywhere rewriting (every def stores its slot, every use
/// reloads it) through reserved scratch registers at the top of each file.
///
/// Failure is a recoverable Status (the pipeline transaction rolls the
/// function back to symbolic registers): a condition-register interval
/// that would spill (there is no CR spill opcode; 8 CRs are ample), one
/// instruction needing more scratch registers than are reserved, or a
/// register file smaller than the scratch reservation.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_REGALLOC_LINEARSCAN_H
#define GIS_REGALLOC_LINEARSCAN_H

#include "ir/Function.h"
#include "machine/MachineDescription.h"
#include "support/Status.h"

namespace gis {

/// Scratch registers reserved per class (GPR, FPR, CR) at the top of the
/// register file, enough to reload every spilled operand of one
/// instruction: fixed-point ops read at most two registers, FMA reads
/// three floats, and condition registers never spill.
constexpr std::array<unsigned, 3> RegAllocScratch = {2, 3, 0};

/// Statistics of one allocation run.  Runs are summed through
/// PipelineStats's scalar table (sched/Pipeline.h).
struct RegAllocStats {
  unsigned IntervalsBuilt = 0;
  unsigned IntervalsSpilled = 0;
  unsigned SpillStores = 0;  ///< SPILL/SPILLF instructions emitted
  unsigned SpillReloads = 0; ///< RELOAD/RELOADF instructions emitted
  unsigned SpillSlots = 0;   ///< distinct spill slots used
};

/// Rewrites \p F onto the finite register files of \p MD: every symbolic
/// register becomes a physical register index below MD.numRegs(its class),
/// with spill code for intervals that did not get a register.  Parameters
/// are rewritten to their assigned homes (Function::params()); the
/// interpreter's call convention keys argument passing off params(), so
/// allocated and symbolic functions interoperate.  On failure \p F is left
/// partially rewritten -- callers run this inside a transaction and roll
/// back (sched/Pipeline.cpp stage "regalloc").
Status allocateRegisters(Function &F, const MachineDescription &MD,
                         RegAllocStats &Stats);

} // namespace gis

#endif // GIS_REGALLOC_LINEARSCAN_H
