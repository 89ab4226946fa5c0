//===- sched/GlobalScheduler.h - PDG-based global scheduling ----*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's global instruction scheduler (Section 5): regions are
/// scheduled one basic block at a time in topological order; for each block
/// A the candidate set C(A) is derived from the CSPDG (useful level:
/// C(A) = EQUIV(A); speculative level: plus the immediate CSPDG successors
/// of A and of EQUIV(A)); candidates are scheduled cycle by cycle by the
/// list-scheduling engine; chosen external instructions are physically
/// moved into A.  Speculative motion is guarded by dynamically maintained
/// live-on-exit sets (Section 5.3), with register renaming as a rescue.
///
/// Principles (Section 5.1): instructions never move in or out of a
/// region; all motion is upward; the original order of branches is
/// preserved; no new basic blocks are created.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SCHED_GLOBALSCHEDULER_H
#define GIS_SCHED_GLOBALSCHEDULER_H

#include "analysis/PDG.h"
#include "ir/Function.h"
#include "machine/MachineDescription.h"
#include "sched/ListScheduler.h"
#include "sched/Profile.h"

namespace gis {

class Liveness;
class RegionSnapshot;

/// Scheduling level (paper Section 5.1 "two levels of scheduling").
enum class SchedLevel : uint8_t {
  None,        ///< no global scheduling (baseline)
  Useful,      ///< useful instructions only: C(A) = EQUIV(A)
  Speculative, ///< useful + n-branch speculative (paper: n = 1)
};

/// Options controlling the global scheduler.
struct GlobalSchedOptions {
  SchedLevel Level = SchedLevel::Speculative;
  /// Branches gambled on for speculative candidates (the paper supports 1;
  /// larger values exercise the paper's future-work extension).
  unsigned MaxSpecDepth = 1;
  /// Attempt register renaming when a speculative motion is blocked only
  /// by the live-on-exit check (the paper's Figure 6 cr6 -> cr5 rename).
  bool EnableRenaming = true;
  /// Ordering of the priority rules (Section 5.2 ablation).
  PriorityOrder Order = PriorityOrder::Paper;
  /// Optional execution profile: speculative candidates from hotter
  /// blocks win ties (paper Section 1).  Borrowed pointer; may be null.
  const ProfileData *Profile = nullptr;
};

/// Statistics of one scheduling run.  Runs are summed through
/// PipelineStats's scalar table (sched/Pipeline.h).
struct GlobalSchedStats {
  unsigned RegionsScheduled = 0;
  unsigned BlocksScheduled = 0;
  unsigned UsefulMotions = 0;
  unsigned SpeculativeMotions = 0;
  unsigned Renames = 0;
  unsigned VetoedSpeculations = 0;
};

/// PDG-based global scheduler for one machine description.
class GlobalScheduler {
public:
  GlobalScheduler(MachineDescription MD, GlobalSchedOptions Opts)
      : MD(std::move(MD)), Opts(Opts) {}

  /// Schedules one region of \p F in place (reordering block contents and
  /// moving instructions between the region's blocks).  The CFG shape is
  /// unchanged.  Returns statistics of the pass.
  ///
  /// With \p Err non-null, recoverable failures (engine divergence,
  /// internal inconsistencies) are reported through it and the function is
  /// left mid-transform -- the caller owns a checkpoint and must roll back.
  /// With \p Err null such failures abort, preserving the historical
  /// fail-fast contract for direct callers without a transaction layer.
  ///
  /// The Section 5.3 live-on-exit guard reads a region-restricted
  /// liveness view (RegionLiveness) built on entry, its out-of-region
  /// boundary frozen from \p WaveLV: recomputation after a motion or
  /// rename touches only the region's blocks, and the scheduler reads
  /// nothing outside the region, so each region of a wave sees the
  /// wave-start state whatever its siblings committed (sched/Pipeline.cpp).
  /// \p WaveLV is whole-function liveness of \p F as the wave started;
  /// when null, it is computed on entry.  \p WaveFacts are the wave's
  /// disambiguation facts, derived from the same wave-start function
  /// (DESIGN.md section 15); when null, they are derived on entry.
  ///
  /// \p Sink optionally collects observability counters and per-pick
  /// decision records (src/obs/).  The buffers belong to the caller; each
  /// region task passes private buffers that it merges only on commit.
  ///
  /// With \p OutPDG non-null the PDG this pass scheduled against (built on
  /// \p F *before* any motion) is exported -- a cheap three-shared-ptr
  /// copy -- so the transactional layer can hand it to the schedule
  /// verifier instead of paying a second build.
  ///
  /// \p Snap (optional) is the region transaction's first-touch snapshot,
  /// taken on \p F just before this call: the pass notes every pool entry
  /// of a block before renaming rewrites it, so the snapshot can roll the
  /// pass back and serve as the scoped verifier's "before" side.
  GlobalSchedStats scheduleRegion(Function &F, const SchedRegion &R,
                                  Status *Err = nullptr,
                                  const Liveness *WaveLV = nullptr,
                                  const DisambigFacts *WaveFacts = nullptr,
                                  const obs::SchedSink &Sink = {},
                                  PDG *OutPDG = nullptr,
                                  RegionSnapshot *Snap = nullptr);

private:
  MachineDescription MD;
  GlobalSchedOptions Opts;
};

} // namespace gis

#endif // GIS_SCHED_GLOBALSCHEDULER_H
