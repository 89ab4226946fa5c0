//===- sched/ListScheduler.h - Cycle-by-cycle list scheduler ----*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level scheduling engine of paper Section 5.1: schedule one
/// target block cycle by cycle against the parametric machine description,
/// maintaining a ready list and picking the "best" ready instructions by
/// the priority rules of Section 5.2:
///
///   1/2. useful instructions before speculative ones,
///   3/4. bigger delay heuristic D first,
///   5/6. bigger critical path heuristic CP first,
///   7.   original program order.
///
/// The same engine serves the global scheduler (own instructions plus
/// external candidates from C(A)) and the final basic-block scheduler
/// (own instructions only).
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SCHED_LISTSCHEDULER_H
#define GIS_SCHED_LISTSCHEDULER_H

#include "analysis/DataDeps.h"
#include "machine/MachineDescription.h"
#include "obs/Counters.h"
#include "obs/Decision.h"
#include "sched/Heuristics.h"
#include "support/Status.h"

#include <functional>
#include <vector>

namespace gis {

/// Ordering of the priority rules, for the tuning experiments the paper
/// calls for ("experimentation and tuning are needed for better results",
/// Section 5.2).  The paper's order is class first -- "tuned towards a
/// machine with a small number of resources".
enum class PriorityOrder : uint8_t {
  Paper,       ///< useful class, then D, then CP, then original order
  DelayFirst,  ///< D, then class, then CP, then original order
  CriticalFirst, ///< CP, then class, then D, then original order
  SourceOrder, ///< original order only (no heuristics)
};

/// One candidate instruction offered to the engine.
struct EngineCandidate {
  unsigned DDGNode;     ///< node in the region DataDeps
  bool Useful;          ///< rules 1/2 class: true when B(I) is in U(A)
  bool Speculative;     ///< subject to the live-on-exit check at pick time
  /// Execution frequency of the home block when profiling data is
  /// available (paper Section 1: speculation "can take advantage of the
  /// branch probabilities"); 0 when unknown.  Among speculative
  /// candidates, higher frequency wins ties ahead of the D heuristic.
  uint64_t Freq = 0;
};

/// How the engine should treat a dependence predecessor that is not itself
/// a candidate.
enum class PredDisposition {
  Fixed,   ///< already placed before the target block; satisfied at cycle 0
  Blocked, ///< placed at or after the target block; the dependent candidate
           ///< can never be scheduled in this pass
};

/// Observation context for one engine run (src/obs/).  Counters and
/// decision records are appended to the caller's buffers; either pointer
/// may be null to observe only the other aspect.  Observation never feeds
/// back into scheduling: with identical inputs the engine emits the same
/// schedule whether or not it is observed (tests/trace_test.cpp).
struct EngineObs {
  obs::CounterSet *Counters = nullptr;
  std::vector<obs::Decision> *Decisions = nullptr;
  const char *Stage = "global"; ///< Decision::Stage tag
  BlockId TargetBlock = 0;      ///< block being scheduled
  /// Maps a DDG node to the id of its current home block, for the
  /// FromBlock field of external picks.  May be null when Decisions is.
  std::function<BlockId(unsigned)> HomeBlock;
};

/// Result of scheduling one target block.
struct EngineResult {
  /// Scheduled DDG nodes in emission (position) order.
  std::vector<unsigned> Order;
  /// Issue cycle of each entry of Order.
  std::vector<uint64_t> Cycles;
  /// Completion cycle of the block's own instructions.
  uint64_t Makespan = 0;
  /// Success, or why the engine gave up.  On error Order is incomplete and
  /// the caller must discard the whole attempt (the transaction layer rolls
  /// the function back, since OnSchedule may already have moved
  /// instructions).
  Status S;
};

/// The list-scheduling engine for one region.
class ListScheduler {
public:
  /// The engine borrows all four references; they must outlive it.
  ///
  /// The ready list is an event-driven pool (DESIGN.md section 14):
  /// successor-arming counters feed a ReadyTime-keyed event queue instead
  /// of rescanning every candidate each cycle, and cycles with an empty
  /// ready list are skipped in one jump.  GIS_SLOWPATH_CHECK builds check
  /// every cycle's ready list and every jump against a full scan.
  ListScheduler(const Function &F, const DataDeps &DD,
                const MachineDescription &MD, const Heuristics &H,
                PriorityOrder Order = PriorityOrder::Paper)
      : F(F), DD(DD), MD(MD), H(H), Order(Order) {}

  /// Schedules a target block.
  ///
  /// \param Own         the block's own DDG nodes in program order; all of
  ///                    them are scheduled, and the block's terminator (if
  ///                    any) is kept positionally last.
  /// \param External    candidate instructions from other blocks; scheduled
  ///                    opportunistically, never forced.
  /// \param Disposition resolves non-candidate dependence predecessors.
  /// \param SpecCheck   invoked when a speculative candidate is about to be
  ///                    picked; returning false vetoes it (it is dropped
  ///                    for this block).  The callback may mutate the
  ///                    function (register renaming) before approving.
  /// \param OnSchedule  invoked right after a candidate is scheduled (the
  ///                    paper moves picked instructions immediately, so
  ///                    live-on-exit information can be kept up to date);
  ///                    the bool argument is true for external candidates.
  /// \param Obs         optional observation context; decisions are
  ///                    recorded before OnSchedule fires, so HomeBlock
  ///                    sees the pre-move placement.
  EngineResult
  run(const std::vector<unsigned> &Own,
      const std::vector<EngineCandidate> &External,
      const std::function<PredDisposition(unsigned)> &Disposition,
      const std::function<bool(unsigned)> &SpecCheck,
      const std::function<void(unsigned, bool)> &OnSchedule = nullptr,
      const EngineObs *Obs = nullptr);

private:
  const Function &F;
  const DataDeps &DD;
  const MachineDescription &MD;
  const Heuristics &H;
  PriorityOrder Order;
};

} // namespace gis

#endif // GIS_SCHED_LISTSCHEDULER_H
