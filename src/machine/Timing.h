//===- machine/Timing.h - Trace-driven cycle timing simulator --*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A trace-driven timing simulator realizing the paper's abstract machine:
/// in-order multi-issue over the parametric unit description, with hardware
/// interlocks enforcing the flow-dependence delays at run time (Section 2:
/// "the machine implements hardware interlocks to guarantee the delays").
///
/// The simulator substitutes for the paper's RS/6000 hardware when
/// measuring run-time improvements (experiment E3) and reproduces the
/// paper's hand cycle counts for Figures 2/5/6: the minmax loop simulates
/// to ~20-22 cycles per iteration unscheduled, ~12-13 after useful
/// scheduling and ~11-12 after speculative scheduling (experiment E1).
///
/// Issue model: instructions issue in trace (program) order; several may
/// issue in the same cycle on different (free) units; an instruction waits
/// for (a) its operands' producers to complete plus the producer/consumer
/// delay, (b) a free unit of its type, and (c) all earlier instructions to
/// have issued (in-order issue).
///
//===----------------------------------------------------------------------===//

#ifndef GIS_MACHINE_TIMING_H
#define GIS_MACHINE_TIMING_H

#include "interp/Interpreter.h"
#include "ir/Function.h"
#include "machine/BranchPredictor.h"
#include "machine/MachineDescription.h"

#include <vector>

namespace gis {

/// Result of one timing simulation.
struct TimingResult {
  uint64_t Cycles = 0;        ///< completion time of the whole trace
  uint64_t Instructions = 0;  ///< trace length
  /// Issue cycle of each trace element; filled only when requested.
  std::vector<uint64_t> IssueTimes;
  /// Per-unit-type busy cycles (sums exec times of issued instructions).
  std::vector<uint64_t> UnitBusyCycles;

  // Branch statistics; all zero unless a predictor is configured
  // (TimingSimulator::setPredictor with a kind other than None).
  uint64_t Branches = 0;          ///< conditional branches in the trace
  uint64_t Mispredicts = 0;       ///< mispredicted among them
  uint64_t BranchStallCycles = 0; ///< refetch penalty cycles charged
  /// Profile-oracle predictions made without edge weights
  /// (BranchPredictorStats::OracleFallbacks).
  uint64_t OracleFallbacks = 0;

  /// Instructions per cycle.
  double ipc() const {
    return Cycles == 0 ? 0.0
                       : static_cast<double>(Instructions) /
                             static_cast<double>(Cycles);
  }
};

/// Trace-driven timing simulator for one machine description.
class TimingSimulator {
public:
  /// The description is copied so the simulator may outlive it.
  explicit TimingSimulator(MachineDescription MD) : MD(std::move(MD)) {}

  /// When on, TimingResult::IssueTimes records the issue cycle of every
  /// trace element (used by tests to measure steady-state loop periods).
  void recordIssueTimes(bool On) { RecordIssue = On; }

  /// Configures branch prediction.  The default (PredictorKind::None)
  /// models no branch cost at all: cycle counts stay bit-identical to the
  /// interlock-only machine.  With any other kind, a mispredicted
  /// conditional branch stalls the in-order front end until the branch
  /// resolves plus the refetch penalty.
  void setPredictor(const BranchPredictorOptions &O) { PredOpts = O; }

  /// Simulates a dynamic instruction trace (possibly spanning several
  /// functions, as recorded by the interpreter).
  TimingResult simulate(const std::vector<TraceEntry> &Trace) const;

  /// Convenience overload for single-function traces.
  TimingResult simulate(const Function &F,
                        const std::vector<InstrId> &Trace) const {
    std::vector<TraceEntry> Entries;
    Entries.reserve(Trace.size());
    for (InstrId I : Trace)
      Entries.push_back(TraceEntry{&F, I});
    return simulate(Entries);
  }

private:
  MachineDescription MD;
  bool RecordIssue = false;
  BranchPredictorOptions PredOpts;
};

/// Convenience: steady-state cycles per iteration of a loop, measured from
/// issue times \p IssueTimes of a trace in which \p MarkerPositions are the
/// trace indices of one fixed instruction per iteration (e.g. the loop-back
/// branch).  Returns the mean distance between consecutive markers over the
/// second half of the run (to skip warm-up).
double steadyStatePeriod(const std::vector<uint64_t> &IssueTimes,
                         const std::vector<size_t> &MarkerPositions);

} // namespace gis

#endif // GIS_MACHINE_TIMING_H
