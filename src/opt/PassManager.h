//===- opt/PassManager.h - Transactional optimizer driver -------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mid-end optimizer's driver.  Each enabled pass runs as a guarded
/// transaction (sched/Transaction.h): snapshot, transform, fault-injection
/// point (GIS_FAULT_INJECT stage "opt-<pass>"), structural verifier,
/// differential oracle, commit or roll back.  A rolled-back pass leaves
/// the function exactly as the previous pass committed it -- the pipeline
/// simply schedules less-optimized IR, mirroring the degrade-don't-crash
/// contract of the scheduling transforms.
///
/// Pass selection: -O0 runs nothing, -O1 the cheap cleanup pair (peephole
/// + dead code), -O2 all four passes; per-pass Force overrides win over
/// the level in both directions.  The *resolved* enablement vector is part
/// of the schedule-cache options fingerprint (engine/ScheduleCache.cpp),
/// so cached schedules never cross optimization configurations.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_OPT_PASSMANAGER_H
#define GIS_OPT_PASSMANAGER_H

#include "machine/MachineDescription.h"
#include "obs/Counters.h"
#include "opt/Pass.h"
#include "sched/Transaction.h"
#include "support/Diagnostics.h"

#include <array>
#include <vector>

namespace gis {
namespace opt {

/// Optimizer configuration.  Level picks the default pass set; Force
/// overrides individual passes (-1 defer to level, 0 off, 1 on).
struct OptOptions {
  unsigned Level = 0;
  std::array<int8_t, NumOptPasses> Force = {-1, -1, -1, -1};

  bool enabled(PassId P) const {
    int8_t F = Force[static_cast<unsigned>(P)];
    if (F >= 0)
      return F != 0;
    return Level >= passInfo(P).MinLevel;
  }

  bool anyEnabled() const {
    for (PassId P : passPipeline())
      if (enabled(P))
        return true;
    return false;
  }

  void force(PassId P, bool On) {
    Force[static_cast<unsigned>(P)] = On ? 1 : 0;
  }
};

/// Wall-clock of one committed or rolled-back pass run, for --stats and
/// the E6 ablation's per-pass timing table.
struct OptPassTime {
  PassId Pass = PassId::Peephole;
  double Seconds = 0;
};

/// Per-pass work totals of one or more optimizer runs.  Runs are summed
/// through PipelineStats's scalar table (sched/Pipeline.h), which
/// PipelineStats::operator+= extends with the PassTimes records.
struct OptStats {
  unsigned PassesRun = 0; ///< pass transactions committed
  unsigned PeepholeRewrites = 0;
  unsigned StrengthReduced = 0;
  unsigned ValuesNumbered = 0;
  unsigned DeadRemoved = 0;
  std::vector<OptPassTime> PassTimes;
};

/// Everything one runOptPasses call produced, for the caller (the
/// pipeline) to fold into its own statistics.
struct OptRunReport {
  OptStats Opt;
  unsigned TransactionsRun = 0;
  unsigned TransformsRolledBack = 0;
  unsigned VerifierFailures = 0;
  unsigned OracleMismatches = 0;
  unsigned EngineFailures = 0;
  unsigned FaultsInjected = 0;
  std::vector<Diagnostic> Diags;
};

/// Runs every enabled pass over \p F in pipeline order, each as a guarded
/// transaction configured by \p Tx.  \p F's CFG must be up to date on
/// entry and is up to date on return (no pass changes control flow).
/// \p Counters may be null; when set, rollbacks are bumped there (the
/// per-pass work is the report's OptStats).
OptRunReport runOptPasses(Function &F, const MachineDescription &MD,
                          const OptOptions &Opts, const TransactionConfig &Tx,
                          obs::CounterSet *Counters);

} // namespace opt
} // namespace gis

#endif // GIS_OPT_PASSMANAGER_H
