//===- sched/Pipeline.h - The paper's scheduling pipeline -------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end scheduling flow of paper Section 6:
///
///   1. certain inner loops are unrolled (<= 4 blocks, once);
///   2. global scheduling is applied the first time to the inner regions;
///   3. certain inner loops are rotated (<= 4 blocks);
///   4. global scheduling is applied the second time to the rotated inner
///      loops and the outer regions;
///   5. the basic-block scheduler reschedules every block (Section 5.1).
///
/// Also implements the paper's engineering limits: only two inner levels
/// of regions are scheduled, and only "small" reducible regions (at most
/// 64 basic blocks and 256 instructions).
///
/// Reentrancy contract: schedulePipeline keeps all of its state -- loop
/// info, regions, dependence graphs, checkpoints, statistics -- local to
/// the call, so concurrent runs over *distinct* Function objects are safe
/// (the engine's unit of parallelism; see engine/CompileEngine.h).  Two
/// concurrent runs over the same Function are not.  Exceptions: the
/// fault injector is shared, internally synchronized state
/// (support/FaultInjection.h), and an enabled differential oracle reads
/// the whole OracleModule, so no sibling function of that module may be
/// scheduled concurrently (the engine widens its work unit to the module
/// in that configuration).
///
/// Region waves: each global scheduling pass groups its regions into waves
/// of mutually independent regions (one level of the loop forest, or the
/// superblock traces) and schedules a wave's regions serially, in place, in
/// region-index order, each as its own region-local transaction -- see the
/// "Region waves" section of DESIGN.md.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SCHED_PIPELINE_H
#define GIS_SCHED_PIPELINE_H

#include "ir/Module.h"
#include "machine/MachineDescription.h"
#include "obs/Counters.h"
#include "obs/Decision.h"
#include "opt/PassManager.h"
#include "regalloc/LinearScan.h"
#include "sched/GlobalScheduler.h"
#include "sched/LocalScheduler.h"
#include "sched/Profile.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <string_view>

namespace gis {

/// Options for the full scheduling pipeline.
struct PipelineOptions {
  SchedLevel Level = SchedLevel::Speculative;
  unsigned MaxSpecDepth = 1;
  bool EnableRenaming = true;
  /// The Section 4.2 preprocessing: SSA-like renaming of block-local
  /// values, minimizing anti/output dependences before scheduling.
  bool EnablePreRenaming = true;
  PriorityOrder Order = PriorityOrder::Paper;
  /// Optional execution profile (borrowed; may be null).  Block counts
  /// are keyed by the pre-transformation block ids, so profile-guided
  /// runs are most effective with unrolling/rotation disabled or after
  /// re-profiling.
  const ProfileData *Profile = nullptr;

  bool EnableUnroll = true;
  bool EnableRotate = true;
  unsigned UnrollMaxBlocks = 4; ///< paper: loops with up to 4 blocks
  unsigned RotateMaxBlocks = 4;

  unsigned RegionBlockLimit = 64;  ///< paper: "small" regions only
  unsigned RegionInstrLimit = 256;

  /// Schedule only the two innermost region levels (paper Section 6);
  /// false schedules every region level.
  bool OnlyTwoInnerLevels = true;

  /// Run the basic-block scheduler after global scheduling.
  bool RunLocalScheduler = true;

  //===--------------------------------------------------------------------===
  // Register allocation (src/regalloc/; gisc --regalloc)
  //===--------------------------------------------------------------------===

  /// Map the scheduled function onto the finite register files of the
  /// MachineDescription (regalloc/LinearScan.h), emitting spill code where
  /// pressure exceeds them.  Off by default, preserving the paper's
  /// Section 2 contract of scheduling over unbounded symbolic registers;
  /// on, the pipeline mirrors the XL flow the paper describes --
  /// schedule, allocate, reschedule.  Runs as a transaction: a failed
  /// allocation (see LinearScan.h) rolls back to symbolic registers.
  bool AllocateRegisters = false;
  /// Re-run the basic-block scheduler after allocation so spill code is
  /// woven into the issue slots (the "twice-scheduled" XL flow).  Only
  /// applies with AllocateRegisters and RunLocalScheduler.
  bool RescheduleAfterAlloc = true;

  /// Superblock formation (DESIGN.md section 16; gisc --superblocks):
  /// form traces by mutual-most-likely edge selection over recorded edge
  /// profiles (ProfileData::recordEdges) -- static branch-not-taken
  /// heuristic without one -- tail-duplicate the side entrances away, and
  /// schedule each surviving chain as one single-entry region after the
  /// top-level global pass.  All three fields are part of the
  /// schedule-cache options fingerprint (engine/ScheduleCache.cpp).
  bool EnableSuperblocks = false;
  /// Maximum trace length in blocks (also capped by RegionBlockLimit).
  unsigned TraceMaxBlocks = 8;
  /// Per-function budget of instructions tail duplication may clone;
  /// unaffordable tails truncate their trace instead (code-growth cap,
  /// asserted by tests/superblock_test.cpp).
  unsigned TraceDupBudget = 64;

  //===--------------------------------------------------------------------===
  // Mid-end optimizer (src/opt/; gisc -O0/-O1/-O2)
  //===--------------------------------------------------------------------===

  /// Optimizer passes run over the IR before any scheduling (DESIGN.md
  /// section 13).  Defaults to level 0 -- no passes -- preserving the
  /// paper's near-raw-input contract; each pass runs as a transaction
  /// under the same guards configured below.  The resolved pass set is
  /// part of the schedule-cache options fingerprint.
  opt::OptOptions Opt;

  //===--------------------------------------------------------------------===
  // Transactional execution (failure model & recovery; see DESIGN.md)
  //===--------------------------------------------------------------------===

  /// Run every transform as a transaction: checkpoint the function (first
  /// touch, ir/Checkpoint.h), run the transform, verify, and roll back to
  /// the checkpoint on any failure.
  /// When false the pipeline keeps the historical fail-fast contract
  /// (internal invariant failures abort the process).
  bool EnableTransactions = true;
  /// Run the structural IR verifier on each transaction's output.
  bool VerifyStructural = true;
  /// Run the semantic schedule verifier (sched/ScheduleVerifier.h) on each
  /// region scheduling transaction.
  bool VerifySemantic = true;
  /// Run the interpreter-based differential oracle on each transaction.
  /// Off by default: it executes the function and is far too slow for
  /// release compiles; enable for fuzzing and debugging.
  bool EnableOracle = false;
  /// Module the function under transformation belongs to; required by the
  /// oracle (call targets, global arrays).  Borrowed; may be null, which
  /// disables the oracle.  scheduleModule fills it in automatically.
  const Module *OracleModule = nullptr;
  /// Interpreter step budget per oracle run.
  uint64_t OracleMaxSteps = 500'000;

  //===--------------------------------------------------------------------===
  // Observability (src/obs/; gisc --stats-json / --explain)
  //===--------------------------------------------------------------------===

  /// Record one obs::Decision per engine pick (PipelineStats::Decisions),
  /// the data behind `gisc --explain`.  Allocates per pick; off by
  /// default.
  bool CollectDecisions = false;
};

/// Wall-clock of one region-scheduling task, for --stats (-1: the
/// top-level region).  Waves number the region dependence forest's levels
/// across both global passes, in commit order.
struct RegionTime {
  int LoopIdx = -1;
  unsigned Wave = 0;
  double Seconds = 0;
};

/// Aggregate statistics of one pipeline run.  Its scalars are listed once,
/// in forEachStatsScalar below; every consumer of them -- operator+=, the
/// disk-cache stats block, --stats-json and the daemon's STATS -- walks
/// that table.
struct PipelineStats {
  GlobalSchedStats Global;
  LocalSchedStats Local;
  unsigned LoopsUnrolled = 0;
  unsigned LoopsRotated = 0;
  unsigned PreRenamedDefs = 0;
  unsigned RegionsSkippedBySize = 0;
  unsigned FunctionsSkippedIrreducible = 0;

  // Superblock formation (PipelineOptions::EnableSuperblocks).
  unsigned TracesFormed = 0;    ///< traces surviving formation (>= 2 blocks)
  unsigned TraceBlocks = 0;     ///< blocks claimed by those traces
  unsigned TailDupInstrs = 0;   ///< instructions cloned by tail duplication
  unsigned TailDupBlocks = 0;   ///< clone + trampoline blocks created
  unsigned TracesTruncated = 0; ///< traces cut short by the clone budget
  unsigned SuperblocksScheduled = 0; ///< traces scheduled as regions

  /// Peak register pressure per class (GPR, FPR, CR) of the scheduled
  /// code, before any allocation (analysis/RegPressure.h) -- across
  /// functions the *maximum* is kept, not the sum.
  std::array<unsigned, 3> PressurePeak = {0, 0, 0};
  /// Register allocation totals (PipelineOptions::AllocateRegisters);
  /// all zero when allocation is off or rolled back.
  RegAllocStats RegAlloc;
  /// Allocation transactions that failed and rolled back to symbolic
  /// registers (e.g. a condition-register interval would spill).
  unsigned RegAllocFailures = 0;

  /// Mid-end optimizer totals (PipelineOptions::Opt); all zero when no
  /// pass is enabled.
  opt::OptStats Opt;

  /// Waves of the region dependence forest scheduled by the global passes
  /// and the superblock phase (a wave's regions are mutually independent).
  unsigned RegionWaves = 0;
  /// One record per region-scheduling task, in deterministic commit order.
  std::vector<RegionTime> RegionTimes;

  // Transactional execution (see PipelineOptions::EnableTransactions).
  unsigned TransactionsRun = 0;
  /// Region-scoped transactions (region scheduling, tail duplication)
  /// rolled back to their checkpoint.
  unsigned RegionsRolledBack = 0;
  /// Whole-function transforms (pre-renaming, unroll, rotate, local
  /// scheduling) rolled back to their checkpoint.
  unsigned TransformsRolledBack = 0;
  /// Transactions rejected by the structural or semantic verifier.
  unsigned VerifierFailures = 0;
  /// Transactions rejected by the differential oracle.
  unsigned OracleMismatches = 0;
  /// Transactions whose transform reported an engine failure (divergence
  /// or internal inconsistency) through the Status channel.
  unsigned EngineFailures = 0;
  /// Faults deliberately injected via GIS_FAULT_INJECT.
  unsigned FaultsInjected = 0;
  /// One record per rolled-back or degraded transform.
  std::vector<Diagnostic> Diags;

  /// Observability counter registry (obs/Counters.h): the counts no field
  /// above carries.  Collected into per-task buffers and merged along the
  /// same deterministic commit paths as the rest of this struct, so every
  /// value is exact -- identical for every --jobs width, and rolled-back
  /// work never counts.
  obs::CounterSet Counters;
  /// Per-pick decision log (PipelineOptions::CollectDecisions), in
  /// deterministic commit order; rendered by `gisc --explain`.
  std::vector<obs::Decision> Decisions;

  /// Merges every scalar of \p RHS (the table below): sums, and maxima for
  /// the pressure peaks.  Leaves the vectors and the registry alone, so a
  /// long-lived total (the daemon's) grows no memory.
  void addScalars(const PipelineStats &RHS);

  /// addScalars, plus the vectors appended and the registry added.
  PipelineStats &operator+=(const PipelineStats &RHS);
};

/// One row of the PipelineStats scalar table.
struct StatsScalar {
  /// Key in --stats-json's and the daemon STATS reply's "pipeline" object.
  std::string_view JsonKey;
  /// Key in a disk-cache entry's stats block (persist/DiskCache.cpp).
  std::string_view DiskKey;
  /// Merged by maximum across runs (the pressure peaks), not by sum.
  bool MergeMax = false;
};

/// The scalar table of PipelineStats: calls Visit(Row, Field...) once per
/// scalar, in the fixed order every stats writer emits them, where Field
/// is that scalar of each of \p S (none: the rows alone).  The disk keys
/// are the stats block's since format version 1, so adding a row keeps
/// old entries readable (a missing key reads 0); the JSON keys are
/// --stats-json's.
template <typename VisitT, typename... StatsT>
constexpr void forEachStatsScalar(VisitT &&Visit, StatsT &...S) {
  auto Row = [&Visit](const StatsScalar &R, auto &...Field) {
    Visit(R, Field...);
  };
  Row({"regions_scheduled", "global.regions_scheduled"},
      S.Global.RegionsScheduled...);
  Row({"blocks_scheduled", "global.blocks_scheduled"},
      S.Global.BlocksScheduled...);
  Row({"useful_motions", "global.useful_motions"}, S.Global.UsefulMotions...);
  Row({"speculative_motions", "global.speculative_motions"},
      S.Global.SpeculativeMotions...);
  Row({"renames", "global.renames"}, S.Global.Renames...);
  Row({"vetoed_speculations", "global.vetoed_speculations"},
      S.Global.VetoedSpeculations...);
  Row({"local_blocks_scheduled", "local.blocks_scheduled"},
      S.Local.BlocksScheduled...);
  Row({"local_blocks_reordered", "local.blocks_reordered"},
      S.Local.BlocksReordered...);
  Row({"local_blocks_failed", "local.blocks_failed"}, S.Local.BlocksFailed...);
  Row({"loops_unrolled", "loops_unrolled"}, S.LoopsUnrolled...);
  Row({"loops_rotated", "loops_rotated"}, S.LoopsRotated...);
  Row({"prerenamed_defs", "prerenamed_defs"}, S.PreRenamedDefs...);
  Row({"regions_skipped_by_size", "regions_skipped_by_size"},
      S.RegionsSkippedBySize...);
  Row({"functions_skipped_irreducible", "functions_skipped_irreducible"},
      S.FunctionsSkippedIrreducible...);
  Row({"traces_formed", "trace.formed"}, S.TracesFormed...);
  Row({"trace_blocks", "trace.blocks"}, S.TraceBlocks...);
  Row({"tail_dup_instrs", "trace.tail_dup_instrs"}, S.TailDupInstrs...);
  Row({"tail_dup_blocks", "trace.tail_dup_blocks"}, S.TailDupBlocks...);
  Row({"traces_truncated", "trace.truncated"}, S.TracesTruncated...);
  Row({"superblocks_scheduled", "trace.superblocks_scheduled"},
      S.SuperblocksScheduled...);
  Row({"pressure_peak_gpr", "pressure_peak_gpr", true}, S.PressurePeak[0]...);
  Row({"pressure_peak_fpr", "pressure_peak_fpr", true}, S.PressurePeak[1]...);
  Row({"pressure_peak_cr", "pressure_peak_cr", true}, S.PressurePeak[2]...);
  Row({"regalloc_intervals", "regalloc.intervals"},
      S.RegAlloc.IntervalsBuilt...);
  Row({"regalloc_spilled_intervals", "regalloc.spilled_intervals"},
      S.RegAlloc.IntervalsSpilled...);
  Row({"regalloc_spill_stores", "regalloc.spill_stores"},
      S.RegAlloc.SpillStores...);
  Row({"regalloc_spill_reloads", "regalloc.spill_reloads"},
      S.RegAlloc.SpillReloads...);
  Row({"regalloc_spill_slots", "regalloc.spill_slots"},
      S.RegAlloc.SpillSlots...);
  Row({"regalloc_failures", "regalloc.failures"}, S.RegAllocFailures...);
  Row({"region_waves", "region_waves"}, S.RegionWaves...);
  Row({"opt_passes_run", "opt.passes_run"}, S.Opt.PassesRun...);
  Row({"opt_peephole_rewrites", "opt.peephole_rewrites"},
      S.Opt.PeepholeRewrites...);
  Row({"opt_strength_reduced", "opt.strength_reduced"},
      S.Opt.StrengthReduced...);
  Row({"opt_values_numbered", "opt.values_numbered"},
      S.Opt.ValuesNumbered...);
  Row({"opt_dce_removed", "opt.dce_removed"}, S.Opt.DeadRemoved...);
  Row({"transactions_run", "transactions_run"}, S.TransactionsRun...);
  Row({"regions_rolled_back", "regions_rolled_back"},
      S.RegionsRolledBack...);
  Row({"transforms_rolled_back", "transforms_rolled_back"},
      S.TransformsRolledBack...);
  Row({"verifier_failures", "verifier_failures"}, S.VerifierFailures...);
  Row({"oracle_mismatches", "oracle_mismatches"}, S.OracleMismatches...);
  Row({"engine_failures", "engine_failures"}, S.EngineFailures...);
  Row({"faults_injected", "faults_injected"}, S.FaultsInjected...);
}

/// The number of rows of the scalar table.
inline constexpr unsigned NumStatsScalars = [] {
  unsigned N = 0;
  forEachStatsScalar([&N](const StatsScalar &) { ++N; });
  return N;
}();

inline void PipelineStats::addScalars(const PipelineStats &RHS) {
  forEachStatsScalar(
      [](const StatsScalar &R, unsigned &Into, const unsigned &From) {
        Into = R.MergeMax ? std::max(Into, From) : Into + From;
      },
      *this, RHS);
}

inline PipelineStats &PipelineStats::operator+=(const PipelineStats &RHS) {
  addScalars(RHS);
  RegionTimes.insert(RegionTimes.end(), RHS.RegionTimes.begin(),
                     RHS.RegionTimes.end());
  Opt.PassTimes.insert(Opt.PassTimes.end(), RHS.Opt.PassTimes.begin(),
                       RHS.Opt.PassTimes.end());
  Diags.insert(Diags.end(), RHS.Diags.begin(), RHS.Diags.end());
  Counters += RHS.Counters;
  Decisions.insert(Decisions.end(), RHS.Decisions.begin(),
                   RHS.Decisions.end());
  return *this;
}

/// Runs the full pipeline on one function.
PipelineStats schedulePipeline(Function &F, const MachineDescription &MD,
                               const PipelineOptions &Opts);

/// Schedules one wave of mutually independent regions of \p F the way the
/// global passes do: serially, in place, in the given order, each region
/// its own region-local transaction.  \p Regions must be built on \p F in
/// its current state and be pairwise disjoint (sibling loops of one
/// loop-forest level, or block-disjoint traces).  For tests and tools that
/// drive a single wave.
PipelineStats scheduleRegionWave(Function &F, const MachineDescription &MD,
                                 const PipelineOptions &Opts,
                                 std::vector<SchedRegion> Regions);

/// Runs the full pipeline on every function of \p M.  When the oracle is
/// enabled and PipelineOptions::OracleModule is null, \p M itself is used
/// as the oracle module.
PipelineStats scheduleModule(Module &M, const MachineDescription &MD,
                             const PipelineOptions &Opts);

} // namespace gis

#endif // GIS_SCHED_PIPELINE_H
