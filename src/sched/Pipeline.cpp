//===- sched/Pipeline.cpp - The paper's scheduling pipeline ----------------===//

#include "sched/Pipeline.h"

#include "analysis/Liveness.h"
#include "analysis/MemDisambig.h"
#include "analysis/RegPressure.h"
#include "analysis/Region.h"
#include "interp/DifferentialOracle.h"
#include "ir/Checkpoint.h"
#include "ir/Verifier.h"
#include "obs/Trace.h"
#include "sched/PreRenaming.h"
#include "sched/Rotate.h"
#include "sched/ScheduleVerifier.h"
#include "sched/Transaction.h"
#include "sched/Unroll.h"
#include "support/FaultInjection.h"
#include "trace/TailDuplication.h"
#include "trace/TraceFormation.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <optional>

using namespace gis;

namespace {

/// Loop levels scheduled by the pipeline: a loop is "inner" when it has no
/// children; "outer" when all its children are inner.  The top-level
/// region (the function body) is treated as outer.
bool isInnerLoop(const LoopInfo &LI, unsigned L) {
  return LI.loop(L).Children.empty();
}

bool isOuterLoop(const LoopInfo &LI, unsigned L) {
  if (LI.loop(L).Children.empty())
    return false;
  for (int C : LI.loop(L).Children)
    if (!LI.loop(C).Children.empty())
      return false;
  return true;
}

/// Shared context of one pipeline run's transactions.
struct TxContext {
  Function &F;
  const MachineDescription &MD;
  const PipelineOptions &Opts;
  PipelineStats &Stats;
};

/// The guard configuration of the run's whole-function transactions.
TransactionConfig txConfig(const PipelineOptions &Opts) {
  TransactionConfig Cfg;
  Cfg.Enabled = Opts.EnableTransactions;
  Cfg.VerifyStructural = Opts.VerifyStructural;
  Cfg.EnableOracle = Opts.EnableOracle;
  Cfg.OracleModule = Opts.OracleModule;
  Cfg.OracleMaxSteps = Opts.OracleMaxSteps;
  return Cfg;
}

/// Folds one whole-function transaction's outcome into the run's
/// statistics: the body's statistics \p Delta on commit, a rollback record
/// and its diagnostic otherwise.  \p RegionScoped selects the rollback
/// counter.  Returns true when the transaction committed.
bool recordOutcome(TxContext &Ctx, const TransactionResult &R,
                   PipelineStats &Delta, const char *Stage, int LoopIdx,
                   bool RegionScoped) {
  if (!Ctx.Opts.EnableTransactions) {
    Ctx.Stats += Delta; // ran bare; a failure already aborted
    return true;
  }
  ++Ctx.Stats.TransactionsRun;
  if (R.EngineFailure)
    ++Ctx.Stats.EngineFailures;
  if (R.FaultInjected)
    ++Ctx.Stats.FaultsInjected;
  if (R.VerifierFailure)
    ++Ctx.Stats.VerifierFailures;
  if (R.OracleMismatch)
    ++Ctx.Stats.OracleMismatches;

  if (R.Committed) {
    Ctx.Stats += Delta;
    return true;
  }

  if (RegionScoped)
    ++Ctx.Stats.RegionsRolledBack;
  else
    ++Ctx.Stats.TransformsRolledBack;
  Ctx.Stats.Counters.bump(obs::Rollbacks);
  obs::Tracer::instance().instant("rollback", "tx", "loop",
                                  static_cast<int64_t>(LoopIdx));
  reportDiagnostic(Ctx.Stats.Diags, R.S, Ctx.F.name(), Stage, LoopIdx);
  return false;
}

/// Runs one whole-function transform as a transaction: checkpoint,
/// transform, verify, commit or roll back.  Region scheduling does not
/// come through here -- it uses the region-local transaction boundary of
/// scheduleRegionTask below, which rolls back a single region instead of
/// the whole function.
///
/// The checkpoint is first-touch (ir/Checkpoint.h): the body notes each
/// block list, pool entry and -- for a CFG transform -- the layout before
/// first mutating it, and rollback truncates what the body appended and
/// re-applies the records (sched/Transaction.h).  With transactions off
/// the body runs bare under an unarmed checkpoint.
///
/// \param Stage    stable stage name ("prerename", "unroll", "rotate",
///                 "local", ...); also the fault injection trigger point
///                 (GIS_FAULT_INJECT).
/// \param LoopIdx  region loop index for diagnostics (-1: whole function).
/// \param Body     the transform.  Records its statistics into the passed
///                 delta (merged into Ctx.Stats only on commit) and
///                 reports recoverable failures through its return Status.
/// \param RegionScoped controls which rollback counter a failure bumps.
///
/// Returns true when the transaction committed.
bool runDeltaTransaction(
    TxContext &Ctx, const char *Stage, int LoopIdx,
    const std::function<Status(PipelineStats &, DeltaCheckpoint &)> &Body,
    bool RegionScoped) {
  obs::TraceSpan StageSpan(Stage, "stage", "loop",
                           static_cast<int64_t>(LoopIdx));
  const TransactionConfig Cfg = txConfig(Ctx.Opts);
  PipelineStats Delta;
  DeltaCheckpoint Ck(Ctx.F, Cfg.Enabled);
  TransactionResult R = runFunctionTransactionDelta(
      Ctx.F, Stage, Cfg, Ck, [&] { return Body(Delta, Ck); });
  if (Cfg.Enabled)
    Ctx.Stats.Counters.bump(obs::ColdCkptBytes, Ck.bytesSaved());
  return recordOutcome(Ctx, R, Delta, Stage, LoopIdx, RegionScoped);
}

/// Runs register allocation as a transaction over a full FunctionSnapshot:
/// the allocator rewrites every register operand and inserts spill code,
/// so first-touch records would copy the whole function anyway.
bool runRegAllocTransaction(TxContext &Ctx,
                            const std::function<Status(PipelineStats &)> &Body) {
  obs::TraceSpan StageSpan("regalloc", "stage", "loop", -1);
  PipelineStats Delta;
  TransactionResult R = runFunctionTransaction(
      Ctx.F, "regalloc", txConfig(Ctx.Opts), [&] { return Body(Delta); });
  return recordOutcome(Ctx, R, Delta, "regalloc", -1, /*RegionScoped=*/false);
}

/// The pipeline computes LoopInfo once per CFG change -- at entry and
/// after each committed unroll or rotation -- and reuses it in between:
/// region scheduling never edits the CFG, and nothing reads it after tail
/// duplication.
/// GIS_SLOWPATH_CHECK builds compare every reuse with a fresh compute and
/// treat a difference as fatal.
void checkReusedLoopInfo(const Function &F, const LoopInfo &LI) {
#ifdef GIS_SLOWPATH_CHECK
  if (!(LoopInfo::compute(F) == LI))
    fatalError(__FILE__, __LINE__,
               "slow-path check: reused LoopInfo diverges from a fresh "
               "compute");
#else
  (void)F;
  (void)LI;
#endif
}

//===----------------------------------------------------------------------===
// Region waves (the region dependence forest)
//===----------------------------------------------------------------------===
//
// Two regions of one function conflict exactly when one encloses the other:
// the enclosing region reads the enclosed loop's blocks through its summary
// nodes (SummaryDefs/SummaryUses), and "shares" no block otherwise --
// regions partition the function's blocks.  The dependence structure is
// therefore the loop forest itself, and its levels are the waves: all loops
// of equal forest height are pairwise disjoint and independent, while a
// parent must wait for its children's commits.  The top-level region runs
// as the final wave of the second pass.
//
// Execution model: the tasks of a wave run serially, in region-index
// order, in place on the function.  Each task is its own region-local
// transaction (snapshot, schedule, verify, commit or roll back), so a
// failed task rolls back only its own blocks and its siblings still
// commit.  Every task sees the wave as it started: its region liveness
// freezes the out-of-region boundary from the wave-start function, and the
// wave's disambiguation facts are derived once from that function.  A task allocates fresh
// registers from the function's counters, which its rollback restores.

/// Forest height of every loop (leaves are 0); children therefore always
/// sit in a strictly earlier wave than their parent.
std::vector<unsigned> loopHeights(const LoopInfo &LI) {
  std::vector<unsigned> H(LI.numLoops(), 0);
  for (unsigned L : LI.innermostFirstOrder()) // children visited first
    for (int C : LI.loop(L).Children)
      H[L] = std::max(H[L], H[C] + 1);
  return H;
}

/// Schedules region \p R in place as one region-local transaction of wave
/// \p WaveNo; \p WaveLV and \p WaveFacts are the wave-start
/// whole-function liveness and disambiguation facts.
/// Rollback is guarded by a first-touch region snapshot that the scheduler
/// notes its renames into, and semantic verification by the block-scoped
/// verifier on the scheduler's own PDG, reading the pre-pass state from
/// that snapshot and a capture (DESIGN.md section 15).  The differential
/// oracle needs the complete pre-pass function and takes one full copy.
void scheduleRegionTask(TxContext &Ctx, const GlobalSchedOptions &GOpts,
                        const SchedRegion &R, const Liveness &WaveLV,
                        const DisambigFacts &WaveFacts, unsigned WaveNo) {
  const int LoopIdx = R.loopIndex();
  obs::TraceSpan RegionSpan("region", "region", "loop",
                            static_cast<int64_t>(LoopIdx), "wave",
                            static_cast<int64_t>(WaveNo));
  auto Start = std::chrono::steady_clock::now();

  const bool Transactional = Ctx.Opts.EnableTransactions;
  const bool Verify = Transactional && Ctx.Opts.VerifySemantic;
  // GIS_SLOWPATH_CHECK builds also run the whole-function verifier, from a
  // full pre-pass copy, and treat any divergence from the scoped verdict
  // as fatal.
#ifdef GIS_SLOWPATH_CHECK
  const bool DualVerify = Verify;
#else
  const bool DualVerify = false;
#endif
  const bool Oracle =
      Transactional && Ctx.Opts.EnableOracle && Ctx.Opts.OracleModule;
  std::optional<Function> Before;
  if (DualVerify || Oracle)
    Before.emplace(Ctx.F);
  ScopedVerifyContext VCtx;
  if (Verify)
    VCtx = ScopedVerifyContext::capture(Ctx.F, R);
  std::vector<BlockId> Blocks; // the region's real blocks
  for (const RegionNode &N : R.nodes())
    if (N.isBlock())
      Blocks.push_back(N.Block);
  std::optional<RegionSnapshot> Snap;
  if (Transactional)
    Snap.emplace(Ctx.F, Blocks);

  PipelineStats Delta; // body statistics, merged only on commit
  obs::SchedSink Sink;
  Sink.Counters = &Delta.Counters;
  if (Ctx.Opts.CollectDecisions)
    Sink.Decisions = &Delta.Decisions;
  GlobalScheduler GS(Ctx.MD, GOpts);
  Status S;
  PDG P;
  Delta.Global = GS.scheduleRegion(Ctx.F, R, Transactional ? &S : nullptr,
                                    &WaveLV, &WaveFacts, Sink,
                                    Verify ? &P : nullptr,
                                    Snap ? &*Snap : nullptr);
  if (Transactional) {
    ++Ctx.Stats.TransactionsRun;
    if (!S.isOk())
      ++Ctx.Stats.EngineFailures;
    if (S.isOk() && FaultInjector::instance().shouldFire("region") &&
        corruptRegionForTest(Ctx.F, Blocks))
      ++Ctx.Stats.FaultsInjected;
    if (S.isOk() && Ctx.Opts.VerifyStructural) {
      std::vector<std::string> Problems = verifyFunction(Ctx.F);
      if (!Problems.empty()) {
        S = Status::error(ErrorCode::VerifierStructural, Problems.front());
        ++Ctx.Stats.VerifierFailures;
      }
    }
    if (S.isOk() && Verify) {
      ScopedVerifyStats VS;
      std::vector<std::string> Problems =
          verifyRegionScheduleScoped(VCtx, *Snap, Ctx.F, R, Ctx.MD, P, &VS);
      // Dual-run: the block-scoped verifier must agree with the full
      // sweep -- same verdict, byte-identical diagnostics.
      if (DualVerify &&
          Problems != verifyRegionSchedule(*Before, Ctx.F, R, Ctx.MD, &P))
        fatalError(__FILE__, __LINE__,
                   "slow-path check: scoped schedule verifier diverges "
                   "from the full sweep");
      Delta.Counters.bump(obs::ColdVerifyBlocksScoped, VS.BlocksVerified);
      Delta.Counters.bump(obs::ColdVerifyBlocksTotal, VS.BlocksTotal);
      if (!Problems.empty()) {
        S = Status::error(ErrorCode::VerifierSemantic, Problems.front());
        ++Ctx.Stats.VerifierFailures;
      }
    }
    if (S.isOk() && Oracle) {
      OracleOptions OOpts;
      OOpts.MaxSteps = Ctx.Opts.OracleMaxSteps;
      OracleReport Rep = runDifferentialOracle(*Ctx.Opts.OracleModule,
                                               *Before, Ctx.F, OOpts);
      if (Rep.Verdict == OracleVerdict::Mismatch) {
        S = Status::error(ErrorCode::OracleMismatch, Rep.Detail);
        ++Ctx.Stats.OracleMismatches;
      }
    }
  } else if (!S.isOk()) {
    // Unreachable: with Err == nullptr scheduleRegion aborts on failure
    // (the historical fail-fast contract).
    fatalError(__FILE__, __LINE__, S.str().c_str());
  }
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  Ctx.Stats.RegionTimes.push_back({LoopIdx, WaveNo, Seconds});
  ++Ctx.Stats.RegionTasks;

  if (!S.isOk()) {
    // Region-local rollback: restore the region's block lists, noted pool
    // entries and the register counters (fail-stop on a lost note).  The task's counters and
    // decisions are dropped with it: observability reports committed work
    // only.
    Snap->restore(Ctx.F);
    ++Ctx.Stats.RegionsRolledBack;
    Ctx.Stats.Counters.bump(obs::Rollbacks);
    obs::Tracer::instance().instant("rollback", "tx", "loop",
                                    static_cast<int64_t>(LoopIdx));
    reportDiagnostic(Ctx.Stats.Diags, S, Ctx.F.name(), "region", LoopIdx);
    return;
  }
  for (obs::Decision &D : Delta.Decisions) {
    D.LoopIdx = LoopIdx;
    D.Wave = WaveNo;
  }
  Ctx.Stats += Delta;
}

/// Schedules one wave of mutually independent, pre-built regions.  Shared
/// by the loop-forest waves (scheduleLoopWave below, which builds the
/// regions from loop indices) and the superblock phase (whose trace
/// regions have no loop index; SchedRegion::buildTrace).  Each task is
/// identified by its region's loopIndex() -- a real loop index, -1 for
/// the top-level region, or a trace encoding (<= -2) -- used only for
/// diagnostics and timing records.
void scheduleWave(TxContext &Ctx, std::vector<SchedRegion> Regions) {
  // Size limits, before any task runs.
  std::erase_if(Regions, [&](const SchedRegion &R) {
    bool TooBig = R.numRealBlocks() > Ctx.Opts.RegionBlockLimit ||
                  R.numInstrs() > Ctx.Opts.RegionInstrLimit;
    if (TooBig)
      ++Ctx.Stats.RegionsSkippedBySize;
    return TooBig;
  });
  if (Regions.empty())
    return;
  // Whole-function liveness and disambiguation facts of the wave-start
  // function, derived once per wave: each task freezes its region's
  // out-of-region boundary from the liveness and builds its dependence
  // graph from the facts, whatever its siblings committed.
  const Liveness WaveLV = Liveness::compute(Ctx.F);
  const DisambigFacts WaveFacts = DisambigFacts::build(Ctx.F);

  const unsigned WaveNo = Ctx.Stats.RegionWaves;
  obs::TraceSpan WaveSpan("wave", "region", "wave",
                          static_cast<int64_t>(WaveNo), "tasks",
                          static_cast<int64_t>(Regions.size()));

  GlobalSchedOptions GOpts;
  GOpts.Level = Ctx.Opts.Level;
  GOpts.MaxSpecDepth = Ctx.Opts.MaxSpecDepth;
  GOpts.EnableRenaming = Ctx.Opts.EnableRenaming;
  GOpts.Order = Ctx.Opts.Order;
  GOpts.Profile = Ctx.Opts.Profile;

  for (const SchedRegion &R : Regions)
    scheduleRegionTask(Ctx, GOpts, R, WaveLV, WaveFacts, WaveNo);
  ++Ctx.Stats.RegionWaves;
}

/// Schedules one wave of mutually independent regions (\p LoopIdxs; -1 is
/// the top-level region).
void scheduleLoopWave(TxContext &Ctx, const LoopInfo &LI,
                      const std::vector<int> &LoopIdxs) {
  std::vector<SchedRegion> Regions;
  Regions.reserve(LoopIdxs.size());
  for (int LoopIdx : LoopIdxs)
    Regions.push_back(SchedRegion::build(Ctx.F, LI, LoopIdx));
  scheduleWave(Ctx, std::move(Regions));
}

} // namespace

PipelineStats gis::scheduleRegionWave(Function &F, const MachineDescription &MD,
                                      const PipelineOptions &Opts,
                                      std::vector<SchedRegion> Regions) {
  PipelineStats Stats;
  TxContext Ctx{F, MD, Opts, Stats};
  scheduleWave(Ctx, std::move(Regions));
  return Stats;
}

PipelineStats gis::schedulePipeline(Function &F, const MachineDescription &MD,
                                    const PipelineOptions &Opts) {
  PipelineStats Stats;
  TxContext Ctx{F, MD, Opts, Stats};
  obs::Tracer &Tr = obs::Tracer::instance();
  obs::TraceSpan PipeSpan("pipeline", "pipeline", nullptr, 0, nullptr, 0,
                          Tr.enabled() ? std::string(F.name())
                                       : std::string());
  F.recomputeCFG();

  // Step -1: the mid-end optimizer (src/opt/), the stage the paper's XL
  // compiler ran before handing IR to the scheduler.  Each pass is its own
  // transaction under the same guards as the scheduling transforms; its
  // report folds into this run's statistics so rollbacks, faults and
  // diagnostics surface through the one channel.
  if (Opts.Opt.anyEnabled()) {
    opt::OptRunReport R =
        opt::runOptPasses(F, MD, Opts.Opt, txConfig(Opts), &Stats.Counters);
    Stats.Opt = std::move(R.Opt);
    Stats.TransactionsRun += R.TransactionsRun;
    Stats.TransformsRolledBack += R.TransformsRolledBack;
    Stats.VerifierFailures += R.VerifierFailures;
    Stats.OracleMismatches += R.OracleMismatches;
    Stats.EngineFailures += R.EngineFailures;
    Stats.FaultsInjected += R.FaultsInjected;
    Stats.Diags.insert(Stats.Diags.end(), R.Diags.begin(), R.Diags.end());
  }

  F.renumberOriginalOrder();

  // The loop forest, recomputed only when a CFG transform commits (see
  // checkReusedLoopInfo).
  LoopInfo LI = LoopInfo::compute(F);
  bool GlobalEnabled = Opts.Level != SchedLevel::None;
  if (!LI.isReducible()) {
    ++Stats.FunctionsSkippedIrreducible;
    GlobalEnabled = false;
  }

  // Step 0: the Section 4.2 preprocessing -- rename block-local values so
  // register reuse does not manufacture anti/output dependences.  In the
  // paper this renaming belongs to the XL compiler's general optimization
  // (the base compiler has it too), so it is not gated on the global
  // scheduling level: the basic-block scheduler profits as well.
  if (Opts.EnablePreRenaming)
    runDeltaTransaction(
        Ctx, "prerename", -1,
        [&](PipelineStats &Delta, DeltaCheckpoint &Ck) {
          Delta.PreRenamedDefs = preRenameLocals(F, &Ck).RenamedDefs;
          return Status::ok();
        },
        /*RegionScoped=*/false);

  if (GlobalEnabled) {
    // Step 1: unroll small inner loops once.  Each unroll invalidates
    // LoopInfo, so process one loop at a time.  A rolled-back unroll marks
    // its header done, so the loop is simply left un-unrolled.
    if (Opts.EnableUnroll) {
      bool Progress = true;
      std::vector<BlockId> UnrolledHeaders;
      while (Progress) {
        Progress = false;
        checkReusedLoopInfo(F, LI);
        for (unsigned L = 0; L != LI.numLoops(); ++L) {
          if (!isInnerLoop(LI, L) ||
              LI.loop(L).numBlocks() > Opts.UnrollMaxBlocks)
            continue;
          BlockId Header = LI.loop(L).Header;
          if (std::find(UnrolledHeaders.begin(), UnrolledHeaders.end(),
                        Header) != UnrolledHeaders.end())
            continue; // already unrolled once
          UnrolledHeaders.push_back(Header);
          if (!canUnrollOnce(F, LI, L))
            continue; // shape unsupported; no transaction needed
          bool Changed = false;
          bool Committed = runDeltaTransaction(
              Ctx, "unroll", static_cast<int>(L),
              [&](PipelineStats &Delta, DeltaCheckpoint &Ck) {
                Status S;
                Changed = unrollLoopOnce(
                    F, LI, L, Opts.EnableTransactions ? &S : nullptr, &Ck);
                if (Changed)
                  ++Delta.LoopsUnrolled;
                return S;
              },
              /*RegionScoped=*/false);
          if (Committed && Changed) {
            LI = LoopInfo::compute(F); // the CFG changed; restart the scan
            Progress = true;
            break;
          }
        }
      }
    }

    // Step 2: first global scheduling pass over the inner regions.  Inner
    // loops are leaves of the loop forest, hence pairwise disjoint: one
    // wave.
    checkReusedLoopInfo(F, LI);
    {
      obs::TraceSpan Pass1Span("pass1", "stage");
      std::vector<int> Inner;
      for (unsigned L : LI.innermostFirstOrder())
        if (isInnerLoop(LI, L))
          Inner.push_back(static_cast<int>(L));
      if (!Inner.empty())
        scheduleLoopWave(Ctx, LI, Inner);
    }

    // Step 3: rotate small inner loops.  As with unrolling, a rolled-back
    // rotation leaves the loop in its original shape and moves on.
    if (Opts.EnableRotate) {
      bool Progress = true;
      std::vector<BlockId> RotatedHeaders;
      while (Progress) {
        Progress = false;
        checkReusedLoopInfo(F, LI);
        for (unsigned L = 0; L != LI.numLoops(); ++L) {
          if (!isInnerLoop(LI, L) ||
              LI.loop(L).numBlocks() > Opts.RotateMaxBlocks)
            continue;
          BlockId Header = LI.loop(L).Header;
          if (std::find(RotatedHeaders.begin(), RotatedHeaders.end(),
                        Header) != RotatedHeaders.end())
            continue;
          if (!canRotateLoop(F, LI, L)) {
            RotatedHeaders.push_back(Header);
            continue;
          }
          bool Changed = false;
          bool Committed = runDeltaTransaction(
              Ctx, "rotate", static_cast<int>(L),
              [&](PipelineStats &Delta, DeltaCheckpoint &Ck) {
                Status S;
                Changed = rotateLoop(
                    F, LI, L, Opts.EnableTransactions ? &S : nullptr, &Ck);
                if (Changed)
                  ++Delta.LoopsRotated;
                return S;
              },
              /*RegionScoped=*/false);
          if (Committed && Changed) {
            // The rotated loop's header changes; remember the new loops by
            // marking every current header as done after one rotation.
            LI = LoopInfo::compute(F);
            for (unsigned L2 = 0; L2 != LI.numLoops(); ++L2)
              RotatedHeaders.push_back(LI.loop(L2).Header);
            Progress = true;
            break;
          }
          RotatedHeaders.push_back(Header);
        }
      }
    }

    // Step 4: second global scheduling pass -- rotated inner loops plus
    // outer regions (and the top-level region).  Loops are grouped into
    // waves by loop-forest height, ascending: same-height loops are
    // pairwise disjoint (independent), while a parent region reads its
    // children's blocks through its summary nodes and so runs only after
    // their wave committed.
    checkReusedLoopInfo(F, LI);
    {
      obs::TraceSpan Pass2Span("pass2", "stage");
      std::vector<unsigned> Heights = loopHeights(LI);
      std::map<unsigned, std::vector<int>> Waves; // height -> loops
      for (unsigned L : LI.innermostFirstOrder()) {
        bool Schedule = isInnerLoop(LI, L) ||
                        (Opts.OnlyTwoInnerLevels ? isOuterLoop(LI, L) : true);
        if (Schedule)
          Waves[Heights[L]].push_back(static_cast<int>(L));
      }
      for (const auto &[Height, Loops] : Waves)
        scheduleLoopWave(Ctx, LI, Loops);
    }
    // The function body region: with the two-level restriction it is
    // scheduled only when no loop nesting exceeds it (the body is then
    // effectively the outer region).  It encloses every loop, so it is a
    // single-region wave after all of them.
    bool ScheduleTop = true;
    if (Opts.OnlyTwoInnerLevels) {
      for (unsigned L = 0; L != LI.numLoops(); ++L)
        if (LI.loop(L).Parent < 0 && !LI.loop(L).Children.empty())
          ScheduleTop = false; // top level sits above two loop levels
    }
    if (ScheduleTop) {
      obs::TraceSpan TopSpan("pass2", "stage");
      scheduleLoopWave(Ctx, LI, {-1});
    }

    // Superblock formation (DESIGN.md section 16): pick hot chains by
    // mutual-most-likely edge selection (static branch-not-taken heuristic
    // without a profile), tail-duplicate their side entrances away, and
    // reschedule each surviving single-entry chain as one multi-exit
    // region.  Runs after the top-level wave so the superblock pass has
    // the last word over the hot path's code motion.  Formation is pure
    // analysis in its own transaction ("trace-form"); each duplication is
    // a separate "tail-dup" transaction -- a rollback drops that one
    // trace and its budget spend, never the whole phase.
    if (Opts.EnableSuperblocks) {
      checkReusedLoopInfo(F, LI);
      TraceFormationOptions TOpts;
      TOpts.MaxBlocks = std::min(Opts.TraceMaxBlocks, Opts.RegionBlockLimit);
      TOpts.Profile = Opts.Profile;
      std::vector<SuperblockTrace> Traces;
      bool Formed = runDeltaTransaction(
          Ctx, "trace-form", -1,
          [&](PipelineStats &Delta, DeltaCheckpoint &) {
            Traces = formTraces(F, LI, TOpts);
            for (const SuperblockTrace &T : Traces) {
              ++Delta.TracesFormed;
              Delta.TraceBlocks += static_cast<unsigned>(T.Blocks.size());
            }
            return Status::ok();
          },
          /*RegionScoped=*/false);
      if (!Formed)
        Traces.clear(); // the phase degrades to a no-op, nothing half-formed

      // Hottest trace first: it spends the clone budget before lukewarm
      // ones (stable, so the no-profile order is layout order).
      std::stable_sort(Traces.begin(), Traces.end(),
                       [](const SuperblockTrace &A, const SuperblockTrace &B) {
                         return A.HeadFreq > B.HeadFreq;
                       });

      unsigned BudgetLeft = Opts.TraceDupBudget;
      for (SuperblockTrace &T : Traces) {
        // Entrances are re-derived on the current CFG rather than trusted
        // from formation: an earlier trace's duplication may have added or
        // removed entrances of this one.
        F.recomputeCFG();
        if (findFirstSideEntrance(F, T.Blocks) < 0)
          continue;
        // The transform mutates the trace and the budget; operate on
        // copies and write back only on commit, so a rollback restores
        // both (the checkpoint restores only the function).
        SuperblockTrace Tmp = T;
        unsigned Bud = BudgetLeft;
        TailDuplicationStats DS;
        bool Committed = runDeltaTransaction(
            Ctx, "tail-dup", -1,
            [&](PipelineStats &Delta, DeltaCheckpoint &Ck) {
              DS = duplicateTails(F, Tmp, Bud, &Ck);
              Delta.TailDupInstrs += DS.ClonedInstrs;
              Delta.TailDupBlocks += DS.ClonedBlocks + DS.TrampolineBlocks;
              Delta.TracesTruncated += DS.TracesTruncated;
              return Status::ok();
            },
            /*RegionScoped=*/true);
        // The transform fires the "tail-dup" fault itself (it drops one
        // cloned instruction -- the lost-duplicate bug class); the
        // transaction wrapper cannot see that, so count it here.
        if (DS.FaultInjected)
          ++Stats.FaultsInjected;
        if (Committed) {
          T = std::move(Tmp);
          BudgetLeft = Bud;
        } else {
          T.Blocks.clear(); // function rolled back; the trace goes with it
        }
      }

      // One wave of trace regions: traces are block-disjoint, so they are
      // mutually independent like a loop-forest level.  A chain that is
      // still multi-entry (unaffordable tail, rollback) is not a region;
      // its blocks were already scheduled by the regular passes.
      F.recomputeCFG();
      std::vector<SchedRegion> Regions;
      int TraceIdx = 0;
      for (const SuperblockTrace &T : Traces) {
        if (T.Blocks.size() < 2 || findFirstSideEntrance(F, T.Blocks) >= 0)
          continue;
        Regions.push_back(SchedRegion::buildTrace(F, T.Blocks, TraceIdx++));
      }
      if (!Regions.empty()) {
        Stats.SuperblocksScheduled += static_cast<unsigned>(Regions.size());
        obs::TraceSpan SBSpan("superblocks", "stage");
        scheduleWave(Ctx, std::move(Regions));
      }
    }
  }

  // Step 5: the basic-block scheduler with its (per the paper, more
  // detailed) machine model runs over every block.
  auto RunLocal = [&](const char *Stage) {
    runDeltaTransaction(
        Ctx, Stage, -1,
        [&](PipelineStats &Delta, DeltaCheckpoint &Ck) {
          obs::SchedSink Sink;
          Sink.Counters = &Delta.Counters;
          if (Opts.CollectDecisions)
            Sink.Decisions = &Delta.Decisions;
          Delta.Local = scheduleLocal(F, MD, Sink, &Ck);
          return Status::ok();
        },
        /*RegionScoped=*/false);
  };
  if (Opts.RunLocalScheduler)
    RunLocal("local");

  // Peak pressure of the scheduled, still-symbolic code: the quantity the
  // finite register files must absorb (and what --stats reports even when
  // allocation is off).
  {
    RegPressure RP = computeRegPressure(F);
    for (unsigned C = 0; C != 3; ++C)
      Stats.PressurePeak[C] = std::max(Stats.PressurePeak[C], RP.MaxLive[C]);
  }

  // Step 6: register allocation (regalloc/LinearScan.h) maps the function
  // onto the machine's finite register files, then the basic-block
  // scheduler runs once more so the spill code's anti/output dependences
  // are woven into the issue slots -- the XL "twice-scheduled" flow the
  // paper describes.  A failed allocation rolls back to symbolic registers
  // and the pipeline's ordinary output stands.
  if (Opts.AllocateRegisters) {
    bool Committed = runRegAllocTransaction(Ctx, [&](PipelineStats &Delta) {
      RegAllocStats RA;
      Status S = allocateRegisters(F, MD, RA);
      if (!S.isOk())
        return S;
      Delta.RegAlloc = RA;
      return S;
    });
    if (!Committed)
      ++Stats.RegAllocFailures;
    if (Committed && Opts.RescheduleAfterAlloc && Opts.RunLocalScheduler) {
      F.renumberOriginalOrder();
      RunLocal("postalloc");
    }
  }

  F.recomputeCFG();
  F.renumberOriginalOrder();
  for (obs::Decision &D : Stats.Decisions)
    if (D.Fn.empty())
      D.Fn = F.name();
  return Stats;
}

PipelineStats gis::scheduleModule(Module &M, const MachineDescription &MD,
                                  const PipelineOptions &Opts) {
  PipelineStats Stats;
  PipelineOptions FnOpts = Opts;
  if (FnOpts.EnableOracle && !FnOpts.OracleModule)
    FnOpts.OracleModule = &M;
  for (auto &F : M.functions())
    Stats += schedulePipeline(*F, MD, FnOpts);
  return Stats;
}
