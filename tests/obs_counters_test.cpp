//===- tests/obs_counters_test.cpp - Counter-invariant property tests ------===//
//
// Property tests over the random-program corpus tying the obs counter
// registry (src/obs/Counters.h) to the scheduler's own statistics.  The
// two are bumped at *different* code sites -- GlobalSchedStats classifies
// motions in the OnSchedule callback, the obs counters at the engine's
// pick point -- so agreement is a real cross-check of the Section 5.2/5.3
// bookkeeping, not a tautology:
//
//   motion.useful        == GlobalSchedStats::UsefulMotions
//   motion.speculative   == GlobalSchedStats::SpeculativeMotions
//   sum(rule.*)          == sched.picks_contested
//                        == decisions with >= 2 candidates
//   spec.veto_liveout    == GlobalSchedStats::VetoedSpeculations
//   spec.renames         == GlobalSchedStats::Renames
//   tx.rollbacks         == RegionsRolledBack + TransformsRolledBack
//
// Part of the `gis_obs_tests` executable (ctest label "obs").
//
//===----------------------------------------------------------------------===//

#include "frontend/CodeGen.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "obs/Counters.h"
#include "obs/Decision.h"
#include "sched/Pipeline.h"
#include "sched/Report.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

using namespace gis;

namespace {

/// Checks every registry invariant of one pipeline run.
void checkInvariants(const PipelineStats &S, const std::string &Tag) {
  const obs::CounterSet &C = S.Counters;

  // Motion classification: the engine's pick-point accounting agrees with
  // the global scheduler's OnSchedule classification.
  EXPECT_EQ(C.get(obs::MotionUseful), S.Global.UsefulMotions) << Tag;
  EXPECT_EQ(C.get(obs::MotionSpeculative), S.Global.SpeculativeMotions)
      << Tag;

  // Rule wins: exactly one rule counter per contested pick.
  EXPECT_EQ(C.ruleWinTotal(), C.get(obs::PicksContested)) << Tag;

  // The decision log mirrors the pick accounting: one record per pick,
  // contested iff the record lists a beaten candidate / carries a rule.
  uint64_t Contested = 0, Uncontested = 0;
  for (const obs::Decision &D : S.Decisions) {
    ASSERT_FALSE(D.Candidates.empty()) << Tag;
    EXPECT_EQ(D.Candidates.front(), D.Instr) << Tag;
    if (D.Candidates.size() >= 2) {
      ++Contested;
      EXPECT_NE(D.Rule, obs::RuleId::None) << Tag;
    } else {
      ++Uncontested;
      EXPECT_EQ(D.Rule, obs::RuleId::None) << Tag;
    }
  }
  EXPECT_EQ(Contested, C.get(obs::PicksContested)) << Tag;
  EXPECT_EQ(Uncontested, C.get(obs::PicksUncontested)) << Tag;

  // Section 5.3 guard and the transactional machinery.
  EXPECT_EQ(C.get(obs::SpecVetoLiveOut), S.Global.VetoedSpeculations) << Tag;
  EXPECT_EQ(C.get(obs::SpecRenames), S.Global.Renames) << Tag;
  EXPECT_EQ(C.get(obs::Rollbacks),
            uint64_t(S.RegionsRolledBack) + S.TransformsRolledBack)
      << Tag;

  // The engine-path counters never move in a raw pipeline run.
  EXPECT_EQ(C.get(obs::CacheHits), 0u) << Tag;
  EXPECT_EQ(C.get(obs::CacheMisses), 0u) << Tag;
}

TEST(ObsCounters, InvariantsOverRandomCorpus) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    std::unique_ptr<Module> M =
        compileMiniCOrDie(generateRandomMiniC(Seed));
    PipelineOptions Opts;
    Opts.CollectDecisions = true;
    PipelineStats Stats = scheduleModule(*M, MachineDescription::rs6k(), Opts);
    ASSERT_TRUE(verifyModule(*M).empty()) << "seed " << Seed;
    checkInvariants(Stats, "seed " + std::to_string(Seed));
  }
}

TEST(ObsCounters, ScheduleReportCarriesCounters) {
  std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(42));
  PipelineOptions Opts;
  Opts.CollectDecisions = true;
  ScheduleReport R = scheduleWithReport(*M, MachineDescription::rs6k(), Opts);
  checkInvariants(R.Stats, "report");
  // The motion total the report exposes equals the classified counters.
  EXPECT_EQ(R.Stats.Counters.get(obs::MotionUseful) +
                R.Stats.Counters.get(obs::MotionSpeculative),
            uint64_t(R.Stats.Global.UsefulMotions) +
                R.Stats.Global.SpeculativeMotions);
}

// Cold-path instrumentation (DESIGN.md section 14): the coldpath.* group
// must reflect the configured mode -- the delta counters only move when
// the incremental path is on, the structural counters (arena bytes, DDG
// nodes) describe the same graphs either way, and everything outside the
// group is identical across modes because the emitted schedules are.
TEST(ObsCounters, ColdpathCountersTrackIncrementalMode) {
  for (uint64_t Seed : {3u, 11u, 27u}) {
    std::string Source = generateRandomMiniC(Seed);
    std::unique_ptr<Module> Inc = compileMiniCOrDie(Source);
    std::unique_ptr<Module> Full = compileMiniCOrDie(Source);

    PipelineOptions IOpts;
    IOpts.Level = SchedLevel::Speculative;
    PipelineOptions FOpts = IOpts;
    FOpts.Incremental = false;

    PipelineStats IS = scheduleModule(*Inc, MachineDescription::rs6k(), IOpts);
    PipelineStats FS = scheduleModule(*Full, MachineDescription::rs6k(), FOpts);
    std::string Tag = "seed " + std::to_string(Seed);

    // Both modes build the same dependence graphs.
    EXPECT_GT(IS.Counters.get(obs::ColdDdgNodes), 0u) << Tag;
    EXPECT_GT(IS.Counters.get(obs::ColdArenaBytes), 0u) << Tag;
    EXPECT_EQ(IS.Counters.get(obs::ColdDdgNodes),
              FS.Counters.get(obs::ColdDdgNodes))
        << Tag;
    EXPECT_EQ(IS.Counters.get(obs::ColdArenaBytes),
              FS.Counters.get(obs::ColdArenaBytes))
        << Tag;

    // The delta machinery never engages with --no-incremental.
    EXPECT_EQ(FS.Counters.get(obs::ColdLivenessDelta), 0u) << Tag;
    EXPECT_EQ(FS.Counters.get(obs::ColdHeurBlockRecomputes), 0u) << Tag;
    EXPECT_EQ(FS.Counters.get(obs::ColdFastForwards), 0u) << Tag;
    // Neither do the caches, delta checkpoints or scoped verification.
    EXPECT_EQ(FS.Counters.get(obs::ColdDisambigCacheHits), 0u) << Tag;
    EXPECT_EQ(FS.Counters.get(obs::ColdDisambigCacheMisses), 0u) << Tag;
    EXPECT_EQ(FS.Counters.get(obs::ColdCkptBytes), 0u) << Tag;
    EXPECT_EQ(FS.Counters.get(obs::ColdVerifyBlocksScoped), 0u) << Tag;
    EXPECT_EQ(FS.Counters.get(obs::ColdVerifyBlocksTotal), 0u) << Tag;
    // ... and the incremental mode actually exercises them.
    EXPECT_GT(IS.Counters.get(obs::ColdDisambigCacheHits), 0u) << Tag;
    EXPECT_GT(IS.Counters.get(obs::ColdDisambigCacheMisses), 0u) << Tag;

    // Outside the coldpath group the runs are indistinguishable.
    obs::CounterSet A = IS.Counters, B = FS.Counters;
    for (obs::CounterId Id :
         {obs::ColdArenaBytes, obs::ColdDdgNodes, obs::ColdLivenessDelta,
          obs::ColdLivenessFull, obs::ColdHeurBlockRecomputes,
          obs::ColdFastForwards, obs::ColdDisambigCacheHits,
          obs::ColdDisambigCacheMisses, obs::ColdCkptBytes,
          obs::ColdVerifyBlocksScoped, obs::ColdVerifyBlocksTotal}) {
      A.V[static_cast<unsigned>(Id)] = 0;
      B.V[static_cast<unsigned>(Id)] = 0;
    }
    EXPECT_TRUE(A == B) << Tag;
    EXPECT_EQ(moduleToString(*Inc), moduleToString(*Full)) << Tag;
  }
}

TEST(ObsCounters, CollectionOffLeavesRegistryEmpty) {
  std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(7));
  PipelineOptions Opts;
  Opts.CollectCounters = false;
  Opts.CollectDecisions = false;
  PipelineStats Stats = scheduleModule(*M, MachineDescription::rs6k(), Opts);
  EXPECT_TRUE(Stats.Counters == obs::CounterSet{});
  EXPECT_TRUE(Stats.Decisions.empty());
}

TEST(ObsCounters, CounterSetArithmetic) {
  obs::CounterSet A, B;
  A.bump(obs::MotionUseful, 3);
  A.bump(obs::RuleSourceOrder);
  B.bump(obs::MotionUseful);
  B.bump(obs::RuleDelaySpec, 2);
  A += B;
  EXPECT_EQ(A.get(obs::MotionUseful), 4u);
  EXPECT_EQ(A.get(obs::RuleSourceOrder), 1u);
  EXPECT_EQ(A.get(obs::RuleDelaySpec), 2u);
  EXPECT_EQ(A.ruleWinTotal(), 3u);
  EXPECT_FALSE(A == B);
}

TEST(ObsCounters, KeysAreStableAndUnique) {
  std::set<std::string_view> Keys;
  for (unsigned K = 0; K != obs::NumCounters; ++K) {
    std::string_view Key = obs::counterKey(static_cast<obs::CounterId>(K));
    EXPECT_FALSE(Key.empty());
    EXPECT_TRUE(Keys.insert(Key).second) << "duplicate key " << Key;
    EXPECT_FALSE(
        obs::counterLabel(static_cast<obs::CounterId>(K)).empty());
  }
  EXPECT_EQ(obs::counterKey(obs::MotionUseful), "motion.useful");
  EXPECT_EQ(obs::counterKey(obs::RuleSourceOrder), "rule.source_order");
  EXPECT_EQ(obs::counterKey(obs::CacheHits), "cache.hits");
}

} // namespace
