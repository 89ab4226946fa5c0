//===- tests/obs_counters_test.cpp - Counter-invariant property tests ------===//
//
// Property tests over the random-program corpus tying the obs counter
// registry (src/obs/Counters.h) to the scheduler's own statistics.  The
// motion pair is bumped at *different* code sites -- GlobalSchedStats
// classifies motions in the OnSchedule callback, the obs counters at the
// engine's pick point -- so its agreement is a real cross-check of the
// Section 5.2 bookkeeping, not a tautology; the rule and pick counters are
// checked against the decision log, which is recorded separately:
//
//   motion.useful        == GlobalSchedStats::UsefulMotions
//   motion.speculative   == GlobalSchedStats::SpeculativeMotions
//   sum(rule.*)          == sched.picks_contested
//                        == decisions with >= 2 candidates
//   tx.rollbacks         == RegionsRolledBack + TransformsRolledBack
//
// tx.rollbacks is bumped next to the two rollback fields; it stays in the
// registry for the benchmark (see obs/Counters.h), and this line keeps it
// honest.
//
// Part of the `gis_obs_tests` executable (ctest label "obs").
//
//===----------------------------------------------------------------------===//

#include "frontend/CodeGen.h"
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

  // The transactional machinery.
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

// Cold-path instrumentation (DESIGN.md sections 14-15): every mechanism
// of the default pipeline shows in the coldpath.* group -- the dependence
// graphs built, delta checkpoints and scoped verification.  Region
// liveness has no delta update, so coldpath.liveness_delta reads 0 while
// every re-solve after a motion counts in coldpath.liveness_full; nothing
// caches disambiguation, so both coldpath.disambig_cache_* ids read 0.
TEST(ObsCounters, ColdpathCountersTrackIncrementalMode) {
  for (uint64_t Seed : {3u, 11u, 27u}) {
    std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(Seed));
    PipelineOptions Opts;
    Opts.Level = SchedLevel::Speculative;
    PipelineStats S = scheduleModule(*M, MachineDescription::rs6k(), Opts);
    std::string Tag = "seed " + std::to_string(Seed);

    EXPECT_GT(S.Counters.get(obs::ColdDdgNodes), 0u) << Tag;
    EXPECT_GT(S.Counters.get(obs::ColdArenaBytes), 0u) << Tag;
    EXPECT_EQ(S.Counters.get(obs::ColdDisambigCacheHits), 0u) << Tag;
    EXPECT_EQ(S.Counters.get(obs::ColdDisambigCacheMisses), 0u) << Tag;
    EXPECT_GT(S.Counters.get(obs::ColdCkptBytes), 0u) << Tag;
    EXPECT_GT(S.Counters.get(obs::ColdVerifyBlocksScoped), 0u) << Tag;
    EXPECT_GT(S.Counters.get(obs::ColdVerifyBlocksTotal), 0u) << Tag;
    EXPECT_EQ(S.Counters.get(obs::ColdLivenessDelta), 0u) << Tag;
    EXPECT_GT(S.Counters.get(obs::ColdLivenessFull), 0u) << Tag;
  }
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
