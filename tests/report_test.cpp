//===- tests/report_test.cpp - Scheduling report tests ---------------------===//

#include "sched/Report.h"
#include "workloads/Workloads.h"
#include "frontend/CodeGen.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace gis;

TEST(ReportTest, SnapshotCountsAreAccurate) {
  auto M = compileMiniCOrDie(R"(
int main(int n) {
  int s = 0;
  int i;
  for (i = 0; i < n; i = i + 1) s = s + i;
  return s;
}
)");
  std::vector<FunctionInventory> S =
      snapshotModule(*M, MachineDescription::rs6k());
  ASSERT_EQ(S.size(), 1u);
  EXPECT_EQ(S[0].Name, "main");
  EXPECT_EQ(S[0].Loops, 1u);
  EXPECT_TRUE(S[0].Reducible);
  unsigned Instrs = 0;
  const Function &F = *M->functions()[0];
  for (BlockId B : F.layout())
    Instrs += static_cast<unsigned>(F.block(B).size());
  EXPECT_EQ(S[0].Instructions, Instrs);
  EXPECT_GT(S[0].StaticCycleEstimate, 0u);
}

TEST(ReportTest, ScheduleWithReportShowsImprovement) {
  auto M = minmaxFigure2Module();
  PipelineOptions Opts;
  Opts.EnableUnroll = false; // keep instruction counts comparable
  Opts.EnableRotate = false;
  ScheduleReport R =
      scheduleWithReport(*M, MachineDescription::rs6k(), Opts);
  ASSERT_EQ(R.Before.size(), 1u);
  ASSERT_EQ(R.After.size(), 1u);
  // No duplication/unrolling: the instruction count is preserved exactly.
  EXPECT_EQ(R.Before[0].Instructions, R.After[0].Instructions);
  // The static estimate must drop (the 20->12 staircase in static form).
  EXPECT_LT(R.After[0].StaticCycleEstimate, R.Before[0].StaticCycleEstimate);
  EXPECT_GT(R.Stats.Global.UsefulMotions, 0u);

  // The exact estimates, before and after scheduling, of Figure 2 and of
  // every function of the four SPEC-shaped kernels under the same options:
  // the report's per-block scheduling is the local pass's, so a change to
  // either moves these.
  std::string Actual;
  auto Pin = [&](const ScheduleReport &Rep) {
    ASSERT_EQ(Rep.Before.size(), Rep.After.size());
    for (size_t K = 0; K != Rep.After.size(); ++K)
      Actual += Rep.After[K].Name + " " +
                std::to_string(Rep.Before[K].StaticCycleEstimate) + "->" +
                std::to_string(Rep.After[K].StaticCycleEstimate) + "\n";
  };
  Pin(R);
  for (const Workload &W : specLikeWorkloads()) {
    auto Kernel = compileMiniCOrDie(W.Source);
    Pin(scheduleWithReport(*Kernel, MachineDescription::rs6k(), Opts));
  }
  const char *Expected = "minmax 46->27\n"
                         "li_interp 102->88\n"
                         "eqntott_cmp 65->53\n"
                         "espresso_inter 1031->1031\n"
                         "gcc_leafsum 16->16\n"
                         "gcc_hash 35->34\n"
                         "gcc_walk 138->133\n";
  EXPECT_EQ(Actual, Expected);
}

TEST(ReportTest, PrintedTableContainsEveryFunction) {
  auto M = compileMiniCOrDie(R"(
int helper(int x) { return x * 2; }
int main() { return helper(21); }
)");
  PipelineOptions Opts;
  ScheduleReport R =
      scheduleWithReport(*M, MachineDescription::rs6k(), Opts);
  std::ostringstream OS;
  printReport(R, OS);
  std::string Text = OS.str();
  EXPECT_NE(Text.find("helper"), std::string::npos);
  EXPECT_NE(Text.find("main"), std::string::npos);
  EXPECT_NE(Text.find("motions:"), std::string::npos);
}
