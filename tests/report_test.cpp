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
