//===- tests/eseries_test.cpp - E-series cycle cells pinned ---------------===//
//
// Every cycle cell of E3 (Figure 8), E4 (machine width), E5 (priority-rule
// ordering) and E14 (superblocks x branch predictors, with mispredicts) is
// pinned to tests/data/e_series_cycles.txt.  The cells come from the same
// helpers the bench binaries print them with (bench/BenchCommon.h), so a
// change that moves a printed cycle count fails here first.  On a mismatch
// the test names the first differing line; a change that means to move
// cycles regenerates the file with GIS_UPDATE_GOLDENS=1, like the
// decision-log goldens.
//
// Part of the `gis_coldpath_tests` executable (ctest label "perf-equiv"),
// so the GIS_SLOWPATH_CHECK build runs it too.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

using namespace gis;
using namespace gis::bench;

namespace {

/// One pinned cell: "experiment | machine | program | configuration |
/// value".
std::string cell(const char *Experiment, const MachineDescription &MD,
                 const Workload &W, const std::string &Config,
                 const std::string &Value) {
  return formatString("%s | %s | %s | %s | %s", Experiment, MD.name().c_str(),
                      W.Name.c_str(), Config.c_str(), Value.c_str());
}

std::string cycles(uint64_t N) {
  return formatString("%llu cycles", static_cast<unsigned long long>(N));
}

/// Every cell of the four tables, in table order.
std::vector<std::string> eSeriesCells() {
  std::vector<std::string> Lines;
  const std::vector<Workload> Workloads = specLikeWorkloads();
  const MachineDescription RS6K = MachineDescription::rs6k();

  // E3: rs6k x base/useful/speculative.
  for (const Workload &W : Workloads) {
    Lines.push_back(cell("E3", RS6K, W, "base",
                         cycles(workloadCycles(W, RS6K, baseOptions()))));
    Lines.push_back(cell("E3", RS6K, W, "useful",
                         cycles(workloadCycles(W, RS6K, usefulOptions()))));
    Lines.push_back(
        cell("E3", RS6K, W, "speculative",
             cycles(workloadCycles(W, RS6K, speculativeOptions()))));
  }

  // E4: widths 1-4 x base/speculative.
  for (const Workload &W : Workloads)
    for (unsigned Width = 1; Width <= 4; ++Width) {
      MachineDescription MD = machineOfWidth(Width);
      Lines.push_back(cell("E4", MD, W, "base",
                           cycles(workloadCycles(W, MD, baseOptions()))));
      Lines.push_back(
          cell("E4", MD, W, "speculative",
               cycles(workloadCycles(W, MD, speculativeOptions()))));
    }

  // E5: rs6k and 4x1x2 x base and the four priority orders.
  for (const MachineDescription &MD :
       {RS6K, MachineDescription::superscalar(4, 1, 2)})
    for (const Workload &W : Workloads) {
      Lines.push_back(cell("E5", MD, W, "base",
                           cycles(workloadCycles(W, MD, baseOptions()))));
      for (const OrderRow &Row : PriorityOrders)
        Lines.push_back(
            cell("E5", MD, W, Row.Name,
                 cycles(workloadCycles(W, MD, withOrder(Row.Order)))));
    }

  // E14: superblocks off/on x the four predictors, cycles and mispredicts.
  for (const Workload &W : Workloads)
    for (bool Superblocks : {false, true}) {
      SuperblockRow R = measureSuperblockRow(W, RS6K, Superblocks);
      for (unsigned K = 0; K != 4; ++K)
        Lines.push_back(cell(
            "E14", RS6K, W,
            formatString("superblocks %s, %s", Superblocks ? "on" : "off",
                         PredictorNames[K]),
            formatString("%llu cycles, %llu mispredicts",
                         static_cast<unsigned long long>(R.Cycles[K]),
                         static_cast<unsigned long long>(R.Mispredicts[K]))));
    }
  return Lines;
}

TEST(ESeriesCycles, CellsMatchCommittedTable) {
  const std::string Path = GIS_TEST_DATA_DIR "/e_series_cycles.txt";
  std::vector<std::string> Actual = eSeriesCells();
  if (std::getenv("GIS_UPDATE_GOLDENS")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    for (const std::string &Line : Actual)
      Out << Line << '\n';
    return;
  }

  std::vector<std::string> Expected;
  std::ifstream In(Path);
  for (std::string Line; std::getline(In, Line);)
    Expected.push_back(Line);
  size_t K = 0;
  while (K < Actual.size() && K < Expected.size() && Actual[K] == Expected[K])
    ++K;
  if (K == Actual.size() && K == Expected.size())
    return;
  FAIL() << "E-series cells differ at line " << K + 1 << " of " << Path
         << ":\n  expected: "
         << (K < Expected.size() ? Expected[K] : "<end of file>")
         << "\n  actual:   "
         << (K < Actual.size() ? Actual[K] : "<end of table>")
         << "\nrun with GIS_UPDATE_GOLDENS=1 after verifying the change is "
            "intended";
}

// Only the entry function is profiled, so the profile oracle predicts
// taken for every branch outside it and counts a fallback.  GCC's hot
// loop is in its callee gcc_leafsum, so its oracle column is mostly
// always-taken; every LI branch executes in its profiled entry function.
TEST(ESeriesCycles, E14CountsOracleFallbacks) {
  const MachineDescription MD = MachineDescription::rs6k();
  unsigned Checked = 0;
  for (const Workload &W : specLikeWorkloads()) {
    if (W.Name != "GCC" && W.Name != "LI")
      continue;
    ++Checked;
    for (bool Superblocks : {false, true}) {
      SuperblockRow R = measureSuperblockRow(W, MD, Superblocks);
      if (W.Name == "GCC")
        EXPECT_GT(R.OracleFallbacks, 0u) << "superblocks " << Superblocks;
      else
        EXPECT_EQ(R.OracleFallbacks, 0u) << "superblocks " << Superblocks;
    }
  }
  EXPECT_EQ(Checked, 2u);
}

} // namespace
