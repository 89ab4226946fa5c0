//===- tests/region_wave_test.cpp - Region wave tests ----------------------===//
//
// Tests for the region waves of the scheduling pipeline
// (sched/Pipeline.cpp, analysis/Liveness.h):
//
//  1. Property test over the random-program corpus: the region liveness
//     view (RegionLiveness) must agree with whole-function liveness
//     restricted to the region's blocks.  A region task's live-on-exit
//     guard consults only that view, so it must never disagree with what
//     a whole-function run would have seen.
//
//  2. Wave accounting: the per-region timing records and the wave count
//     reported through PipelineStats (--stats), and their determinism.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/Region.h"
#include "frontend/CodeGen.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "sched/Pipeline.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace gis;

namespace {

/// Every register the function has ever numbered, all classes.
std::vector<Reg> allRegs(const Function &F) {
  std::vector<Reg> Regs;
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    for (unsigned K = 0; K != F.numRegs(C); ++K)
      Regs.push_back(Reg::make(C, K));
  return Regs;
}

//===----------------------------------------------------------------------===
// Region liveness == whole-function liveness restricted to the region's
// blocks, over the random-program corpus.
//===----------------------------------------------------------------------===

TEST(RegionLivenessTest, MatchesWholeFunctionOnCorpus) {
  unsigned RegionsChecked = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(Seed));
    for (const auto &FPtr : M->functions()) {
      Function &F = *FPtr;
      F.recomputeCFG();
      F.renumberOriginalOrder();
      LoopInfo LI = LoopInfo::compute(F);
      if (!LI.isReducible())
        continue; // regions require reducibility, as does the pipeline

      Liveness WholeLV = Liveness::compute(F);
      std::vector<Reg> Regs = allRegs(F);

      for (int LoopIdx = -1; LoopIdx < static_cast<int>(LI.numLoops());
           ++LoopIdx) {
        SchedRegion R = SchedRegion::build(F, LI, LoopIdx);
        RegionLiveness LV = RegionLiveness::build(F, R, WholeLV);
        ++RegionsChecked;

        // The view solves the whole-function equations with the
        // out-of-region successors frozen; on an unedited function the
        // solution must coincide exactly with Liveness::compute.
        unsigned LiveMismatches = 0;
        for (const RegionNode &N : R.nodes()) {
          if (!N.isBlock())
            continue;
          BlockId B = N.Block;
          ASSERT_TRUE(LV.ownsBlock(B));
          for (Reg Rg : Regs) {
            if (LV.isLiveIn(B, Rg) != WholeLV.isLiveIn(B, Rg))
              ++LiveMismatches;
            if (LV.isLiveOut(B, Rg) != WholeLV.isLiveOut(B, Rg))
              ++LiveMismatches;
          }
        }
        EXPECT_EQ(LiveMismatches, 0u)
            << "seed " << Seed << " func " << F.name() << " loop " << LoopIdx;
      }
    }
  }
  // The corpus must actually exercise the property (multi-loop programs).
  EXPECT_GE(RegionsChecked, 400u);
}

//===----------------------------------------------------------------------===
// Per-region wave accounting (--stats plumbing)
//===----------------------------------------------------------------------===

TEST(RegionParallelStatsTest, WavesAndPerRegionTimesReported) {
  // Two independent inner loops: one leaf wave with two tasks, then the
  // top-level region in its own wave (across the two global passes).
  const char *Source = R"(
    int main() {
      int a = 0; int b = 0; int i = 0; int j = 0;
      while (i < 10) { a = a + i; i = i + 1; }
      while (j < 10) { b = b + j; j = j + 1; }
      print(a); print(b);
      return a + b;
    }
  )";
  std::unique_ptr<Module> M = compileMiniCOrDie(Source);
  PipelineStats Stats =
      scheduleModule(*M, MachineDescription::rs6k(), PipelineOptions());
  EXPECT_TRUE(verifyModule(*M).empty());

  EXPECT_GE(Stats.RegionWaves, 2u);
  // At minimum: both inner loops in the first pass and the top region in
  // the second.
  EXPECT_GE(Stats.RegionTimes.size(), 3u);
  EXPECT_EQ(Stats.RegionTasks, Stats.RegionTimes.size());
  bool SawTop = false, SawLoop = false;
  for (const RegionTime &RT : Stats.RegionTimes) {
    EXPECT_GE(RT.Seconds, 0.0);
    EXPECT_LT(RT.Wave, Stats.RegionWaves);
    if (RT.LoopIdx == -1)
      SawTop = true;
    else
      SawLoop = true;
  }
  EXPECT_TRUE(SawTop);
  EXPECT_TRUE(SawLoop);

  // The wave structure and the output are deterministic: a second run
  // gives the same tasks in the same waves and the same code.
  std::unique_ptr<Module> M2 = compileMiniCOrDie(Source);
  PipelineStats Again =
      scheduleModule(*M2, MachineDescription::rs6k(), PipelineOptions());
  ASSERT_EQ(Again.RegionTimes.size(), Stats.RegionTimes.size());
  EXPECT_EQ(Again.RegionWaves, Stats.RegionWaves);
  for (size_t K = 0; K != Stats.RegionTimes.size(); ++K) {
    EXPECT_EQ(Again.RegionTimes[K].LoopIdx, Stats.RegionTimes[K].LoopIdx);
    EXPECT_EQ(Again.RegionTimes[K].Wave, Stats.RegionTimes[K].Wave);
  }
  EXPECT_EQ(moduleToString(*M2), moduleToString(*M));
}

} // namespace
