//===- tests/regpressure_test.cpp - Register pressure tests -----------------===//

#include "analysis/RegPressure.h"
#include "ir/Parser.h"
#include "machine/MachineDescription.h"
#include "sched/Pipeline.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace gis;

TEST(RegPressureTest, StraightLineChain) {
  // Each value dies feeding the next: only one GPR is live at any program
  // point (an allocator could run this chain in a single register).
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LI r1 = 1
  AI r2 = r1, 1
  AI r3 = r2, 1
  RET r3
}
)");
  RegPressure P = computeRegPressure(*M->functions()[0]);
  EXPECT_EQ(P.maxLive(RegClass::GPR), 1u);
  EXPECT_EQ(P.maxLive(RegClass::CR), 0u);
}

TEST(RegPressureTest, WideExpressionNeedsMoreRegisters) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LI r1 = 1
  LI r2 = 2
  LI r3 = 3
  LI r4 = 4
  A r5 = r1, r2
  A r6 = r3, r4
  A r7 = r5, r6
  RET r7
}
)");
  RegPressure P = computeRegPressure(*M->functions()[0]);
  // All four LI results live together before the adds consume them.
  EXPECT_EQ(P.maxLive(RegClass::GPR), 4u);
  EXPECT_EQ(P.PeakBlock, 0u);
}

TEST(RegPressureTest, InstructionDefiningAndUsingOneRegister) {
  // Sweeping backward, AI kills its def before its use revives it: above
  // the AI r1 is live again (its old value feeds the AI) although the new
  // value is dead, so r1, r2 and r3 are live together there and nowhere
  // else.  Reviving first and killing second would report 2.
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LI r1 = 1
  LI r2 = 2
  LI r3 = 3
  AI r1 = r1, 1
  A r4 = r2, r3
  RET r4
}
)");
  RegPressure P = computeRegPressure(*M->functions()[0]);
  EXPECT_EQ(P.maxLive(RegClass::GPR), 3u);
  EXPECT_EQ(P.PeakBlock, 0u);
}

TEST(RegPressureTest, CountsClassesSeparately) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  C cr0 = r1, r2
  C cr1 = r1, r2
  BT B1, cr0, lt
B1:
  BT B2, cr1, lt
B2:
  RET
}
)");
  RegPressure P = computeRegPressure(*M->functions()[0]);
  EXPECT_EQ(P.maxLive(RegClass::CR), 2u);
  EXPECT_EQ(P.maxLive(RegClass::GPR), 2u);
}

TEST(RegPressureTest, LoopCarriedValuesStayLive) {
  auto M = parseModuleOrDie(R"(
func f {
PRE:
  LI r1 = 0
  LI r2 = 0
LOOP:
  A r2 = r2, r1
  AI r1 = r1, 1
  C cr0 = r1, r9
  BT LOOP, cr0, lt
POST:
  RET r2
}
)");
  RegPressure P = computeRegPressure(*M->functions()[0]);
  // r1, r2, r9 live around the loop.
  EXPECT_GE(P.maxLive(RegClass::GPR), 3u);
}

TEST(RegPressureTest, SchedulingPressureCostIsBounded) {
  // Scheduling (speculation, renaming) lengthens live ranges; the paper
  // accepts this by scheduling pre-allocation.  Sanity-bound the cost on
  // the running example: the scheduled minmax must not need more than a
  // handful of extra registers.
  auto Before = minmaxFigure2Module();
  RegPressure P0 = computeRegPressure(*Before->functions()[0]);

  auto After = minmaxFigure2Module();
  PipelineOptions Opts;
  schedulePipeline(*After->functions()[0], MachineDescription::rs6k(), Opts);
  RegPressure P1 = computeRegPressure(*After->functions()[0]);

  EXPECT_LE(P1.maxLive(RegClass::GPR), P0.maxLive(RegClass::GPR) + 4);
  EXPECT_LE(P1.maxLive(RegClass::CR), P0.maxLive(RegClass::CR) + 4);
  // And the paper's example fits the RS/6000's 32 GPRs / 8 CRs with room
  // to spare even after scheduling.
  EXPECT_LE(P1.maxLive(RegClass::GPR), 32u);
  EXPECT_LE(P1.maxLive(RegClass::CR), 8u);
}
