//===- tests/integration_test.cpp - Whole-toolchain integration ------------===//
//
// End-to-end runs of a realistic multi-function program through every
// stage: mini-C -> IR -> analyses -> full pipeline (with all extensions)
// -> interpreter + timing, across machines, checking behaviour, IR
// well-formedness, determinism and speedups together.
//
//===----------------------------------------------------------------------===//

#include "analysis/GraphViz.h"
#include "analysis/LoopInfo.h"
#include "analysis/RegPressure.h"
#include "frontend/CodeGen.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/Timing.h"
#include "sched/Pipeline.h"
#include "sched/Profile.h"

#include <gtest/gtest.h>

using namespace gis;

namespace {

// A small "application": histogram + prefix sums + a checksum walk, with
// helpers, nested loops, branches and arrays -- every frontend feature.
const char *AppSource = R"(
int data[256];
int hist[16];
int prefix[16];

int bucketof(int v) {
  int b = v % 16;
  if (b < 0) b = 0 - b;
  return b;
}

int build_hist(int n) {
  int i;
  for (i = 0; i < 16; i = i + 1) hist[i] = 0;
  for (i = 0; i < n; i = i + 1) {
    int b = bucketof(data[i]);
    hist[b] = hist[b] + 1;
  }
  return 0;
}

int build_prefix() {
  int i;
  int acc = 0;
  for (i = 0; i < 16; i = i + 1) {
    acc = acc + hist[i];
    prefix[i] = acc;
  }
  return acc;
}

int checksum(int n) {
  int i = 0;
  int s = 0;
  while (i < n) {
    int v = data[i];
    if (v > 0) { s = s + v; } else { s = s - v; }
    if (i % 3 == 0 && v % 2 == 0) s = s + 1;
    i = i + 1;
  }
  return s;
}

int main(int n) {
  build_hist(n);
  int total = build_prefix();
  int cs = checksum(n);
  print(total);
  print(cs);
  print(prefix[15]);
  return total * 100000 + cs;
}
)";

struct AppRun {
  std::vector<int64_t> Printed;
  int64_t ReturnValue = 0;
  uint64_t Cycles = 0;
};

AppRun runApp(Module &M, const MachineDescription &MD, int64_t N = 200) {
  AppRun Out;
  Interpreter I(M);
  I.enableTrace(true);
  Function *Main = M.findFunction("main");
  EXPECT_NE(Main, nullptr);
  int64_t Base = M.globals()[0].Address; // data
  for (int K = 0; K != 256; ++K)
    I.storeWord(Base + 4 * K, (K * 37 + 11) % 101 - 50);
  I.setReg(Main->params()[0], N);
  ExecResult R = I.run(*Main);
  EXPECT_FALSE(R.Trapped) << R.TrapReason;
  Out.Printed = R.Printed;
  Out.ReturnValue = R.ReturnValue;
  TimingSimulator Sim(MD);
  Out.Cycles = Sim.simulate(I.trace()).Cycles;
  return Out;
}

} // namespace

TEST(IntegrationTest, FullPipelineOnApplication) {
  MachineDescription MD = MachineDescription::rs6k();

  auto Base = compileMiniCOrDie(AppSource);
  AppRun R0 = runApp(*Base, MD);
  // The histogram totals must be self-consistent: total == prefix[15] ==
  // n.
  ASSERT_EQ(R0.Printed.size(), 3u);
  EXPECT_EQ(R0.Printed[0], 200);
  EXPECT_EQ(R0.Printed[2], 200);

  auto Sched = compileMiniCOrDie(AppSource);
  PipelineOptions Opts;
  PipelineStats Stats = scheduleModule(*Sched, MD, Opts);
  EXPECT_TRUE(verifyModule(*Sched).empty());
  EXPECT_GT(Stats.Global.UsefulMotions + Stats.Global.SpeculativeMotions, 0u);

  AppRun R1 = runApp(*Sched, MD);
  EXPECT_EQ(R0.Printed, R1.Printed);
  EXPECT_EQ(R0.ReturnValue, R1.ReturnValue);
  EXPECT_LT(R1.Cycles, R0.Cycles) << "scheduling must pay off";
}

TEST(IntegrationTest, SchedulingIsDeterministic) {
  auto M1 = compileMiniCOrDie(AppSource);
  auto M2 = compileMiniCOrDie(AppSource);
  PipelineOptions Opts;
  scheduleModule(*M1, MachineDescription::rs6k(), Opts);
  scheduleModule(*M2, MachineDescription::rs6k(), Opts);
  EXPECT_EQ(moduleToString(*M1), moduleToString(*M2));
}

TEST(IntegrationTest, ScheduledIRRoundTripsThroughAssembler) {
  auto M = compileMiniCOrDie(AppSource);
  PipelineOptions Opts;
  scheduleModule(*M, MachineDescription::rs6k(), Opts);
  std::string Text = moduleToString(*M);
  auto Reparsed = parseModuleOrDie(Text);
  EXPECT_EQ(moduleToString(*Reparsed), Text);
  // The reparsed module behaves identically.
  MachineDescription MD = MachineDescription::rs6k();
  AppRun A = runApp(*M, MD);
  AppRun B = runApp(*Reparsed, MD);
  EXPECT_EQ(A.Printed, B.Printed);
  EXPECT_EQ(A.Cycles, B.Cycles);
}

TEST(IntegrationTest, WiderMachinesRunFaster) {
  auto M = compileMiniCOrDie(AppSource);
  PipelineOptions Opts;
  uint64_t Prev = ~uint64_t(0);
  for (unsigned Width : {1u, 2u, 4u}) {
    auto Sched = compileMiniCOrDie(AppSource);
    MachineDescription MD = MachineDescription::superscalar(Width, 1, 2);
    scheduleModule(*Sched, MD, Opts);
    uint64_t Cycles = runApp(*Sched, MD).Cycles;
    EXPECT_LE(Cycles, Prev);
    Prev = Cycles;
  }
}

TEST(IntegrationTest, ProfileGuidedPipelineStaysCorrect) {
  MachineDescription MD = MachineDescription::rs6k();
  auto Base = compileMiniCOrDie(AppSource);
  AppRun R0 = runApp(*Base, MD);

  // Profile main (entry-function block counts).
  ProfileData P;
  {
    auto M = compileMiniCOrDie(AppSource);
    Interpreter I(*M);
    Function *Main = M->findFunction("main");
    int64_t BaseAddr = M->globals()[0].Address;
    for (int K = 0; K != 256; ++K)
      I.storeWord(BaseAddr + 4 * K, (K * 37 + 11) % 101 - 50);
    I.setReg(Main->params()[0], 200);
    I.run(*Main);
    P.record(*Main, I.blockCounts());
  }

  auto Sched = compileMiniCOrDie(AppSource);
  PipelineOptions Opts;
  Opts.Profile = &P;
  scheduleModule(*Sched, MD, Opts);
  AppRun R1 = runApp(*Sched, MD);
  EXPECT_EQ(R0.Printed, R1.Printed);
  EXPECT_LE(R1.Cycles, R0.Cycles);
}

TEST(IntegrationTest, PressureStaysAllocatable) {
  auto M = compileMiniCOrDie(AppSource);
  PipelineOptions Opts;
  scheduleModule(*M, MachineDescription::rs6k(), Opts);
  for (const auto &F : M->functions()) {
    RegPressure P = computeRegPressure(*F);
    // Every function must still fit the RS/6000 register files.
    EXPECT_LE(P.maxLive(RegClass::GPR), 32u) << F->name();
    EXPECT_LE(P.maxLive(RegClass::CR), 8u) << F->name();
  }
}

TEST(IntegrationTest, DotDumpsStayWellFormedAfterScheduling) {
  auto M = compileMiniCOrDie(AppSource);
  PipelineOptions Opts;
  scheduleModule(*M, MachineDescription::rs6k(), Opts);
  for (const auto &F : M->functions()) {
    std::string Dot = cfgToDot(*F);
    EXPECT_NE(Dot.find("digraph"), std::string::npos);
    LoopInfo LI = LoopInfo::compute(*F);
    if (!LI.isReducible())
      continue;
    for (int RId = -1; RId < static_cast<int>(LI.numLoops()); ++RId) {
      SchedRegion R = SchedRegion::build(*F, LI, RId);
      PDG P = PDG::build(*F, R, MachineDescription::rs6k());
      EXPECT_NE(cspdgToDot(*F, P).find("digraph"), std::string::npos);
      EXPECT_NE(ddgToDot(*F, P).find("digraph"), std::string::npos);
    }
  }
}
