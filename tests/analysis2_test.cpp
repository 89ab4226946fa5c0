//===- tests/analysis2_test.cpp - Final analysis coverage batch ------------===//
//
// Memory-disambiguation chains through LR, PDG printing, deterministic
// orders, and whole-module scheduling across machine widths on random
// programs.
//
//===----------------------------------------------------------------------===//

#include "analysis/MemDisambig.h"
#include "analysis/PDG.h"
#include "frontend/CodeGen.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "sched/Pipeline.h"
#include "support/Format.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace gis;

TEST(MemDisambig2Test, ResolvesThroughLRChain) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LI r1 = 1000
  LR r2 = r1
  AI r3 = r2, 4
  ST mem[r1 + 4] = r9
  L r4 = mem[r3 + 0]
  L r5 = mem[r3 + 4]
  RET r4
}
)");
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  SchedRegion R = SchedRegion::build(F, LI, -1);
  MemDisambiguator D(F, R);
  // mem[r1+4] and mem[r3+0] are the same address (r3 = r1 + 4 via LR).
  EXPECT_FALSE(D.provablyDisjoint(3, 4));
  // mem[r1+4] and mem[r3+4] (= r1+8) differ.
  EXPECT_TRUE(D.provablyDisjoint(3, 5));
}

TEST(MemDisambig2Test, ChainDepthCapIsSafe) {
  // A 20-deep AI chain exceeds the resolver's depth cap: it must fall
  // back to "may alias", never crash.
  std::string Text = "func f {\nB0:\n  LI r0 = 1000\n";
  for (int K = 1; K <= 20; ++K)
    Text += formatString("  AI r%d = r%d, 4\n", K, K - 1);
  Text += "  ST mem[r20 + 0] = r30\n  L r25 = mem[r0 + 0]\n  RET r25\n}\n";
  auto M = parseModuleOrDie(Text);
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  SchedRegion R = SchedRegion::build(F, LI, -1);
  MemDisambiguator D(F, R);
  // Conservatively dependent (depth cap) -- and definitely no crash.
  EXPECT_FALSE(D.provablyDisjoint(21, 22));
}

TEST(PDG2Test, PrintProducesAllSections) {
  auto M = parseModuleOrDie(R"(
func f {
A:
  C cr0 = r1, r2
  BF C_, cr0, gt
B:
  LI r3 = 1
C_:
  RET r3
}
)");
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  SchedRegion R = SchedRegion::build(F, LI, -1);
  PDG P = PDG::build(F, R, MachineDescription::rs6k());
  std::ostringstream OS;
  P.print(F, OS);
  std::string Text = OS.str();
  EXPECT_NE(Text.find("CSPDG (control dependences):"), std::string::npos);
  EXPECT_NE(Text.find("equivalence classes:"), std::string::npos);
  EXPECT_NE(Text.find("data dependences:"), std::string::npos);
  // The compare->branch flow edge with its delay appears.
  EXPECT_NE(Text.find("[flow d=3]"), std::string::npos);
  // A and C_ are equivalent.
  EXPECT_NE(Text.find("{A, C_}"), std::string::npos);
}

TEST(PDG2Test, MotionKindNames) {
  EXPECT_STREQ(motionKindName(MotionKind::Useful), "useful");
  EXPECT_STREQ(motionKindName(MotionKind::Speculative), "speculative");
  EXPECT_STREQ(motionKindName(MotionKind::Duplication), "duplication");
  EXPECT_STREQ(motionKindName(MotionKind::Identity), "identity");
  EXPECT_STREQ(depKindName(DepKind::Flow), "flow");
  EXPECT_STREQ(depKindName(DepKind::Memory), "memory");
}

TEST(Determinism2Test, AnalysesAreOrderStable) {
  // Build the same PDG twice; every printed artefact must be identical.
  std::string Source = generateRandomMiniC(4242);
  auto M1 = compileMiniCOrDie(Source);
  auto M2 = compileMiniCOrDie(Source);
  for (size_t FI = 0; FI != M1->functions().size(); ++FI) {
    Function &F1 = *M1->functions()[FI];
    Function &F2 = *M2->functions()[FI];
    LoopInfo L1 = LoopInfo::compute(F1);
    LoopInfo L2 = LoopInfo::compute(F2);
    ASSERT_EQ(L1.numLoops(), L2.numLoops());
    SchedRegion R1 = SchedRegion::build(F1, L1, -1);
    SchedRegion R2 = SchedRegion::build(F2, L2, -1);
    PDG P1 = PDG::build(F1, R1, MachineDescription::rs6k());
    PDG P2 = PDG::build(F2, R2, MachineDescription::rs6k());
    std::ostringstream O1, O2;
    P1.print(F1, O1);
    P2.print(F2, O2);
    EXPECT_EQ(O1.str(), O2.str());
  }
}

class WidthSemanticsTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, unsigned>> {};

TEST_P(WidthSemanticsTest, SchedulingForAnyWidthPreservesBehaviour) {
  auto [Seed, Width] = GetParam();
  std::string Source = generateRandomMiniC(Seed);
  CompileResult Base = compileMiniC(Source);
  ASSERT_TRUE(Base.ok()) << Base.Error;
  CompileResult Sched = compileMiniC(Source);
  MachineDescription MD = MachineDescription::superscalar(Width, 1, 2);
  PipelineOptions Opts;
  Opts.MaxSpecDepth = 2;
  scheduleModule(*Sched.M, MD, Opts);

  auto Observe = [](Module &M) {
    Interpreter I(M);
    ExecResult R = I.run(*M.findFunction("main"), 5'000'000);
    EXPECT_FALSE(R.Trapped) << R.TrapReason;
    return std::make_pair(R.Printed, R.ReturnValue);
  };
  EXPECT_EQ(Observe(*Base.M), Observe(*Sched.M)) << Source;
}

INSTANTIATE_TEST_SUITE_P(
    RandomProgramsByWidth, WidthSemanticsTest,
    ::testing::Combine(::testing::Range<uint64_t>(500, 508),
                       ::testing::Values(2u, 4u)));
