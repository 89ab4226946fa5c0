//===- tests/region2_test.cpp - Additional region/CSPDG coverage -----------===//
//
// Deeper-structure cases: nested loops as barriers in control and data
// dependences, single-block regions, speculation degrees through chains,
// and the interpreter's call-depth guard.
//
//===----------------------------------------------------------------------===//

#include "analysis/ControlDeps.h"
#include "analysis/PDG.h"
#include "analysis/Region.h"
#include "frontend/CodeGen.h"
#include "sched/GlobalScheduler.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace gis;

namespace {

BlockId blockByLabel(const Function &F, const std::string &Label) {
  for (BlockId B = 0; B != F.numBlocks(); ++B)
    if (F.block(B).label() == Label)
      return B;
  ADD_FAILURE() << "no block " << Label;
  return InvalidId;
}

} // namespace

TEST(Region2Test, SingleBlockRegion) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LI r1 = 1
  AI r2 = r1, 2
  RET r2
}
)");
  Function &F = *M->functions()[0];
  SchedRegion R = SchedRegion::buildSingleBlock(F, 0);
  EXPECT_EQ(R.numNodes(), 1u);
  EXPECT_EQ(R.numRealBlocks(), 1u);
  EXPECT_EQ(R.numInstrs(), 3u);
  EXPECT_EQ(R.entryNode(), 0u);
  EXPECT_EQ(R.nodeOfBlock(0), 0);
  EXPECT_TRUE(R.exitNodes().empty());
  ASSERT_EQ(R.topoOrder().size(), 1u);

  // The degenerate region still supports a full PDG build.
  PDG P = PDG::build(F, R, MachineDescription::rs6k());
  EXPECT_EQ(P.dataDeps().numNodes(), 3u);
  EXPECT_TRUE(P.controlDeps().deps(0).empty());
}

// A one-block region of a larger function maps its own block and
// instructions and nothing else, on either side of its ids.
TEST(Region2Test, SingleBlockRegionMapsOnlyItsOwnIds) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LI r1 = 1
  C cr0 = r1, r2
  BT B2, cr0, lt
B1:
  LI r2 = 2
  AI r3 = r2, 3
B2:
  RET r1
}
)");
  Function &F = *M->functions()[0];
  F.recomputeCFG();
  BlockId B1 = blockByLabel(F, "B1");
  SchedRegion R = SchedRegion::buildSingleBlock(F, B1);
  for (BlockId B = 0; B != F.numBlocks() + 1; ++B)
    EXPECT_EQ(R.nodeOfBlock(B), B == B1 ? 0 : -1) << "block " << B;

  DataDeps DD = DataDeps::compute(F, R, MachineDescription::rs6k());
  const std::vector<InstrId> &Own = F.block(B1).instrs();
  ASSERT_EQ(DD.numNodes(), Own.size());
  for (InstrId I = 0; I != F.numInstrs() + 1; ++I) {
    auto It = std::find(Own.begin(), Own.end(), I);
    int Expected = It == Own.end() ? -1 : static_cast<int>(It - Own.begin());
    EXPECT_EQ(DD.nodeOfInstr(I), Expected) << "instruction " << I;
  }
}

TEST(Region2Test, SummaryNodeCarriesRegisterPayload) {
  auto M = parseModuleOrDie(R"(
func f {
PRE:
  LI r1 = 0
LOOP:
  AI r1 = r1, 1
  L r5 = mem[r9 + 0]
  C cr0 = r1, r8
  BT LOOP, cr0, lt
POST:
  RET r1
}
)");
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  SchedRegion Top = SchedRegion::build(F, LI, -1);
  const RegionNode *Summary = nullptr;
  for (const RegionNode &N : Top.nodes())
    if (N.isLoopSummary())
      Summary = &N;
  ASSERT_NE(Summary, nullptr);
  // The barrier aggregates the loop's register traffic.
  auto Contains = [](const std::vector<Reg> &V, Reg R) {
    return std::find(V.begin(), V.end(), R) != V.end();
  };
  EXPECT_TRUE(Contains(Summary->SummaryDefs, Reg::gpr(1)));
  EXPECT_TRUE(Contains(Summary->SummaryDefs, Reg::gpr(5)));
  EXPECT_TRUE(Contains(Summary->SummaryDefs, Reg::cr(0)));
  EXPECT_TRUE(Contains(Summary->SummaryUses, Reg::gpr(9)));
  EXPECT_TRUE(Contains(Summary->SummaryUses, Reg::gpr(8)));
}

TEST(Region2Test, SpeculationDegreeThroughChain) {
  // A three-deep nest of ifs: each level is one more gambled branch.
  auto M = parseModuleOrDie(R"(
func f {
L0:
  C cr0 = r1, r2
  BF OUT, cr0, gt
L1:
  C cr1 = r1, r3
  BF OUT, cr1, gt
L2:
  C cr2 = r1, r4
  BF OUT, cr2, gt
L3:
  AI r5 = r5, 1
OUT:
  RET r5
}
)");
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  SchedRegion R = SchedRegion::build(F, LI, -1);
  ControlDeps CD = ControlDeps::compute(R);
  auto Node = [&](const char *L) {
    return static_cast<unsigned>(R.nodeOfBlock(blockByLabel(F, L)));
  };
  EXPECT_EQ(CD.specDegree(Node("L0"), Node("L1")), std::optional<unsigned>(1));
  EXPECT_EQ(CD.specDegree(Node("L0"), Node("L2")), std::optional<unsigned>(2));
  EXPECT_EQ(CD.specDegree(Node("L0"), Node("L3")), std::optional<unsigned>(3));
  EXPECT_EQ(CD.specDegree(Node("L1"), Node("L3")), std::optional<unsigned>(2));

  // Candidate blocks grow by one CSPDG step per depth unit.  OUT is in
  // every candidate set: it postdominates everything, so it is
  // *equivalent* to L0 (both always execute).
  PDG P = PDG::build(F, R, MachineDescription::rs6k());
  EXPECT_EQ(P.candidateBlocks(Node("L0"), 1).size(), 2u); // {OUT, L1}
  EXPECT_EQ(P.candidateBlocks(Node("L0"), 2).size(), 3u); // + {L2}
  EXPECT_EQ(P.candidateBlocks(Node("L0"), 3).size(), 4u); // + {L3}
  std::vector<unsigned> C1 = P.candidateBlocks(Node("L0"), 1);
  EXPECT_NE(std::find(C1.begin(), C1.end(), Node("L1")), C1.end());
  EXPECT_NE(std::find(C1.begin(), C1.end(), Node("OUT")), C1.end());
}

TEST(Region2Test, DeepSpeculationMovesThroughChain) {
  // With MaxSpecDepth = 3, the innermost compare can hoist all the way up
  // (each level's compare is independent of the branches above it).
  auto Schedule = [](unsigned Depth) {
    auto M = parseModuleOrDie(R"(
func f {
L0:
  C cr0 = r1, r2
  BF OUT, cr0, gt
L1:
  C cr1 = r1, r3
  BF OUT, cr1, gt
L2:
  C cr2 = r1, r4
  BF OUT, cr2, gt
L3:
  AI r5 = r5, 1
OUT:
  RET r5
}
)");
    Function &F = *M->functions()[0];
    LoopInfo LI = LoopInfo::compute(F);
    SchedRegion R = SchedRegion::build(F, LI, -1);
    GlobalSchedOptions Opts;
    Opts.Level = SchedLevel::Speculative;
    Opts.MaxSpecDepth = Depth;
    GlobalScheduler GS(MachineDescription::rs6k(), Opts);
    GlobalSchedStats Stats = GS.scheduleRegion(F, R);
    return Stats.SpeculativeMotions;
  };
  // Depth 1 can only reach L1's compare; deeper settings reach more.
  EXPECT_LT(Schedule(1), Schedule(3));
}

TEST(Region2Test, CallDepthLimitTraps) {
  auto M = compileMiniCOrDie(R"(
int spin(int n) { return spin(n + 1); }
int main() { return spin(0); }
)");
  Interpreter I(*M);
  ExecResult R = I.run(*M->findFunction("main"));
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapReason.find("depth"), std::string::npos);
}

TEST(Region2Test, EquivalenceAcrossLoopSummary) {
  // PRE and POST sandwich an always-executed loop: they are equivalent in
  // the top-level region, with the loop summary between them.
  auto M = parseModuleOrDie(R"(
func f {
PRE:
  LI r1 = 0
  LI r7 = 5
  L r3 = mem[r2 + 0]
  AI r4 = r3, 1
LOOP:
  AI r1 = r1, 1
  C cr0 = r1, r8
  BT LOOP, cr0, lt
POST:
  AI r7 = r7, 1
  A r7 = r7, r4
  RET r7
}
)");
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  SchedRegion R = SchedRegion::build(F, LI, -1);
  PDG P = PDG::build(F, R, MachineDescription::rs6k());
  unsigned Pre = static_cast<unsigned>(R.nodeOfBlock(blockByLabel(F, "PRE")));
  unsigned Post =
      static_cast<unsigned>(R.nodeOfBlock(blockByLabel(F, "POST")));
  std::vector<unsigned> Equiv = P.equivSet(Pre);
  EXPECT_NE(std::find(Equiv.begin(), Equiv.end(), Post), Equiv.end());

  // And scheduling PRE can usefully hoist POST's r7 increment (which is
  // independent of the loop) across the summary barrier, into the delay
  // slot of PRE's load (per the paper, externals are only taken while A's
  // own instructions are still being scheduled).
  GlobalSchedOptions Opts;
  Opts.Level = SchedLevel::Useful;
  GlobalScheduler GS(MachineDescription::rs6k(), Opts);
  GlobalSchedStats Stats = GS.scheduleRegion(F, R);
  EXPECT_GE(Stats.UsefulMotions, 1u);
  // The hoisted instruction is POST's "AI r7 = r7, 1".
  bool HoistedAI = false;
  for (InstrId I : F.block(blockByLabel(F, "PRE")).instrs()) {
    const Instruction &Ins = F.instr(I);
    HoistedAI |= Ins.opcode() == Opcode::AI && Ins.definesReg(Reg::gpr(7));
  }
  EXPECT_TRUE(HoistedAI);
}
