//===- tests/sched_test.cpp - Global/local scheduler tests -----------------===//
//
// Reproduces the paper's scheduling examples: Figure 2 -> Figure 5 (useful
// scheduling) and Figure 2 -> Figure 6 (useful + 1-branch speculative with
// register renaming), checks the Section 5.3 live-on-exit guard, and
// verifies semantics preservation via the interpreter.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "analysis/Region.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/Timing.h"
#include "sched/GlobalScheduler.h"
#include "sched/LocalScheduler.h"

#include <gtest/gtest.h>

using namespace gis;

namespace {

const char *MinmaxFull = R"(
func minmax {
BL0:
  LI r31 = 1000
  L r28 = mem[r31 + 0]
  LR r30 = r28
  LI r29 = 1
BL1:
  L r12 = mem[r31 + 4]
  LU r0, r31 = mem[r31 + 8]
  C cr7 = r12, r0
  BF BL6, cr7, gt
BL2:
  C cr6 = r12, r30
  BF BL4, cr6, gt
BL3:
  LR r30 = r12
BL4:
  C cr7 = r0, r28
  BF BL10, cr7, lt
BL5:
  LR r28 = r0
  B BL10
BL6:
  C cr6 = r0, r30
  BF BL8, cr6, gt
BL7:
  LR r30 = r0
BL8:
  C cr7 = r12, r28
  BF BL10, cr7, lt
BL9:
  LR r28 = r12
BL10:
  AI r29 = r29, 2
  C cr4 = r29, r27
  BT BL1, cr4, lt
BL11:
  CALL print(r28)
  CALL print(r30)
  RET
}
)";

BlockId blockByLabel(const Function &F, const std::string &Label) {
  for (BlockId B = 0; B != F.numBlocks(); ++B)
    if (F.block(B).label() == Label)
      return B;
  ADD_FAILURE() << "no block " << Label;
  return InvalidId;
}

/// Applies global scheduling to minmax's loop and returns (module, stats).
std::pair<std::unique_ptr<Module>, GlobalSchedStats>
scheduleMinmax(SchedLevel Level, bool Renaming = true) {
  auto M = parseModuleOrDie(MinmaxFull);
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  SchedRegion R = SchedRegion::build(F, LI, 0);
  GlobalSchedOptions Opts;
  Opts.Level = Level;
  Opts.EnableRenaming = Renaming;
  GlobalScheduler GS(MachineDescription::rs6k(), Opts);
  GlobalSchedStats Stats = GS.scheduleRegion(F, R);
  return {std::move(M), Stats};
}

/// Opcode sequence of one block, e.g. "L LU AI C C BF".
std::string blockOpcodes(const Function &F, const std::string &Label) {
  std::string Out;
  for (InstrId I : F.block(blockByLabel(F, Label)).instrs()) {
    if (!Out.empty())
      Out += ' ';
    Out += std::string(opcodeName(F.instr(I).opcode()));
  }
  return Out;
}

/// Runs minmax on fixed data and returns (printed values, trace length).
ExecResult runMinmax(const Module &M, std::vector<TraceEntry> *TraceOut = nullptr,
                     int UpdatesPerIteration = 2) {
  const Function &F = *M.functions()[0];
  Interpreter I(M);
  I.enableTrace(TraceOut != nullptr);
  const int N = 130;
  for (int K = 0; K != N; ++K) {
    int64_t V;
    switch (UpdatesPerIteration) {
    case 0:
      V = 5;
      break;
    case 1:
      V = K;
      break;
    default:
      V = (K % 2 == 1) ? 1000 + K : -1000 - K;
      break;
    }
    I.storeWord(1000 + 4 * K, V);
  }
  I.setReg(Reg::gpr(27), N - 2);
  ExecResult R = I.run(F);
  EXPECT_FALSE(R.Trapped) << R.TrapReason;
  if (TraceOut)
    *TraceOut = I.trace();
  return R;
}

double loopPeriod(const Module &M, int Updates) {
  const Function &F = *M.functions()[0];
  std::vector<TraceEntry> Trace;
  runMinmax(M, &Trace, Updates);
  TimingSimulator Sim(MachineDescription::rs6k());
  Sim.recordIssueTimes(true);
  TimingResult T = Sim.simulate(Trace);
  std::vector<size_t> Markers;
  for (size_t K = 0; K != Trace.size(); ++K)
    if (F.instr(Trace[K].Instr).opcode() == Opcode::BT)
      Markers.push_back(K);
  return steadyStatePeriod(T.IssueTimes, Markers);
}

} // namespace

//===----------------------------------------------------------------------===
// Figure 5: useful-only global scheduling
//===----------------------------------------------------------------------===

TEST(GlobalSchedTest, UsefulReproducesFigure5) {
  auto [M, Stats] = scheduleMinmax(SchedLevel::Useful);
  Function &F = *M->functions()[0];
  EXPECT_TRUE(verifyFunction(F).empty());

  // The paper's Figure 5 block contents, opcode by opcode:
  // BL1 gains I18 (AI) and I19 (C) from BL10.
  EXPECT_EQ(blockOpcodes(F, "BL1"), "L LU AI C C BF");
  // BL2 gains I8 (C) from BL4; BL4 keeps only its branch.
  EXPECT_EQ(blockOpcodes(F, "BL2"), "C C BF");
  EXPECT_EQ(blockOpcodes(F, "BL4"), "BF");
  // BL6 gains I15 (C) from BL8.
  EXPECT_EQ(blockOpcodes(F, "BL6"), "C C BF");
  EXPECT_EQ(blockOpcodes(F, "BL8"), "BF");
  // BL10 keeps only the loop-closing branch.
  EXPECT_EQ(blockOpcodes(F, "BL10"), "BT");
  // Untouched blocks.
  EXPECT_EQ(blockOpcodes(F, "BL3"), "LR");
  EXPECT_EQ(blockOpcodes(F, "BL5"), "LR B");

  // Exactly four useful motions (I18, I19, I8, I15), no speculation.
  EXPECT_EQ(Stats.UsefulMotions, 4u);
  EXPECT_EQ(Stats.SpeculativeMotions, 0u);
  EXPECT_EQ(Stats.Renames, 0u);

  // Figure 5's exact BL1 order: I1, I2, I18, I3, I19, I4.
  const std::vector<InstrId> &BL1 = F.block(blockByLabel(F, "BL1")).instrs();
  ASSERT_EQ(BL1.size(), 6u);
  EXPECT_EQ(F.instr(BL1[2]).opcode(), Opcode::AI); // I18 fills the LU slot
  EXPECT_EQ(F.instr(BL1[3]).opcode(), Opcode::C);  // I3
  EXPECT_EQ(F.instr(BL1[4]).opcode(), Opcode::C);  // I19
}

TEST(GlobalSchedTest, UsefulPreservesSemantics) {
  auto Base = parseModuleOrDie(MinmaxFull);
  auto [Sched, Stats] = scheduleMinmax(SchedLevel::Useful);
  for (int Updates : {0, 1, 2}) {
    ExecResult R0 = runMinmax(*Base, nullptr, Updates);
    ExecResult R1 = runMinmax(*Sched, nullptr, Updates);
    EXPECT_EQ(R0.Printed, R1.Printed) << "updates=" << Updates;
  }
}

TEST(GlobalSchedTest, UsefulReaches12To13Cycles) {
  auto [M, Stats] = scheduleMinmax(SchedLevel::Useful);
  EXPECT_NEAR(loopPeriod(*M, 0), 12.0, 1.0);
  EXPECT_NEAR(loopPeriod(*M, 2), 13.0, 1.5);
}

//===----------------------------------------------------------------------===
// Figure 6: useful + 1-branch speculative scheduling
//===----------------------------------------------------------------------===

TEST(GlobalSchedTest, SpeculativeReproducesFigure6) {
  auto [M, Stats] = scheduleMinmax(SchedLevel::Speculative);
  Function &F = *M->functions()[0];
  EXPECT_TRUE(verifyFunction(F).empty());

  // Figure 6: BL1 additionally receives the speculative compares I5 and
  // I12 (I12's condition register renamed, cr6 -> cr5 in the paper).
  EXPECT_EQ(blockOpcodes(F, "BL1"), "L LU AI C C C C BF");
  EXPECT_EQ(blockOpcodes(F, "BL2"), "C BF");
  EXPECT_EQ(blockOpcodes(F, "BL6"), "C BF");
  EXPECT_EQ(blockOpcodes(F, "BL4"), "BF");
  EXPECT_EQ(blockOpcodes(F, "BL8"), "BF");
  EXPECT_EQ(blockOpcodes(F, "BL10"), "BT");

  EXPECT_EQ(Stats.UsefulMotions, 4u);
  EXPECT_EQ(Stats.SpeculativeMotions, 2u);
  EXPECT_EQ(Stats.Renames, 1u);

  // The two speculative compares must write DIFFERENT condition registers
  // (that is what the rename is for), and each arm's first branch must
  // read the matching one.
  const std::vector<InstrId> &BL1 = F.block(blockByLabel(F, "BL1")).instrs();
  ASSERT_EQ(BL1.size(), 8u);
  Reg CrI5 = F.instr(BL1[5]).defs()[0];
  Reg CrI12 = F.instr(BL1[6]).defs()[0];
  EXPECT_NE(CrI5, CrI12);
  // BL2's branch (I6) reads I5's register; BL6's branch (I13) reads I12's.
  const Instruction &I6 =
      F.instr(F.block(blockByLabel(F, "BL2")).instrs().back());
  EXPECT_EQ(I6.uses()[0], CrI5);
  const Instruction &I13 =
      F.instr(F.block(blockByLabel(F, "BL6")).instrs().back());
  EXPECT_EQ(I13.uses()[0], CrI12);
}

TEST(GlobalSchedTest, SpeculativePreservesSemantics) {
  auto Base = parseModuleOrDie(MinmaxFull);
  auto [Sched, Stats] = scheduleMinmax(SchedLevel::Speculative);
  for (int Updates : {0, 1, 2}) {
    ExecResult R0 = runMinmax(*Base, nullptr, Updates);
    ExecResult R1 = runMinmax(*Sched, nullptr, Updates);
    EXPECT_EQ(R0.Printed, R1.Printed) << "updates=" << Updates;
  }
}

TEST(GlobalSchedTest, SpeculativeReaches11To12Cycles) {
  auto [M, Stats] = scheduleMinmax(SchedLevel::Speculative);
  EXPECT_NEAR(loopPeriod(*M, 0), 11.0, 1.0);
  EXPECT_NEAR(loopPeriod(*M, 2), 12.0, 1.5);
}

TEST(GlobalSchedTest, StaircaseAcrossLevels) {
  auto Base = parseModuleOrDie(MinmaxFull);
  auto [Useful, S1] = scheduleMinmax(SchedLevel::Useful);
  auto [Spec, S2] = scheduleMinmax(SchedLevel::Speculative);
  for (int Updates : {0, 2}) {
    double P0 = loopPeriod(*Base, Updates);
    double P1 = loopPeriod(*Useful, Updates);
    double P2 = loopPeriod(*Spec, Updates);
    EXPECT_GT(P0, P1);
    EXPECT_GE(P1, P2);
  }
}

TEST(GlobalSchedTest, NoneLevelIsIdentity) {
  auto Base = parseModuleOrDie(MinmaxFull);
  std::string Before = moduleToString(*Base);
  Function &F = *Base->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  SchedRegion R = SchedRegion::build(F, LI, 0);
  GlobalSchedOptions Opts;
  Opts.Level = SchedLevel::None;
  GlobalScheduler GS(MachineDescription::rs6k(), Opts);
  GlobalSchedStats Stats = GS.scheduleRegion(F, R);
  EXPECT_EQ(Stats.BlocksScheduled, 0u);
  EXPECT_EQ(moduleToString(*Base), Before);
}

//===----------------------------------------------------------------------===
// Live-on-exit guard (Section 5.3)
//===----------------------------------------------------------------------===

TEST(GlobalSchedTest, RenamingDisabledVetoesSecondCompare) {
  auto [M, Stats] = scheduleMinmax(SchedLevel::Speculative,
                                   /*Renaming=*/false);
  Function &F = *M->functions()[0];
  EXPECT_TRUE(verifyFunction(F).empty());
  // Only I5 can move speculatively; I12 is vetoed by the live-on-exit
  // check once I5's cr6 is live out of BL1.
  EXPECT_EQ(Stats.SpeculativeMotions, 1u);
  EXPECT_GE(Stats.VetoedSpeculations, 1u);
  EXPECT_EQ(Stats.Renames, 0u);
  EXPECT_EQ(blockOpcodes(F, "BL1"), "L LU AI C C C BF");

  // Still correct.
  auto Base = parseModuleOrDie(MinmaxFull);
  for (int Updates : {0, 1, 2}) {
    ExecResult R0 = runMinmax(*Base, nullptr, Updates);
    ExecResult R1 = runMinmax(*M, nullptr, Updates);
    EXPECT_EQ(R0.Printed, R1.Printed);
  }
}

TEST(GlobalSchedTest, Section53ExampleOnlyOneAssignmentMoves) {
  // The x=5 / x=3 example: both assignments are speculative candidates
  // for B1; at most one may move (the second would clobber a value that
  // became live), and renaming cannot rescue it because x is used in B4.
  const char *Text = R"(
func f {
B1:
  C cr0 = r8, r9
  BF B3, cr0, gt
B2:
  LI r1 = 5
  B B4
B3:
  LI r1 = 3
B4:
  CALL print(r1)
  RET
}
)";
  auto M = parseModuleOrDie(Text);
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  SchedRegion R = SchedRegion::build(F, LI, -1);
  GlobalSchedOptions Opts;
  Opts.Level = SchedLevel::Speculative;
  GlobalScheduler GS(MachineDescription::rs6k(), Opts);
  GlobalSchedStats Stats = GS.scheduleRegion(F, R);
  EXPECT_TRUE(verifyFunction(F).empty());
  EXPECT_LE(Stats.SpeculativeMotions, 1u);
  EXPECT_GE(Stats.VetoedSpeculations, 1u);

  // Semantics on both branch outcomes.
  auto Base = parseModuleOrDie(Text);
  for (int64_t R8 : {1, 9}) {
    Interpreter I0(*Base), I1(*M);
    I0.setReg(Reg::gpr(8), R8);
    I0.setReg(Reg::gpr(9), 5);
    I1.setReg(Reg::gpr(8), R8);
    I1.setReg(Reg::gpr(9), 5);
    ExecResult E0 = I0.run(*Base->functions()[0]);
    ExecResult E1 = I1.run(*M->functions()[0]);
    EXPECT_EQ(E0.Printed, E1.Printed) << "r8=" << R8;
  }
}

TEST(GlobalSchedTest, StoresAreNeverSpeculated) {
  const char *Text = R"(
func f {
B1:
  C cr0 = r8, r9
  BF B3, cr0, gt
B2:
  ST mem[r2 + 0] = r8
  B B4
B3:
  NOP
B4:
  RET
}
)";
  auto M = parseModuleOrDie(Text);
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  SchedRegion R = SchedRegion::build(F, LI, -1);
  GlobalSchedOptions Opts;
  Opts.Level = SchedLevel::Speculative;
  GlobalScheduler GS(MachineDescription::rs6k(), Opts);
  GS.scheduleRegion(F, R);
  // The store stays in B2 (B3's NOP may legitimately move, the ST never).
  EXPECT_EQ(blockOpcodes(F, "B2"), "ST B");
  EXPECT_EQ(blockOpcodes(F, "B1").find("ST"), std::string::npos);
}

TEST(GlobalSchedTest, CallsNeverMove) {
  const char *Text = R"(
func f {
B1:
  LI r1 = 1
B2:
  CALL print(r1)
B3:
  RET
}
)";
  auto M = parseModuleOrDie(Text);
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  SchedRegion R = SchedRegion::build(F, LI, -1);
  GlobalSchedOptions Opts;
  Opts.Level = SchedLevel::Speculative;
  GlobalScheduler GS(MachineDescription::rs6k(), Opts);
  GS.scheduleRegion(F, R);
  // B1, B2 and B3 are all equivalent, but the CALL must stay in B2.
  EXPECT_EQ(blockOpcodes(F, "B2"), "CALL");
}

//===----------------------------------------------------------------------===
// Local (basic block) scheduler
//===----------------------------------------------------------------------===

TEST(LocalSchedTest, HoistsLoadAboveIndependentOp) {
  // Load feeds the final add; the independent LI can fill its delay slot.
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LI r1 = 100
  L r2 = mem[r1 + 0]
  AI r3 = r2, 1
  LI r4 = 7
  A r5 = r3, r4
  RET r5
}
)");
  Function &F = *M->functions()[0];
  LocalSchedStats Stats = scheduleLocal(F, MachineDescription::rs6k());
  EXPECT_TRUE(verifyFunction(F).empty());
  EXPECT_EQ(Stats.BlocksReordered, 1u);
  // "LI r4 = 7" moves into the load's delay slot, before "AI r3 = r2, 1".
  const std::vector<InstrId> &B0 = F.block(0).instrs();
  ASSERT_EQ(B0.size(), 6u);
  EXPECT_EQ(F.instr(B0[2]).opcode(), Opcode::LI);
  EXPECT_EQ(F.instr(B0[2]).imm(), 7);
  EXPECT_EQ(F.instr(B0[3]).opcode(), Opcode::AI);

  // Semantics unchanged.
  Interpreter I(*M);
  I.storeWord(100, 42);
  ExecResult R = I.run(F);
  EXPECT_EQ(R.ReturnValue, 42 + 1 + 7);
}

TEST(LocalSchedTest, RespectsMemoryDependences) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LI r1 = 100
  LI r2 = 5
  ST mem[r1 + 0] = r2
  L r3 = mem[r1 + 0]
  RET r3
}
)");
  Function &F = *M->functions()[0];
  scheduleLocal(F, MachineDescription::rs6k());
  Interpreter I(*M);
  ExecResult R = I.run(F);
  ASSERT_FALSE(R.Trapped);
  EXPECT_EQ(R.ReturnValue, 5);
  // The load stays after the store.
  const std::vector<InstrId> &B0 = F.block(0).instrs();
  size_t StorePos = 0, LoadPos = 0;
  for (size_t K = 0; K != B0.size(); ++K) {
    if (F.instr(B0[K]).opcode() == Opcode::ST)
      StorePos = K;
    if (F.instr(B0[K]).opcode() == Opcode::L)
      LoadPos = K;
  }
  EXPECT_LT(StorePos, LoadPos);
}

TEST(LocalSchedTest, SchedulesAllBlocksIncludingLoops) {
  auto M = parseModuleOrDie(MinmaxFull);
  Function &F = *M->functions()[0];
  LocalSchedStats Stats = scheduleLocal(F, MachineDescription::rs6k());
  EXPECT_EQ(Stats.BlocksScheduled, F.numBlocks());
  EXPECT_TRUE(verifyFunction(F).empty());
  // Semantics preserved.
  auto Base = parseModuleOrDie(MinmaxFull);
  ExecResult R0 = runMinmax(*Base);
  ExecResult R1 = runMinmax(*M);
  EXPECT_EQ(R0.Printed, R1.Printed);
}
