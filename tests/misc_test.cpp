//===- tests/misc_test.cpp - Remaining edge-case coverage ------------------===//
//
// Interpreter arithmetic corners, machine-description mutators, verifier
// corners, unrolling loops with internal exits, and printer coverage of
// the floating-point opcode family.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/MachineDescription.h"
#include "sched/Unroll.h"

#include <gtest/gtest.h>

using namespace gis;

//===----------------------------------------------------------------------===
// Interpreter corners
//===----------------------------------------------------------------------===

TEST(InterpCornerTest, LUWithDestEqualBaseIsInvalid) {
  // LU rX, rX is an invalid instruction form (like POWER's lwzu with
  // RT == RA): the verifier rejects it.
  ParseResult R = parseModule(R"(
func f {
B0:
  LI r1 = 100
  LU r1, r1 = mem[r1 + 8]
  RET r1
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(verifyModule(*R.M).empty());
}

TEST(InterpCornerTest, ShiftAmountsMaskTo63) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LI r1 = 1
  SL r2 = r1, 64
  SL r3 = r1, 3
  A r4 = r2, r3
  RET r4
}
)");
  Interpreter I(*M);
  ExecResult R = I.run(*M->functions()[0]);
  ASSERT_FALSE(R.Trapped);
  // 64 & 63 == 0: no shift; plus 1 << 3.
  EXPECT_EQ(R.ReturnValue, 1 + 8);
}

TEST(InterpCornerTest, FMAExecutes) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LI r1 = 400
  LI r2 = 3
  ST mem[r1 + 0] = r2
  LI r3 = 5
  ST mem[r1 + 4] = r3
  LI r4 = 7
  ST mem[r1 + 8] = r4
  LF f1 = mem[r1 + 0]
  LF f2 = mem[r1 + 4]
  LF f3 = mem[r1 + 8]
  FMA f4 = f1, f2, f3
  STF mem[r1 + 12] = f4
  L r5 = mem[r1 + 12]
  RET r5
}
)");
  Interpreter I(*M);
  ExecResult R = I.run(*M->functions()[0]);
  ASSERT_FALSE(R.Trapped);
  EXPECT_EQ(R.ReturnValue, 3 * 5 + 7);
}

TEST(InterpCornerTest, MemoryPersistsAcrossRuns) {
  auto M = parseModuleOrDie(R"(
func bump {
B0:
  LI r1 = 600
  L r2 = mem[r1 + 0]
  AI r2 = r2, 1
  ST mem[r1 + 0] = r2
  RET r2
}
)");
  Interpreter I(*M);
  EXPECT_EQ(I.run(*M->functions()[0]).ReturnValue, 1);
  EXPECT_EQ(I.run(*M->functions()[0]).ReturnValue, 2);
  EXPECT_EQ(I.run(*M->functions()[0]).ReturnValue, 3);
}

//===----------------------------------------------------------------------===
// Machine description mutators
//===----------------------------------------------------------------------===

TEST(MachineCornerTest, CustomDelayRules) {
  MachineDescription MD = MachineDescription::rs6k();
  MD.clearDelayRules();
  EXPECT_EQ(MD.flowDelay(Opcode::L, Opcode::A), 0u);
  EXPECT_EQ(MD.flowDelay(Opcode::C, Opcode::BT), 0u);
  // First matching rule wins.
  MD.addDelayRule(DelayRule{OpClass::Load, OpClass::Branch,
                            /*AnyConsumer=*/false, 7});
  MD.addDelayRule(DelayRule{OpClass::Load, OpClass::Other,
                            /*AnyConsumer=*/true, 2});
  EXPECT_EQ(MD.flowDelay(Opcode::L, Opcode::BT), 7u);
  EXPECT_EQ(MD.flowDelay(Opcode::L, Opcode::A), 2u);
}

TEST(MachineCornerTest, ExecTimeAndUnitCountMutators) {
  MachineDescription MD = MachineDescription::rs6k();
  MD.setExecTime(Opcode::A, 4);
  EXPECT_EQ(MD.execTime(Opcode::A), 4u);
  MD.setUnitCount(0, 3);
  EXPECT_EQ(MD.unitType(0).Count, 3u);
  EXPECT_EQ(MD.totalUnits(), 5u);
  MD.setName("custom");
  EXPECT_EQ(MD.name(), "custom");
}

//===----------------------------------------------------------------------===
// Verifier corners
//===----------------------------------------------------------------------===

TEST(VerifierCornerTest, STUWithWrongBase) {
  Module M;
  Function &F = M.createFunction("bad");
  BlockId B = F.createBlock("B0");
  Instruction Stu(Opcode::STU);
  Stu.defs() = {Reg::gpr(5)}; // must equal the base (last use)
  Stu.uses() = {Reg::gpr(1), Reg::gpr(2)};
  F.appendInstr(B, std::move(Stu));
  F.appendInstr(B, Instruction(Opcode::RET));
  F.recomputeCFG();
  EXPECT_FALSE(verifyFunction(F).empty());
}

TEST(VerifierCornerTest, FCWithIntegerOperands) {
  Module M;
  Function &F = M.createFunction("bad");
  BlockId B = F.createBlock("B0");
  Instruction FC(Opcode::FC);
  FC.defs() = {Reg::cr(0)};
  FC.uses() = {Reg::gpr(1), Reg::gpr(2)}; // must be FPRs
  F.appendInstr(B, std::move(FC));
  F.appendInstr(B, Instruction(Opcode::RET));
  F.recomputeCFG();
  EXPECT_FALSE(verifyFunction(F).empty());
}

TEST(VerifierCornerTest, BranchWithoutTarget) {
  Module M;
  Function &F = M.createFunction("bad");
  BlockId B = F.createBlock("B0");
  Instruction Br(Opcode::B); // no target set
  F.appendInstr(B, std::move(Br));
  F.recomputeCFG();
  // recomputeCFG would assert on an invalid target, so verify first.
  EXPECT_FALSE(verifyFunction(F).empty());
}

//===----------------------------------------------------------------------===
// Unrolling a loop with an internal exit
//===----------------------------------------------------------------------===

TEST(UnrollCornerTest, LoopWithInternalBreak) {
  const char *Text = R"(
func f(r9, r8) {
PRE:
  LI r1 = 0
  LI r3 = 0
LOOP:
  AI r1 = r1, 1
  A r3 = r3, r1
  C cr1 = r3, r8
  BT OUT, cr1, gt
BODY2:
  C cr0 = r1, r9
  BT LOOP, cr0, lt
OUT:
  RET r3
}
)";
  auto Base = parseModuleOrDie(Text);
  auto M = parseModuleOrDie(Text);
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  ASSERT_EQ(LI.numLoops(), 1u);
  ASSERT_TRUE(canUnrollOnce(F, LI, 0));
  ASSERT_TRUE(unrollLoopOnce(F, LI, 0));
  EXPECT_TRUE(verifyFunction(F).empty());

  // Behaviour across both exit kinds (break-out and condition-out).
  for (int64_t Limit : {5, 1000}) {
    Interpreter I0(*Base), I1(*M);
    for (Interpreter *I : {&I0, &I1}) {
      I->setReg(Base->functions()[0]->params()[0], 10); // r9: count bound
      I->setReg(Base->functions()[0]->params()[1], Limit); // r8: sum bound
    }
    ExecResult R0 = I0.run(*Base->functions()[0]);
    ExecResult R1 = I1.run(*M->functions()[0]);
    ASSERT_FALSE(R0.Trapped);
    ASSERT_FALSE(R1.Trapped);
    EXPECT_EQ(R0.ReturnValue, R1.ReturnValue) << "limit=" << Limit;
  }
}

//===----------------------------------------------------------------------===
// Printer coverage of the floating-point family
//===----------------------------------------------------------------------===

TEST(PrinterCornerTest, FloatOpcodesRoundTrip) {
  const char *Text = R"(
func f {
B0:
  LF f1 = mem[r1 + 0]
  LF f2 = mem[r1 + 8]
  FA f3 = f1, f2
  FS f4 = f3, f1
  FM f5 = f4, f2
  FD f6 = f5, f1
  FMA f7 = f1, f2, f6
  FC cr0 = f7, f1
  STF mem[r1 + 16] = f7
  BT B1, cr0, gt
B1:
  RET
}
)";
  auto M1 = parseModuleOrDie(Text);
  std::string P1 = moduleToString(*M1);
  auto M2 = parseModuleOrDie(P1);
  EXPECT_EQ(moduleToString(*M2), P1);
  // Spot checks.
  const Function &F = *M1->functions()[0];
  EXPECT_EQ(instructionToString(F, 2), "FA f3 = f1, f2");
  EXPECT_EQ(instructionToString(F, 6), "FMA f7 = f1, f2, f6");
  EXPECT_EQ(instructionToString(F, 7), "FC cr0 = f7, f1");
  EXPECT_EQ(instructionToString(F, 8), "STF mem[r1 + 16] = f7");
}
