//===- tests/ir_test.cpp - IR core unit tests ------------------------------===//
//
// Tests for registers, opcode tables, instruction construction, functions,
// layout/CFG maintenance, and the verifier.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace gis;

TEST(RegTest, ClassesAndIndices) {
  Reg R = Reg::gpr(31);
  EXPECT_TRUE(R.isValid());
  EXPECT_TRUE(R.isGPR());
  EXPECT_EQ(R.index(), 31u);
  EXPECT_EQ(R.str(), "r31");

  Reg F = Reg::fpr(2);
  EXPECT_TRUE(F.isFPR());
  EXPECT_EQ(F.str(), "f2");

  Reg CR = Reg::cr(7);
  EXPECT_TRUE(CR.isCR());
  EXPECT_EQ(CR.str(), "cr7");

  Reg Invalid;
  EXPECT_FALSE(Invalid.isValid());
  EXPECT_NE(R, F);
  EXPECT_EQ(R, Reg::gpr(31));
}

TEST(OpcodeTest, NamesRoundTrip) {
  for (unsigned I = 0; I != NumOpcodes; ++I) {
    Opcode Op = static_cast<Opcode>(I);
    auto Parsed = parseOpcode(opcodeName(Op));
    ASSERT_TRUE(Parsed.has_value()) << "opcode " << I;
    EXPECT_EQ(*Parsed, Op);
  }
  EXPECT_FALSE(parseOpcode("BOGUS").has_value());
}

TEST(OpcodeTest, PropertyFlags) {
  EXPECT_TRUE(opcodeInfo(Opcode::L).IsLoad);
  EXPECT_TRUE(opcodeInfo(Opcode::LU).IsLoad);
  EXPECT_TRUE(opcodeInfo(Opcode::ST).IsStore);
  EXPECT_TRUE(opcodeInfo(Opcode::ST).NeverSpeculate);
  EXPECT_TRUE(opcodeInfo(Opcode::CALL).NeverCrossBlock);
  EXPECT_TRUE(opcodeInfo(Opcode::CALL).TouchesMemory);
  EXPECT_TRUE(opcodeInfo(Opcode::BT).IsBranch);
  EXPECT_TRUE(opcodeInfo(Opcode::BT).IsTerminator);
  EXPECT_TRUE(opcodeInfo(Opcode::RET).IsTerminator);
  EXPECT_FALSE(opcodeInfo(Opcode::RET).IsBranch);
  EXPECT_FALSE(opcodeInfo(Opcode::A).NeverSpeculate);
  // Trapping divides must never be speculated.
  EXPECT_TRUE(opcodeInfo(Opcode::DIV).NeverSpeculate);
  EXPECT_TRUE(opcodeInfo(Opcode::REM).NeverSpeculate);
}

TEST(OpcodeTest, CondBits) {
  EXPECT_EQ(condBitName(CondBit::LT), "lt");
  EXPECT_EQ(condBitName(CondBit::GT), "gt");
  EXPECT_EQ(condBitName(CondBit::EQ), "eq");
  EXPECT_EQ(parseCondBit("gt"), CondBit::GT);
  EXPECT_FALSE(parseCondBit("ge").has_value());
}

namespace {

/// Builds a diamond: entry -> (then | else) -> join.
Function &buildDiamond(Module &M) {
  Function &F = M.createFunction("diamond");
  IRBuilder B(F);
  BlockId Entry = F.createBlock("entry");
  BlockId Then = F.createBlock("then");
  BlockId Else = F.createBlock("else");
  BlockId Join = F.createBlock("join");

  Reg X = F.newReg(RegClass::GPR);
  Reg Y = F.newReg(RegClass::GPR);
  Reg CRz = F.newReg(RegClass::CR);

  B.setInsertBlock(Entry);
  B.li(X, 1);
  B.cmpi(CRz, X, 0);
  B.bt(CRz, CondBit::GT, Else);

  B.setInsertBlock(Then);
  B.li(Y, 2);
  B.br(Join);

  B.setInsertBlock(Else);
  B.li(Y, 3);

  B.setInsertBlock(Join);
  B.ret(Y);

  F.recomputeCFG();
  F.renumberOriginalOrder();
  return F;
}

} // namespace

TEST(FunctionTest, DiamondCFG) {
  Module M;
  Function &F = buildDiamond(M);

  EXPECT_EQ(F.numBlocks(), 4u);
  EXPECT_EQ(F.entry(), F.layout().front());

  const BasicBlock &Entry = F.block(0);
  ASSERT_EQ(Entry.succs().size(), 2u);
  // Taken target first.
  EXPECT_EQ(F.block(Entry.succs()[0]).label(), "else");
  EXPECT_EQ(F.block(Entry.succs()[1]).label(), "then");

  const BasicBlock &Join = F.block(3);
  EXPECT_EQ(Join.preds().size(), 2u);
  EXPECT_TRUE(Join.succs().empty());

  EXPECT_TRUE(verifyFunction(F).empty());
}

TEST(FunctionTest, OriginalOrderFollowsLayout) {
  Module M;
  Function &F = buildDiamond(M);
  uint32_t Prev = 0;
  bool First = true;
  for (BlockId B : F.layout()) {
    for (InstrId I : F.block(B).instrs()) {
      if (!First) {
        EXPECT_GT(F.instr(I).originalOrder(), Prev);
      }
      Prev = F.instr(I).originalOrder();
      First = false;
    }
  }
}

TEST(FunctionTest, LayoutSuccessor) {
  Module M;
  Function &F = buildDiamond(M);
  EXPECT_EQ(F.layoutSuccessor(0), 1u);
  EXPECT_EQ(F.layoutSuccessor(2), 3u);
  EXPECT_EQ(F.layoutSuccessor(3), InvalidId);
}

TEST(FunctionTest, CreateBlockAfterInsertsInLayout) {
  Module M;
  Function &F = buildDiamond(M);
  BlockId NewB = F.createBlockAfter(1, "after_then");
  ASSERT_EQ(F.layout().size(), 5u);
  EXPECT_EQ(F.layout()[2], NewB);
}

TEST(FunctionTest, CloneInstr) {
  Module M;
  Function &F = buildDiamond(M);
  InstrId First = F.block(0).instrs()[0];
  InstrId Clone = F.cloneInstr(First);
  EXPECT_NE(First, Clone);
  EXPECT_EQ(F.instr(Clone).opcode(), F.instr(First).opcode());
  EXPECT_EQ(F.instr(Clone).imm(), F.instr(First).imm());
}

TEST(VerifierTest, CatchesTerminatorInMiddle) {
  Module M;
  Function &F = M.createFunction("bad");
  IRBuilder B(F);
  BlockId Entry = F.createBlock("entry");
  B.setInsertBlock(Entry);
  B.ret();
  B.nop(); // instruction after the terminator
  F.recomputeCFG();
  EXPECT_FALSE(verifyFunction(F).empty());
}

TEST(VerifierTest, CatchesFallOffEnd) {
  Module M;
  Function &F = M.createFunction("bad");
  IRBuilder B(F);
  BlockId Entry = F.createBlock("entry");
  B.setInsertBlock(Entry);
  B.nop();
  F.recomputeCFG();
  EXPECT_FALSE(verifyFunction(F).empty());
}

TEST(VerifierTest, CatchesWrongRegisterClass) {
  Module M;
  Function &F = M.createFunction("bad");
  BlockId Entry = F.createBlock("entry");
  Instruction I(Opcode::C);
  I.defs() = {Reg::gpr(0)}; // compare must define a CR
  I.uses() = {Reg::gpr(1), Reg::gpr(2)};
  F.appendInstr(Entry, I);
  Instruction R(Opcode::RET);
  F.appendInstr(Entry, R);
  F.recomputeCFG();
  EXPECT_FALSE(verifyFunction(F).empty());
}

TEST(VerifierTest, AcceptsWellFormedDiamond) {
  Module M;
  Function &F = buildDiamond(M);
  EXPECT_TRUE(verifyFunction(F).empty());
}

TEST(ModuleTest, GlobalAllocationIsDisjoint) {
  Module M;
  // Copy the first descriptor: the reference returned by allocateGlobal is
  // invalidated by the next allocation (the globals vector may grow).
  const GlobalArray A = *M.allocateGlobal("a", 100);
  const GlobalArray &B = *M.allocateGlobal("b", 50);
  EXPECT_LT(A.Address + A.SizeWords * 4, B.Address);
  EXPECT_EQ(M.globals().size(), 2u);
}

TEST(ModuleTest, GlobalAllocationRejectsWhatDoesNotFit) {
  Module M;
  EXPECT_EQ(M.allocateGlobal("neg", -5), nullptr);
  EXPECT_EQ(M.allocateGlobal("wraps", INT64_MAX / 4), nullptr);
  EXPECT_TRUE(M.globals().empty()); // a refusal reserves nothing
  ASSERT_NE(M.allocateGlobal("a", 1), nullptr);
  // The next address, 0x1000 + 4 + 64, leaves exactly this much.
  const int64_t Fits = (INT64_MAX - 0x1000 - 4 - 64 - 64) / 4;
  EXPECT_EQ(M.allocateGlobal("too big", Fits + 1), nullptr);
  const GlobalArray *Last = M.allocateGlobal("last", Fits);
  ASSERT_NE(Last, nullptr);
  EXPECT_EQ(Last->Address, 0x1000 + 4 + 64);
  EXPECT_EQ(M.allocateGlobal("after", 0), nullptr);
}
