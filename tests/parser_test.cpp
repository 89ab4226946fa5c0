//===- tests/parser_test.cpp - IR parser/printer round-trip tests ---------===//
//
// The parser accepts exactly what the printer produces; these tests check
// both directions plus diagnostic quality on malformed input.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "frontend/CodeGen.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/MachineDescription.h"
#include "sched/Pipeline.h"
#include "support/RNG.h"
#include "support/StringUtils.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

using namespace gis;

namespace {

const char *MinmaxText = R"(
; The loop of the paper's Figure 2 (minmax), transcribed verbatim.
global a[100]

func minmax {
BL1:
  I1: L r12 = mem[r31 + 4]          ; load u
  I2: LU r0, r31 = mem[r31 + 8]     ; load v and increment index
  I3: C cr7 = r12, r0               ; u > v
  I4: BF BL6, cr7, gt
BL2:
  I5: C cr6 = r12, r30              ; u > max
  I6: BF BL4, cr6, gt
BL3:
  I7: LR r30 = r12                  ; max = u
BL4:
  I8: C cr7 = r0, r28               ; v < min
  I9: BF BL10, cr7, lt
BL5:
  I10: LR r28 = r0                  ; min = v
  I11: B BL10
BL6:
  I12: C cr6 = r0, r30              ; v > max
  I13: BF BL8, cr6, gt
BL7:
  I14: LR r30 = r0                  ; max = v
BL8:
  I15: C cr7 = r12, r28             ; u < min
  I16: BF BL10, cr7, lt
BL9:
  I17: LR r28 = r12                 ; min = u
BL10:
  I18: AI r29 = r29, 2              ; i = i + 2
  I19: C cr4 = r29, r27             ; i < n
  I20: BT BL1, cr4, lt
BL11:
  RET
}
)";

} // namespace

TEST(ParserTest, ParsesMinmaxLoop) {
  ParseResult R = parseModule(MinmaxText);
  ASSERT_TRUE(R.ok()) << R.Error << " at line " << R.Line;
  Module &M = *R.M;
  ASSERT_EQ(M.functions().size(), 1u);
  Function &F = *M.functions()[0];
  EXPECT_EQ(F.name(), "minmax");
  EXPECT_EQ(F.numBlocks(), 11u);
  EXPECT_EQ(F.numInstrs(), 21u);
  EXPECT_TRUE(verifyFunction(F).empty());

  // Branch targets resolved across forward references.
  const BasicBlock &BL1 = F.block(0);
  ASSERT_EQ(BL1.instrs().size(), 4u);
  const Instruction &I4 = F.instr(BL1.instrs()[3]);
  EXPECT_EQ(I4.opcode(), Opcode::BF);
  EXPECT_EQ(F.block(I4.target()).label(), "BL6");
  EXPECT_EQ(I4.cond(), CondBit::GT);

  // Loop back edge.
  const BasicBlock &BL10 = F.block(9);
  const Instruction &I20 = F.instr(BL10.instrs().back());
  EXPECT_EQ(I20.opcode(), Opcode::BT);
  EXPECT_EQ(I20.target(), 0u);

  // Global.
  ASSERT_EQ(M.globals().size(), 1u);
  EXPECT_EQ(M.globals()[0].Name, "a");
  EXPECT_EQ(M.globals()[0].SizeWords, 100);
}

TEST(ParserTest, RoundTripsThroughPrinter) {
  auto M1 = parseModuleOrDie(MinmaxText);
  std::string Printed1 = moduleToString(*M1);
  auto M2 = parseModuleOrDie(Printed1);
  std::string Printed2 = moduleToString(*M2);
  EXPECT_EQ(Printed1, Printed2);
}

TEST(ParserTest, LUPattern) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LU r0, r31 = mem[r31 + 8]
  RET r0
}
)");
  const Function &F = *M->functions()[0];
  const Instruction &I = F.instr(0);
  EXPECT_EQ(I.opcode(), Opcode::LU);
  ASSERT_EQ(I.defs().size(), 2u);
  EXPECT_EQ(I.defs()[0], Reg::gpr(0));
  EXPECT_EQ(I.defs()[1], Reg::gpr(31));
  EXPECT_EQ(I.memBase(), Reg::gpr(31));
  EXPECT_EQ(I.imm(), 8);
}

TEST(ParserTest, NegativeDisplacement) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  L r1 = mem[r2 - 12]
  RET r1
}
)");
  EXPECT_EQ(M->functions()[0]->instr(0).imm(), -12);
}

TEST(ParserTest, StoreOperands) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  ST mem[r2 + 4] = r1
  STU mem[r3 + 8] = r1
  RET
}
)");
  const Function &F = *M->functions()[0];
  const Instruction &St = F.instr(0);
  EXPECT_EQ(St.uses()[0], Reg::gpr(1));   // value
  EXPECT_EQ(St.memBase(), Reg::gpr(2));   // base is last use
  const Instruction &Stu = F.instr(1);
  ASSERT_EQ(Stu.defs().size(), 1u);
  EXPECT_EQ(Stu.defs()[0], Reg::gpr(3));  // base updated
}

TEST(ParserTest, CallForms) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  CALL print(r3)
  CALL r4 = compute(r1, r2)
  CALL nullary()
  RET
}
)");
  const Function &F = *M->functions()[0];
  EXPECT_EQ(F.instr(0).callee(), "print");
  EXPECT_EQ(F.instr(0).uses().size(), 1u);
  EXPECT_TRUE(F.instr(0).defs().empty());
  EXPECT_EQ(F.instr(1).callee(), "compute");
  EXPECT_EQ(F.instr(1).uses().size(), 2u);
  ASSERT_EQ(F.instr(1).defs().size(), 1u);
  EXPECT_EQ(F.instr(1).defs()[0], Reg::gpr(4));
  EXPECT_TRUE(F.instr(2).uses().empty());
}

TEST(ParserTest, CommentsBecomeInstructionComments) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LI r1 = 7 ; the answer, halved
  RET r1
}
)");
  EXPECT_EQ(M->functions()[0]->instr(0).comment(), "the answer, halved");
}

TEST(ParserTest, InstructionTagBecomesComment) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  I99: LI r1 = 7
  RET r1
}
)");
  EXPECT_EQ(M->functions()[0]->instr(0).comment(), "I99");
}

TEST(ParserTest, RejectsUnknownMnemonic) {
  ParseResult R = parseModule("func f {\nB0:\n  FROB r1 = r2\n}\n");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "unknown mnemonic 'FROB'");
  EXPECT_EQ(R.Line, 3);
}

TEST(ParserTest, RejectsUnknownBranchTarget) {
  ParseResult R = parseModule("func f {\nB0:\n  B NOWHERE\n}\n");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "unknown branch target 'NOWHERE'");
  EXPECT_EQ(R.Line, 3);
}

TEST(ParserTest, RejectsDuplicateLabel) {
  ParseResult R = parseModule("func f {\nB0:\n  NOP\nB0:\n  RET\n}\n");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "duplicate block label 'B0'");
  EXPECT_EQ(R.Line, 4);
}

TEST(ParserTest, RejectsInstructionOutsideFunction) {
  ParseResult R = parseModule("LI r1 = 2\n");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "instruction outside a function");
  EXPECT_EQ(R.Line, 1);
}

TEST(ParserTest, RejectsTrailingGarbage) {
  ParseResult R = parseModule("func f {\nB0:\n  LI r1 = 2 extra\n}\n");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "trailing characters: 'extra'");
  EXPECT_EQ(R.Line, 3);
}

TEST(ParserTest, RejectsLUWithMismatchedBase) {
  ParseResult R =
      parseModule("func f {\nB0:\n  LU r0, r5 = mem[r31 + 8]\n  RET\n}\n");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "LU must update its base register");
  EXPECT_EQ(R.Line, 3);
}

TEST(ParserTest, MultipleFunctions) {
  auto M = parseModuleOrDie(R"(
func one {
B0:
  RET
}

func two {
B0:
  RET
}
)");
  EXPECT_EQ(M->functions().size(), 2u);
  EXPECT_NE(M->findFunction("one"), nullptr);
  EXPECT_NE(M->findFunction("two"), nullptr);
  EXPECT_EQ(M->findFunction("three"), nullptr);
}

TEST(PrinterTest, InstructionFormats) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LI r1 = 42
  AI r2 = r1, -3
  A r3 = r1, r2
  SL r4 = r3, 2
  C cr0 = r1, r2
  BF B1, cr0, eq
B1:
  RET r3
}
)");
  const Function &F = *M->functions()[0];
  EXPECT_EQ(instructionToString(F, 0), "LI r1 = 42");
  EXPECT_EQ(instructionToString(F, 1), "AI r2 = r1, -3");
  EXPECT_EQ(instructionToString(F, 2), "A r3 = r1, r2");
  EXPECT_EQ(instructionToString(F, 3), "SL r4 = r3, 2");
  EXPECT_EQ(instructionToString(F, 4), "C cr0 = r1, r2");
  EXPECT_EQ(instructionToString(F, 5), "BF B1, cr0, eq");
  EXPECT_EQ(instructionToString(F, 6), "RET r3");
}

// The printed IR is both the schedule cache's key serialization and the
// disk tier's payload, so its bytes are a compatibility contract: one
// changed byte orphans every deployed cache entry.  The pins below cover
// every opcode form, parameter lists, globals and comment padding.
const char *EveryFormText = R"(global a[100]
global b[4]

func forms(r1, f1, cr2) {
B0:
  LI r3 = 42
  LI r4 = -7
  LR r5 = r3
  NEG r6 = r5
  AI r7 = r6, -3
  SL r8 = r7, 2
  SR r9 = r8, 63
  A r10 = r3, r4
  S r11 = r10, r3
  MUL r12 = r11, r4
  DIV r13 = r12, r3
  REM r14 = r13, r3
  AND r15 = r14, r3
  OR r16 = r15, r3
  XOR r17 = r16, r3
  L r18 = mem[r1 + 8]
  L r19 = mem[r1 - 12]
  LU r20, r1 = mem[r1 + 4]
  LU r21, r1 = mem[r1 - 4]
  ST mem[r1 + 0] = r20
  ST mem[r1 - 4] = r19
  STU mem[r1 + 16] = r18
  STU mem[r1 - 16] = r18
  LF f2 = mem[r1 + 24]
  STF mem[r1 - 32] = f2
  FA f3 = f1, f2
  FS f4 = f3, f1
  FM f5 = f4, f2
  FD f6 = f5, f1
  FMA f7 = f1, f2, f6
  C cr0 = r3, r4
  CI cr1 = r3, -100
  FC cr3 = f7, f1
  CALL print(r3)
  CALL r22 = compute(r3, r4, r5)
  CALL nullary()
  CALL r23 = seed()
  SPILL slot[0] = r22
  SPILLF slot[1] = f7
  RELOAD r24 = slot[0]
  RELOADF f8 = slot[1]
  NOP
  BT B2, cr0, lt
B1:
  BF B3, cr1, gt
B2:
  BT B3, cr3, eq
B3:
  BF B4, cr2, lt
B4:
  B B5
B5:
  RET r24
}

func bare {
entry:
  RET
}
)";

TEST(PrinterTest, EveryOpcodeFormIsPinned) {
  ParseResult R = parseModule(EveryFormText);
  ASSERT_TRUE(R.ok()) << R.Error << " at line " << R.Line;
  EXPECT_EQ(moduleToString(*R.M), EveryFormText);

  // Every entry point prints the same bytes.
  const Function &F = *R.M->functions()[0];
  std::string Joined;
  for (const auto &G : R.M->functions()) {
    if (!Joined.empty())
      Joined += "\n";
    Joined += functionToString(*G);
  }
  EXPECT_EQ("global a[100]\nglobal b[4]\n\n" + Joined, EveryFormText);
  std::ostringstream OS;
  printModule(*R.M, OS);
  EXPECT_EQ(OS.str(), EveryFormText);
  std::ostringstream FOS;
  printFunction(F, FOS);
  EXPECT_EQ(FOS.str(), functionToString(F));
  EXPECT_EQ(instructionToString(F, 0), "LI r3 = 42");
  EXPECT_EQ(instructionToString(F, 17), "LU r20, r1 = mem[r1 + 4]");
  EXPECT_EQ(instructionToString(F, 34), "CALL r22 = compute(r3, r4, r5)");
  EXPECT_EQ(instructionToString(F, 41), "NOP");
}

TEST(PrinterTest, RegisterNames) {
  EXPECT_EQ(Reg::gpr(0).str(), "r0");
  EXPECT_EQ(Reg::gpr(123456).str(), "r123456");
  EXPECT_EQ(Reg::fpr(7).str(), "f7");
  EXPECT_EQ(Reg::cr(6).str(), "cr6");
  EXPECT_EQ(Reg::gpr((1u << 28) - 1).str(), "r268435455");
  EXPECT_EQ(Reg().str(), "<invalid>");
}

// Comments start at column 36 ("; " after the body padded to 36 columns);
// a body of 36 columns or more is followed directly by "; ".
TEST(PrinterTest, CommentPaddingIsPinned) {
  ParseResult R = parseModule("func f {\n"
                              "B0:\n"
                              "  LI r1 = 1 ; short\n"
                              "  CALL abcdefghijklmnopqrstuvwxyz(r1) ; c35\n"
                              "  CALL abcdefghijklmnopqrstuvwxyzA(r1) ; c36\n"
                              "  CALL abcdefghijklmnopqrstuvwxyzAB(r1) ; c37\n"
                              "  I7: LR r2 = r1\n"
                              "  RET r2 ;\n"
                              "}\n");
  ASSERT_TRUE(R.ok()) << R.Error << " at line " << R.Line;
  const Function &F = *R.M->functions()[0];
  EXPECT_EQ(instructionToString(F, 0),
            "LI r1 = 1                           ; short");
  EXPECT_EQ(instructionToString(F, 1),
            "CALL abcdefghijklmnopqrstuvwxyz(r1) ; c35");
  EXPECT_EQ(instructionToString(F, 2),
            "CALL abcdefghijklmnopqrstuvwxyzA(r1); c36");
  EXPECT_EQ(instructionToString(F, 3),
            "CALL abcdefghijklmnopqrstuvwxyzAB(r1); c37");
  EXPECT_EQ(instructionToString(F, 4),
            "LR r2 = r1                          ; I7");
  EXPECT_EQ(instructionToString(F, 5), "RET r2");
  EXPECT_EQ(functionToString(F),
            "func f {\n"
            "B0:\n"
            "  LI r1 = 1                           ; short\n"
            "  CALL abcdefghijklmnopqrstuvwxyz(r1) ; c35\n"
            "  CALL abcdefghijklmnopqrstuvwxyzA(r1); c36\n"
            "  CALL abcdefghijklmnopqrstuvwxyzAB(r1); c37\n"
            "  LR r2 = r1                          ; I7\n"
            "  RET r2\n"
            "}\n");
}

// Every diagnostic of the parser, message and line.
TEST(ParserTest, DiagnosticsArePinned) {
  struct Case {
    const char *Text;
    const char *Error;
    int Line;
  };
  const Case Cases[] = {
      {"func f {\nglobal a[4]\n}\n", "'global' inside a function", 2},
      {"global -[4]\n", "malformed global declaration", 1},
      {"global [4]\n", "malformed global declaration", 1},
      {"global a(4)\n", "malformed global declaration", 1},
      {"global a[x]\n", "malformed global size", 1},
      {"global a[4\n", "malformed global size", 1},
      {"func f {\nfunc g {\n", "nested 'func'", 2},
      {"func (r1) {\n", "malformed function header (expected 'func NAME {')",
       1},
      {"func f\n", "malformed function header (expected '{')", 1},
      {"func f(r1 r2) {\n", "expected ',' or ')' in parameter list", 1},
      {"func f(x1) {\n", "malformed parameter register", 1},
      {"}\n", "unmatched '}'", 1},
      {"\n\nNOP\n", "instruction outside a function", 3},
      {"func f {\n  NOP\n}\n", "instruction before the first block label", 2},
      {"func f {\nB0:\n  RET\n", "missing '}' at end of input", 4},
      {"func f {\nB0:\n  RET", "missing '}' at end of input", 3},
      {"func f {\nB0:\n  = r1\n}\n", "expected instruction mnemonic", 3},
      {"func f {\nB0:\n  I1: = r1\n}\n", "expected mnemonic after tag 'I1:'",
       3},
      {"func f {\nB0:\n  LI r1 = x\n}\n", "malformed LI (LI rD = imm)", 3},
      {"func f {\nB0:\n  LR r1 r2\n}\n", "malformed instruction 'LR r1 r2'",
       3},
      {"func f {\nB0:\n  LR r1 = q2 ; note\n}\n", "malformed register 'q2'",
       3},
      {"func f {\nB0:\n  LR r1 = , r2\n}\n", "expected register", 3},
      {"func f {\nB0:\n  AI r1 = r2, x\n}\n", "expected integer", 3},
      {"func f {\nB0:\n  L r1 = r2\n}\n", "expected 'mem['", 3},
      {"func f {\nB0:\n  L r1 = mem[r2 + 4\n}\n", "expected ']'", 3},
      {"func f {\nB0:\n  L r1 = mem[r2 + ]\n}\n", "expected integer", 3},
      {"func f {\nB0:\n  LU r1, r2 = mem[r3 + 4]\n}\n",
       "LU must update its base register", 3},
      {"func f {\nB0:\n  B\n}\n", "expected branch target label", 3},
      {"func f {\nB0:\n  BT B0 cr0, lt\n}\n",
       "malformed branch (Bx LABEL, crS, cond)", 3},
      {"func f {\nB0:\n  BT B0, cr0,\n}\n", "expected condition bit", 3},
      {"func f {\nB0:\n  BT B0, cr0, ne\n}\n", "unknown condition bit 'ne'",
       3},
      {"func f {\nB0:\n  CALL (r1)\n}\n", "malformed CALL", 3},
      {"func f {\nB0:\n  CALL x = g()\n}\n", "malformed CALL result register",
       3},
      {"func f {\nB0:\n  CALL r1 = (r2)\n}\n", "expected callee name", 3},
      {"func f {\nB0:\n  CALL g\n}\n", "expected '(' after callee name", 3},
      {"func f {\nB0:\n  CALL g(r1 r2)\n}\n",
       "expected ',' or ')' in CALL arguments", 3},
      {"func f {\nB0:\n  CALL g(r1, 5)\n}\n", "malformed register '5'", 3},
      {"func f {\nB0:\n  SPILL slot[x] = r1\n}\n",
       "malformed spill (SPILL slot[N] = rS)", 3},
      {"func f {\nB0:\n  RELOAD r1 = mem[0]\n}\n",
       "malformed reload (RELOAD rD = slot[N])", 3},
      {"func f {\nB0:\n  RET r1 r2\n}\n", "trailing characters: 'r2'", 3},
      {"func f {\nB0:\n  NOP 1 ; c\n}\n", "trailing characters: '1'", 3},
      {"func f {\nB0:\n  B L9\nB1:\n  B B0\n}\n", "unknown branch target 'L9'",
       3},
      {"func f {\nB0:\n  NOP\nB0 :\n}\n", "duplicate block label 'B0'", 4},
      {"func main {\nB0:\n  RET\n}\nfunc main {\nB0:\n  RET\n}\n",
       "duplicate function 'main'", 5},
      {"global a[4]\nglobal b[2]\nglobal a[8]\n", "duplicate global 'a'", 3},
      {"func f {\nB0:\n  Li r1 = 1\n}\n", "unknown mnemonic 'Li'", 3},
      {"func f {\nB0:\n  LIX r1 = 1\n}\n", "unknown mnemonic 'LIX'", 3},
      {"func f {\nB0:\n  RELOADFF f1 = slot[0]\n}\n",
       "unknown mnemonic 'RELOADFF'", 3},
  };
  for (const Case &C : Cases) {
    ParseResult R = parseModule(C.Text);
    EXPECT_FALSE(R.ok()) << C.Text;
    EXPECT_EQ(R.Error, C.Error) << C.Text;
    EXPECT_EQ(R.Line, C.Line) << C.Text;
  }
}

// parseModule(moduleToString(M)) reprints byte-identically for every
// schedule of a corpus that exercises what the pipeline can print:
// generateRandomMiniC seeds 1-200 and the specLikeWorkloads() kernels, each
// at -O0 and -O2, without and with register allocation at 8 GPRs (spill
// code), superblocks off and on.
TEST(ParserTest, RoundTripsEveryScheduleOfTheCorpus) {
  std::vector<std::pair<std::string, std::string>> Corpus;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed)
    Corpus.emplace_back("seed" + std::to_string(Seed),
                        generateRandomMiniC(Seed));
  for (const Workload &W : specLikeWorkloads())
    Corpus.emplace_back(W.Name, W.Source);

  MachineDescription Wide = MachineDescription::rs6k();
  MachineDescription Narrow = MachineDescription::rs6k();
  Narrow.setNumRegs(RegClass::GPR, 8);
  size_t SpillLines = 0, CommentLines = 0;
  for (const auto &[Item, Source] : Corpus)
    for (unsigned OptLevel : {0u, 2u})
      for (bool Alloc : {false, true})
        for (bool Superblocks : {false, true}) {
          std::unique_ptr<Module> M = compileMiniCOrDie(Source);
          PipelineOptions Opts;
          Opts.Opt.Level = OptLevel;
          Opts.AllocateRegisters = Alloc;
          Opts.EnableSuperblocks = Superblocks;
          scheduleModule(*M, Alloc ? Narrow : Wide, Opts);
          std::string Text = moduleToString(*M);
          ParseResult R = parseModule(Text);
          ASSERT_TRUE(R.ok()) << Item << " -O" << OptLevel << " alloc="
                              << Alloc << " superblocks=" << Superblocks
                              << ": line " << R.Line << ": " << R.Error;
          ASSERT_EQ(moduleToString(*R.M), Text)
              << Item << " -O" << OptLevel << " alloc=" << Alloc
              << " superblocks=" << Superblocks;
          for (std::string_view Line : split(Text, '\n')) {
            SpillLines += Line.find("slot[") != std::string_view::npos;
            CommentLines += Line.find(';') != std::string_view::npos;
          }
        }
  // The corpus reaches spill code and commented instructions.
  EXPECT_GT(SpillLines, 1000u);
  EXPECT_GT(CommentLines, 1000u);
}

// Numbers from outside input: an integer beyond int64_t or a register
// index beyond Reg::MaxParsedIndex is a diagnostic with its line, never an
// exception, an abort or a silently wrapped value.
TEST(ParserTest, RejectsOutOfRangeNumbers) {
  struct Case {
    const char *Text;
    const char *Error;
    int Line;
  };
  const Case Cases[] = {
      {"global a[99999999999999999999]\n", "integer out of range", 1},
      {"func f {\nB0:\n  LI r1 = 99999999999999999999\n}\n",
       "integer out of range", 3},
      {"func f {\nB0:\n  LI r1 = 9223372036854775808\n}\n",
       "integer out of range", 3},
      {"func f {\nB0:\n  LI r1 = -9223372036854775809\n}\n",
       "integer out of range", 3},
      {"func f {\nB0:\n  AI r1 = r2, 18446744073709551616\n}\n",
       "integer out of range", 3},
      {"func f {\nB0:\n  L r1 = mem[r2 + 9223372036854775808]\n}\n",
       "integer out of range", 3},
      {"func f {\nB0:\n  L r1 = mem[r2 - 9223372036854775809]\n}\n",
       "integer out of range", 3},
      {"func f {\nB0:\n  L r1 = mem[r2 - -9223372036854775808]\n}\n",
       "integer out of range", 3},
      {"func f {\nB0:\n  SPILL slot[99999999999999999999] = r1\n}\n",
       "integer out of range", 3},
      {"func f {\nB0:\n  RELOAD r1 = slot[99999999999999999999]\n}\n",
       "integer out of range", 3},
      {"func f {\nB0:\n  LI r300000000 = 1\n}\n",
       "register index out of range", 3},
      {"func f {\nB0:\n  LI r16777216 = 1\n}\n",
       "register index out of range", 3},
      {"func f {\nB0:\n  LI r268435455 = 1\n}\n",
       "register index out of range", 3},
      {"func f {\nB0:\n  LI r4294967297 = 1\n}\n",
       "register index out of range", 3},
      {"func f {\nB0:\n  LR f268435456 = f1\n}\n",
       "register index out of range", 3},
      {"func f {\nB0:\n  BT B0, cr99999999999999999999999, lt\n}\n",
       "register index out of range", 3},
      {"func f(r1, r268435456) {\n", "register index out of range", 1},
      {"func f {\nB0:\n  CALL r999999999 = g()\n}\n",
       "register index out of range", 3},
      {"func f {\nB0:\n  CALL g(r1, r999999999)\n}\n",
       "register index out of range", 3},
  };
  for (const Case &C : Cases) {
    ParseResult R = parseModule(C.Text);
    EXPECT_FALSE(R.ok()) << C.Text;
    EXPECT_EQ(R.Error, C.Error) << C.Text;
    EXPECT_EQ(R.Line, C.Line) << C.Text;
  }
}

TEST(ParserTest, AcceptsEveryInRangeExtreme) {
  ParseResult R = parseModule("func f {\n"
                              "B0:\n"
                              "  LI r16777215 = 9223372036854775807\n"
                              "  LI r5 = -9223372036854775808\n"
                              "  LI r00007 = +5\n"
                              "  L r1 = mem[r2 - -5]\n"
                              "  RET\n"
                              "}\n");
  ASSERT_TRUE(R.ok()) << R.Error << " at line " << R.Line;
  const Function &F = *R.M->functions()[0];
  EXPECT_EQ(F.instr(0).defs()[0], Reg::gpr(Reg::MaxParsedIndex));
  EXPECT_EQ(F.instr(0).imm(), INT64_MAX);
  EXPECT_EQ(F.instr(1).imm(), INT64_MIN);
  EXPECT_EQ(F.instr(2).defs()[0], Reg::gpr(7));
  EXPECT_EQ(F.instr(2).imm(), 5);
  EXPECT_EQ(F.instr(3).imm(), 5);
}

// A global array must have a nonnegative size and end -- with the padding
// before the next array -- inside the int64_t address space; anything
// else is a diagnostic with its line, not a wrapped address.
TEST(ParserTest, RejectsGlobalsOutsideTheAddressSpace) {
  struct Case {
    const char *Text;
    const char *Error;
    int Line;
  };
  const Case Cases[] = {
      {"global a[-5]\n", "negative global size", 1},
      {"global a[4611686018427387904]\nglobal b[1]\n",
       "global 'a' does not fit in the address space", 1},
      {"global a[1]\nglobal b[2305843009213693000]\n",
       "global 'b' does not fit in the address space", 2},
  };
  for (const Case &C : Cases) {
    ParseResult R = parseModule(C.Text);
    EXPECT_FALSE(R.ok()) << C.Text;
    EXPECT_EQ(R.Error, C.Error) << C.Text;
    EXPECT_EQ(R.Line, C.Line) << C.Text;
  }
  // The largest array that fits still parses, and so does an empty one.
  ParseResult R = parseModule("global a[0]\nglobal b[2305843009213689000]\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.M->globals()[1].Address, 0x1000 + 64);
}

// A register index at the parser's cap leaves the pipeline its headroom:
// pre-renaming and global scheduling allocate past it without running out.
TEST(ParserTest, MaxParsedRegisterSchedules) {
  auto M = parseModuleOrDie("func main {\n"
                            "B0:\n"
                            "  LI r16777215 = 1\n"
                            "  LI r2 = 5\n"
                            "  A r3 = r2, r16777215\n"
                            "  LI r2 = 7\n"
                            "  A r4 = r2, r3\n"
                            "  RET r4\n"
                            "}\n");
  PipelineStats S =
      scheduleModule(*M, MachineDescription::rs6k(), PipelineOptions{});
  EXPECT_EQ(S.TransformsRolledBack + S.RegionsRolledBack, 0u);
  EXPECT_GT(S.PreRenamedDefs, 0u);
  EXPECT_GT(M->functions()[0]->numRegs(RegClass::GPR),
            Reg::MaxParsedIndex + 1);
}

// The magnitude of an INT64_MIN displacement prints without overflow and
// reads back to the same value.
TEST(PrinterTest, Int64MinDisplacementRoundTrips) {
  ParseResult R = parseModule("func f {\n"
                              "B0:\n"
                              "  L r1 = mem[r2 + -9223372036854775808]\n"
                              "  ST mem[r2 - 9223372036854775808] = r1\n"
                              "  RET\n"
                              "}\n");
  ASSERT_TRUE(R.ok()) << R.Error << " at line " << R.Line;
  const Function &F = *R.M->functions()[0];
  EXPECT_EQ(F.instr(0).imm(), INT64_MIN);
  EXPECT_EQ(F.instr(1).imm(), INT64_MIN);
  EXPECT_EQ(instructionToString(F, 0), "L r1 = mem[r2 - 9223372036854775808]");
  EXPECT_EQ(instructionToString(F, 1),
            "ST mem[r2 - 9223372036854775808] = r1");
  std::string Text = moduleToString(*R.M);
  ParseResult Back = parseModule(Text);
  ASSERT_TRUE(Back.ok()) << Back.Error << " at line " << Back.Line;
  EXPECT_EQ(Back.M->functions()[0]->instr(0).imm(), INT64_MIN);
  EXPECT_EQ(moduleToString(*Back.M), Text);
}

TEST(ParserTest, FunctionParameterList) {
  auto M = parseModuleOrDie(R"(
func f(r0, r1) {
B0:
  A r2 = r0, r1
  RET r2
}
)");
  const Function &F = *M->functions()[0];
  ASSERT_EQ(F.params().size(), 2u);
  EXPECT_EQ(F.params()[0], Reg::gpr(0));
  EXPECT_EQ(F.params()[1], Reg::gpr(1));
}

TEST(ParserTest, ParamsRoundTripThroughPrinter) {
  auto M = parseModuleOrDie(R"(
func f(r3, f1, r7) {
B0:
  RET r3
}
)");
  std::string Printed = moduleToString(*M);
  EXPECT_NE(Printed.find("func f(r3, f1, r7)"), std::string::npos);
  auto M2 = parseModuleOrDie(Printed);
  EXPECT_EQ(M2->functions()[0]->params().size(), 3u);
  EXPECT_EQ(M2->functions()[0]->params()[1], Reg::fpr(1));
}

TEST(ParserTest, RejectsMalformedParameterList) {
  ParseResult R1 = parseModule("func f(r0, {\nB0:\n  RET\n}\n");
  EXPECT_FALSE(R1.ok());
  EXPECT_EQ(R1.Error, "malformed parameter register");
  EXPECT_EQ(R1.Line, 1);
  ParseResult R2 = parseModule("func f(bogus) {\nB0:\n  RET\n}\n");
  EXPECT_FALSE(R2.ok());
  EXPECT_EQ(R2.Error, "malformed parameter register");
  EXPECT_EQ(R2.Line, 1);
}

TEST(ParserTest, FuzzedInputNeverCrashes) {
  // Mutate a valid program in many small ways: every mutation must either
  // parse or produce a diagnostic -- never crash or hang.
  const std::string Base = R"(
global a[16]
func f(r9) {
B0:
  L r1 = mem[r9 + 4]
  C cr0 = r1, r9
  BF B1, cr0, gt
B1:
  CALL print(r1)
  RET r1
}
)";
  RNG R(0xF022);
  unsigned Parsed = 0, Rejected = 0;
  for (int K = 0; K != 400; ++K) {
    std::string S = Base;
    unsigned Edits = 1 + static_cast<unsigned>(R.nextBelow(4));
    for (unsigned E = 0; E != Edits; ++E) {
      size_t Pos = R.nextBelow(S.size());
      switch (R.nextBelow(3)) {
      case 0:
        S[Pos] = static_cast<char>(R.range(32, 126));
        break;
      case 1:
        S.erase(Pos, 1 + R.nextBelow(3));
        break;
      default:
        S.insert(Pos, 1, static_cast<char>(R.range(32, 126)));
        break;
      }
    }
    ParseResult PR = parseModule(S);
    if (PR.ok())
      ++Parsed;
    else {
      ++Rejected;
      EXPECT_FALSE(PR.Error.empty());
      EXPECT_GT(PR.Line, 0);
    }
  }
  // Both outcomes occur across 400 mutations.
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Parsed + Rejected, 0u);
}
