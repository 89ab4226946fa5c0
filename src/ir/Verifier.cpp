//===- ir/Verifier.cpp - IR structural verifier ---------------------------===//

#include "ir/Verifier.h"

#include "support/Format.h"

using namespace gis;

namespace {

/// Collects problems for one function.
class FunctionVerifier {
public:
  explicit FunctionVerifier(const Function &F) : F(F) {}

  std::vector<std::string> run() {
    checkLayout();
    for (BlockId B : F.layout())
      checkBlock(B);
    return std::move(Problems);
  }

private:
  void problem(const std::string &Msg) {
    Problems.push_back("function '" + F.name() + "': " + Msg);
  }

  void checkLayout() {
    if (F.layout().empty()) {
      problem("empty layout");
      return;
    }
    // First layout position of every block (NotInLayout when absent): the
    // duplicate and coverage checks here, and each block's layout
    // successor in checkBlock().
    FirstPos.assign(F.numBlocks(), NotInLayout);
    unsigned Distinct = 0;
    const std::vector<BlockId> &Layout = F.layout();
    for (size_t Pos = 0, E = Layout.size(); Pos != E; ++Pos) {
      BlockId B = Layout[Pos];
      if (B >= F.numBlocks()) {
        problem(formatString("layout references unknown block %u", B));
        continue;
      }
      if (FirstPos[B] != NotInLayout) {
        problem(formatString("block %s appears twice in layout",
                             F.block(B).label().c_str()));
        continue;
      }
      FirstPos[B] = Pos;
      ++Distinct;
    }
    if (Distinct != F.numBlocks())
      problem("some blocks are missing from the layout");

    // Instructions must belong to exactly one block.
    std::vector<unsigned> Owners(F.numInstrs(), 0);
    for (BlockId B : F.layout())
      for (InstrId I : F.block(B).instrs()) {
        if (I >= F.numInstrs()) {
          problem(formatString("block %s references unknown instruction %u",
                               F.block(B).label().c_str(), I));
          continue;
        }
        ++Owners[I];
      }
    for (InstrId I = 0; I != F.numInstrs(); ++I)
      if (Owners[I] > 1)
        problem(formatString("instruction %u appears in %u blocks", I,
                             Owners[I]));
  }

  void checkBlock(BlockId B) {
    if (B >= F.numBlocks())
      return;
    const BasicBlock &BB = F.block(B);
    const std::string &Label = BB.label();

    for (size_t Pos = 0, E = BB.instrs().size(); Pos != E; ++Pos) {
      const Instruction &I = F.instr(BB.instrs()[Pos]);
      if (I.isTerminator() && Pos + 1 != E)
        problem(formatString("%s: terminator %s is not the last instruction",
                             Label.c_str(),
                             std::string(opcodeName(I.opcode())).c_str()));
      checkInstr(Label, I);
    }

    // Fall-through off the end of the function.
    InstrId Term = F.terminatorOf(B);
    bool MayFallThrough =
        Term == InvalidId || F.instr(Term).opcode() == Opcode::BT ||
        F.instr(Term).opcode() == Opcode::BF;
    size_t Next = FirstPos[B] + 1;
    BlockId LayoutSucc =
        Next < F.layout().size() ? F.layout()[Next] : InvalidId;
    if (MayFallThrough && LayoutSucc == InvalidId)
      problem(formatString("%s: control may fall off the end of the function",
                           Label.c_str()));
  }

  void expectCounts(const std::string &Label, const Instruction &I,
                    size_t NumDefs, size_t NumUses) {
    if (I.defs().size() != NumDefs || I.uses().size() != NumUses)
      problem(formatString("%s: %s expects %zu defs / %zu uses, has %zu / %zu",
                           Label.c_str(),
                           std::string(opcodeName(I.opcode())).c_str(),
                           NumDefs, NumUses, I.defs().size(),
                           I.uses().size()));
  }

  void expectClass(const std::string &Label, const Instruction &I, Reg R,
                   RegClass Class, const char *Role) {
    if (!R.isValid() || R.regClass() != Class)
      problem(formatString("%s: %s operand '%s' of %s has wrong register "
                           "class",
                           Label.c_str(), Role, R.str().c_str(),
                           std::string(opcodeName(I.opcode())).c_str()));
  }

  void checkTarget(const std::string &Label, const Instruction &I) {
    if (I.target() == InvalidId || I.target() >= F.numBlocks())
      problem(formatString("%s: branch with invalid target", Label.c_str()));
  }

  void checkInstr(const std::string &Label, const Instruction &I) {
    switch (I.opcode()) {
    case Opcode::LI:
      expectCounts(Label, I, 1, 0);
      break;
    case Opcode::LR:
    case Opcode::NEG:
      expectCounts(Label, I, 1, 1);
      break;
    case Opcode::AI:
    case Opcode::SL:
    case Opcode::SR:
      expectCounts(Label, I, 1, 1);
      break;
    case Opcode::A:
    case Opcode::S:
    case Opcode::MUL:
    case Opcode::DIV:
    case Opcode::REM:
    case Opcode::AND:
    case Opcode::OR:
    case Opcode::XOR:
      expectCounts(Label, I, 1, 2);
      for (Reg R : I.defs())
        expectClass(Label, I, R, RegClass::GPR, "def");
      for (Reg R : I.uses())
        expectClass(Label, I, R, RegClass::GPR, "use");
      break;
    case Opcode::FA:
    case Opcode::FS:
    case Opcode::FM:
    case Opcode::FD:
      expectCounts(Label, I, 1, 2);
      for (Reg R : I.defs())
        expectClass(Label, I, R, RegClass::FPR, "def");
      for (Reg R : I.uses())
        expectClass(Label, I, R, RegClass::FPR, "use");
      break;
    case Opcode::FMA:
      expectCounts(Label, I, 1, 3);
      break;
    case Opcode::L:
      expectCounts(Label, I, 1, 1);
      expectClass(Label, I, I.defs()[0], RegClass::GPR, "def");
      expectClass(Label, I, I.uses()[0], RegClass::GPR, "base");
      break;
    case Opcode::LU:
      expectCounts(Label, I, 2, 1);
      if (I.defs().size() == 2 && I.uses().size() == 1 &&
          I.defs()[1] != I.uses()[0])
        problem(formatString("%s: LU must update its base register",
                             Label.c_str()));
      // Like the POWER architecture's invalid form RT == RA for lwzu.
      if (I.defs().size() == 2 && I.defs()[0] == I.defs()[1])
        problem(formatString(
            "%s: LU destination must differ from its base register",
            Label.c_str()));
      break;
    case Opcode::ST:
      expectCounts(Label, I, 0, 2);
      break;
    case Opcode::STU:
      expectCounts(Label, I, 1, 2);
      if (I.defs().size() == 1 && I.uses().size() == 2 &&
          I.defs()[0] != I.uses()[1])
        problem(formatString("%s: STU must update its base register",
                             Label.c_str()));
      break;
    case Opcode::LF:
      expectCounts(Label, I, 1, 1);
      expectClass(Label, I, I.defs()[0], RegClass::FPR, "def");
      break;
    case Opcode::STF:
      expectCounts(Label, I, 0, 2);
      expectClass(Label, I, I.uses()[0], RegClass::FPR, "value");
      break;
    case Opcode::C:
      expectCounts(Label, I, 1, 2);
      expectClass(Label, I, I.defs()[0], RegClass::CR, "def");
      break;
    case Opcode::CI:
      expectCounts(Label, I, 1, 1);
      expectClass(Label, I, I.defs()[0], RegClass::CR, "def");
      break;
    case Opcode::FC:
      expectCounts(Label, I, 1, 2);
      expectClass(Label, I, I.defs()[0], RegClass::CR, "def");
      for (Reg R : I.uses())
        expectClass(Label, I, R, RegClass::FPR, "use");
      break;
    case Opcode::B:
      expectCounts(Label, I, 0, 0);
      checkTarget(Label, I);
      break;
    case Opcode::BT:
    case Opcode::BF:
      expectCounts(Label, I, 0, 1);
      if (!I.uses().empty())
        expectClass(Label, I, I.uses()[0], RegClass::CR, "cond");
      checkTarget(Label, I);
      break;
    case Opcode::CALL:
      if (I.callee().empty())
        problem(formatString("%s: CALL without callee name", Label.c_str()));
      break;
    case Opcode::RET:
      if (I.uses().size() > 1)
        problem(formatString("%s: RET with more than one value",
                             Label.c_str()));
      break;
    case Opcode::SPILL:
      expectCounts(Label, I, 0, 1);
      if (!I.uses().empty())
        expectClass(Label, I, I.uses()[0], RegClass::GPR, "value");
      break;
    case Opcode::RELOAD:
      expectCounts(Label, I, 1, 0);
      if (!I.defs().empty())
        expectClass(Label, I, I.defs()[0], RegClass::GPR, "def");
      break;
    case Opcode::SPILLF:
      expectCounts(Label, I, 0, 1);
      if (!I.uses().empty())
        expectClass(Label, I, I.uses()[0], RegClass::FPR, "value");
      break;
    case Opcode::RELOADF:
      expectCounts(Label, I, 1, 0);
      if (!I.defs().empty())
        expectClass(Label, I, I.defs()[0], RegClass::FPR, "def");
      break;
    case Opcode::NOP:
      expectCounts(Label, I, 0, 0);
      break;
    }
  }

  static constexpr size_t NotInLayout = ~size_t(0);

  const Function &F;
  std::vector<std::string> Problems;
  std::vector<size_t> FirstPos; ///< per block, set by checkLayout()
};

} // namespace

std::vector<std::string> gis::verifyFunction(const Function &F) {
  return FunctionVerifier(F).run();
}

std::vector<std::string> gis::verifyModule(const Module &M) {
  std::vector<std::string> All;
  for (const auto &F : M.functions()) {
    std::vector<std::string> Problems = verifyFunction(*F);
    All.insert(All.end(), Problems.begin(), Problems.end());
  }
  return All;
}
