//===- ir/Printer.cpp - Textual IR printing -------------------------------===//

#include "ir/Printer.h"

#include "support/Format.h"

#include <ostream>
#include <span>

using namespace gis;

namespace {

/// Column at which an instruction's "; comment" starts.
constexpr size_t CommentColumn = 36;

/// "NAME rD = "
void appendDefHead(std::string &Out, std::string_view Name, Reg D) {
  Out += Name;
  Out += ' ';
  appendReg(Out, D);
  Out += " = ";
}

/// "mem[rB + d]", or "mem[rB - |d|]" for a negative displacement.  The
/// magnitude is taken in uint64_t, so INT64_MIN prints without overflow.
void appendMemRef(std::string &Out, const Instruction &I) {
  Out += "mem[";
  appendReg(Out, I.memBase());
  int64_t Disp = I.imm();
  if (Disp >= 0) {
    Out += " + ";
    appendUInt(Out, static_cast<uint64_t>(Disp));
  } else {
    Out += " - ";
    appendUInt(Out, 0 - static_cast<uint64_t>(Disp));
  }
  Out += ']';
}

void appendRegList(std::string &Out, std::span<const Reg> Regs) {
  for (size_t I = 0, E = Regs.size(); I != E; ++I) {
    if (I)
      Out += ", ";
    appendReg(Out, Regs[I]);
  }
}

void appendLabel(std::string &Out, const Function &F, BlockId Target) {
  GIS_ASSERT(Target != InvalidId, "branch without target");
  Out += F.block(Target).label();
}

/// A generous estimate of a function's printed size, so printing it into
/// a fresh string reallocates rarely.
size_t estimatedSize(const Function &F) {
  return 64 + F.name().size() + 16 * size_t(F.numBlocks()) +
         24 * size_t(F.numInstrs());
}

} // namespace

void gis::appendInstruction(std::string &Out, const Function &F,
                            InstrId Id) {
  const Instruction &I = F.instr(Id);
  const size_t Start = Out.size();
  std::string_view Name = opcodeName(I.opcode());

  switch (I.opcode()) {
  case Opcode::LI:
    appendDefHead(Out, Name, I.defs()[0]);
    appendInt(Out, I.imm());
    break;
  case Opcode::LR:
  case Opcode::NEG:
    appendDefHead(Out, Name, I.defs()[0]);
    appendReg(Out, I.uses()[0]);
    break;
  case Opcode::AI:
  case Opcode::SL:
  case Opcode::SR:
  case Opcode::CI:
    appendDefHead(Out, Name, I.defs()[0]);
    appendReg(Out, I.uses()[0]);
    Out += ", ";
    appendInt(Out, I.imm());
    break;
  case Opcode::A:
  case Opcode::S:
  case Opcode::MUL:
  case Opcode::DIV:
  case Opcode::REM:
  case Opcode::AND:
  case Opcode::OR:
  case Opcode::XOR:
  case Opcode::FA:
  case Opcode::FS:
  case Opcode::FM:
  case Opcode::FD:
  case Opcode::FMA:
  case Opcode::C:
  case Opcode::FC:
    appendDefHead(Out, Name, I.defs()[0]);
    appendRegList(Out, I.uses());
    break;
  case Opcode::L:
  case Opcode::LF:
    appendDefHead(Out, Name, I.defs()[0]);
    appendMemRef(Out, I);
    break;
  case Opcode::LU:
    Out += Name;
    Out += ' ';
    appendReg(Out, I.defs()[0]);
    Out += ", ";
    appendReg(Out, I.defs()[1]);
    Out += " = ";
    appendMemRef(Out, I);
    break;
  case Opcode::ST:
  case Opcode::STF:
  case Opcode::STU:
    Out += Name;
    Out += ' ';
    appendMemRef(Out, I);
    Out += " = ";
    appendReg(Out, I.uses()[0]);
    break;
  case Opcode::B:
    Out += Name;
    Out += ' ';
    appendLabel(Out, F, I.target());
    break;
  case Opcode::BT:
  case Opcode::BF:
    Out += Name;
    Out += ' ';
    appendLabel(Out, F, I.target());
    Out += ", ";
    appendReg(Out, I.uses()[0]);
    Out += ", ";
    Out += condBitName(I.cond());
    break;
  case Opcode::CALL:
    if (I.defs().empty())
      Out += "CALL ";
    else
      appendDefHead(Out, Name, I.defs()[0]);
    Out += I.callee();
    Out += '(';
    appendRegList(Out, I.uses());
    Out += ')';
    break;
  case Opcode::RET:
    Out += Name;
    if (!I.uses().empty()) {
      Out += ' ';
      appendReg(Out, I.uses()[0]);
    }
    break;
  case Opcode::SPILL:
  case Opcode::SPILLF:
    Out += Name;
    Out += " slot[";
    appendInt(Out, I.imm());
    Out += "] = ";
    appendReg(Out, I.uses()[0]);
    break;
  case Opcode::RELOAD:
  case Opcode::RELOADF:
    appendDefHead(Out, Name, I.defs()[0]);
    Out += "slot[";
    appendInt(Out, I.imm());
    Out += ']';
    break;
  case Opcode::NOP:
    Out += Name;
    break;
  }

  if (!I.comment().empty()) {
    size_t Len = Out.size() - Start;
    if (Len < CommentColumn)
      Out.append(CommentColumn - Len, ' ');
    Out += "; ";
    Out += I.comment();
  }
}

void gis::appendFunction(std::string &Out, const Function &F) {
  Out += "func ";
  Out += F.name();
  if (!F.params().empty()) {
    Out += '(';
    appendRegList(Out, F.params());
    Out += ')';
  }
  Out += " {\n";
  for (BlockId B : F.layout()) {
    const BasicBlock &BB = F.block(B);
    Out += BB.label();
    Out += ":\n";
    for (InstrId I : BB.instrs()) {
      Out += "  ";
      appendInstruction(Out, F, I);
      Out += '\n';
    }
  }
  Out += "}\n";
}

void gis::appendModule(std::string &Out, const Module &M) {
  for (const GlobalArray &G : M.globals()) {
    Out += "global ";
    Out += G.Name;
    Out += '[';
    appendInt(Out, G.SizeWords);
    Out += "]\n";
  }
  if (!M.globals().empty())
    Out += '\n';
  bool First = true;
  for (const auto &F : M.functions()) {
    if (!First)
      Out += '\n';
    First = false;
    appendFunction(Out, *F);
  }
}

std::string gis::instructionToString(const Function &F, InstrId Id) {
  std::string Out;
  appendInstruction(Out, F, Id);
  return Out;
}

std::string gis::functionToString(const Function &F) {
  std::string Out;
  Out.reserve(estimatedSize(F));
  appendFunction(Out, F);
  return Out;
}

std::string gis::moduleToString(const Module &M) {
  size_t Size = 16 * M.globals().size();
  for (const auto &F : M.functions())
    Size += estimatedSize(*F);
  std::string Out;
  Out.reserve(Size);
  appendModule(Out, M);
  return Out;
}

void gis::printFunction(const Function &F, std::ostream &OS) {
  OS << functionToString(F);
}

void gis::printModule(const Module &M, std::ostream &OS) {
  OS << moduleToString(M);
}
