//===- opt/StrengthReduce.cpp - Strength reduction -------------------------===//

#include "opt/StrengthReduce.h"

#include <optional>
#include <unordered_map>

using namespace gis;
using namespace gis::opt;

namespace {

using ConstMap = std::unordered_map<uint32_t, int64_t>;

std::optional<int64_t> lookup(const ConstMap &Consts, Reg R) {
  auto It = Consts.find(R.key());
  return It == Consts.end() ? std::nullopt
                            : std::optional<int64_t>(It->second);
}

/// log2 of \p V when it is a power of two in [2, 2^62]; nullopt otherwise.
std::optional<unsigned> exactLog2(int64_t V) {
  if (V < 2 || (V & (V - 1)) != 0)
    return std::nullopt;
  unsigned K = 0;
  while ((int64_t(1) << K) != V)
    ++K;
  return K;
}

void rewriteToLI(Instruction &I, int64_t Value) {
  I.setOpcode(Opcode::LI);
  I.uses().clear();
  I.setImm(Value);
}

void rewriteToLR(Instruction &I, Reg Src) {
  I.setOpcode(Opcode::LR);
  I.uses() = {Src};
  I.setImm(0);
}

/// One multiply rewritten as "rd = (x << K) op x" through a fresh
/// register: emits the SL right before \p Pos in \p B and turns the MUL
/// at \p Pos into the A/S.  Returns the number of list slots the block
/// grew by (always 1), so the caller can fix its iteration index.
void expandShiftOp(Function &F, BlockId B, size_t Pos, Reg X, unsigned K,
                   Opcode Combine) {
  Reg Tmp = F.newReg(RegClass::GPR);
  Instruction Shift(Opcode::SL);
  Shift.defs().push_back(Tmp);
  Shift.uses().push_back(X);
  Shift.setImm(static_cast<int64_t>(K));
  InstrId ShiftId = F.appendInstr(B, std::move(Shift));

  // appendInstr put the shift at the end of the block; move it in front
  // of the multiply being rewritten.
  std::vector<InstrId> &List = F.block(B).instrs();
  List.pop_back();
  List.insert(List.begin() + static_cast<ptrdiff_t>(Pos), ShiftId);

  Instruction &Mul = F.instr(List[Pos + 1]);
  Mul.setOpcode(Combine); // rd = Tmp +/- X
  Mul.uses().assign({Tmp, X});
  Mul.setImm(0);
}

} // namespace

unsigned gis::opt::runStrengthReduce(Function &F,
                                     const MachineDescription &MD) {
  const unsigned MulTime = MD.execTime(Opcode::MUL);
  const unsigned ShiftTime = MD.execTime(Opcode::SL);
  const unsigned AddTime = MD.execTime(Opcode::A);

  unsigned Reduced = 0;
  for (BlockId B : F.layout()) {
    ConstMap Consts;
    for (size_t Pos = 0; Pos != F.block(B).size(); ++Pos) {
      InstrId Id = F.block(B).instrs()[Pos];
      {
        Instruction &I = F.instr(Id);
        Opcode Op = I.opcode();

        if (Op == Opcode::MUL) {
          Reg Ra = I.uses()[0], Rb = I.uses()[1];
          std::optional<int64_t> C = lookup(Consts, Rb);
          Reg X = Ra;
          if (!C) {
            C = lookup(Consts, Ra);
            X = Rb;
          }
          if (C) {
            if (*C == 0) {
              rewriteToLI(I, 0);
              ++Reduced;
            } else if (*C == 1) {
              rewriteToLR(I, X);
              ++Reduced;
            } else if (*C == -1) {
              I.setOpcode(Opcode::NEG);
              I.uses() = {X};
              I.setImm(0);
              ++Reduced;
            } else if (auto K = exactLog2(*C);
                       K && ShiftTime < MulTime) {
              I.setOpcode(Opcode::SL);
              I.uses() = {X};
              I.setImm(static_cast<int64_t>(*K));
              ++Reduced;
            } else if (auto KP = exactLog2(static_cast<int64_t>(
                           static_cast<uint64_t>(*C) - 1));
                       KP && ShiftTime + AddTime < MulTime) {
              expandShiftOp(F, B, Pos, X, *KP, Opcode::A); // (x<<k) + x
              ++Reduced;
              ++Pos; // skip over the inserted shift
            } else if (auto KM = exactLog2(static_cast<int64_t>(
                           static_cast<uint64_t>(*C) + 1));
                       KM && ShiftTime + AddTime < MulTime) {
              expandShiftOp(F, B, Pos, X, *KM, Opcode::S); // (x<<k) - x
              ++Reduced;
              ++Pos;
            }
          }
        } else if (Op == Opcode::DIV) {
          if (auto C = lookup(Consts, I.uses()[1]); C && *C == 1) {
            rewriteToLR(I, I.uses()[0]);
            ++Reduced;
          }
        } else if (Op == Opcode::REM) {
          if (auto C = lookup(Consts, I.uses()[1]); C && *C == 1) {
            rewriteToLI(I, 0);
            ++Reduced;
          }
        }
      }

      // Re-fetch: expandShiftOp may have moved the rewritten instruction.
      Instruction &Done = F.instr(F.block(B).instrs()[Pos]);
      for (Reg D : Done.defs())
        Consts.erase(D.key());
      if (Done.opcode() == Opcode::LI)
        Consts[Done.defs()[0].key()] = Done.imm();
    }
  }
  return Reduced;
}
