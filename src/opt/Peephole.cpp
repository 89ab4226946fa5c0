//===- opt/Peephole.cpp - Algebraic peephole pass --------------------------===//

#include "opt/Peephole.h"

#include <optional>
#include <unordered_map>

using namespace gis;
using namespace gis::opt;

namespace {

/// Block-local constant environment: register -> known LI value.  Any
/// other def of a register evicts its entry.
using ConstMap = std::unordered_map<uint32_t, int64_t>;

std::optional<int64_t> lookup(const ConstMap &Consts, Reg R) {
  auto It = Consts.find(R.key());
  if (It == Consts.end())
    return std::nullopt;
  return It->second;
}

/// Folds a two-operand fixed-point ALU op in wrapping two's-complement
/// arithmetic (the interpreter's semantics).  DIV/REM excluded (traps).
std::optional<int64_t> foldBinary(Opcode Op, int64_t A, int64_t B) {
  uint64_t UA = static_cast<uint64_t>(A), UB = static_cast<uint64_t>(B);
  switch (Op) {
  case Opcode::A:
    return static_cast<int64_t>(UA + UB);
  case Opcode::S:
    return static_cast<int64_t>(UA - UB);
  case Opcode::MUL:
    return static_cast<int64_t>(UA * UB);
  case Opcode::AND:
    return static_cast<int64_t>(UA & UB);
  case Opcode::OR:
    return static_cast<int64_t>(UA | UB);
  case Opcode::XOR:
    return static_cast<int64_t>(UA ^ UB);
  default:
    return std::nullopt;
  }
}

/// Folds a one-operand-plus-immediate op, mirroring the interpreter: SL is
/// a logical shift of the 64-bit pattern, SR an arithmetic shift, both
/// with the amount masked to 6 bits.
std::optional<int64_t> foldUnary(Opcode Op, int64_t V, int64_t Imm) {
  switch (Op) {
  case Opcode::LR:
    return V;
  case Opcode::NEG:
    return static_cast<int64_t>(0 - static_cast<uint64_t>(V));
  case Opcode::AI:
    return static_cast<int64_t>(static_cast<uint64_t>(V) +
                                static_cast<uint64_t>(Imm));
  case Opcode::SL:
    return static_cast<int64_t>(static_cast<uint64_t>(V) << (Imm & 63));
  case Opcode::SR:
    return V >> (Imm & 63);
  default:
    return std::nullopt;
  }
}

/// Rewrites \p I into "rd = LI value", keeping its single def.
void rewriteToLI(Instruction &I, int64_t Value) {
  I.setOpcode(Opcode::LI);
  I.uses().clear();
  I.setImm(Value);
}

/// Rewrites \p I into "rd = LR src", keeping its single def.
void rewriteToLR(Instruction &I, Reg Src) {
  I.setOpcode(Opcode::LR);
  I.uses() = {Src};
  I.setImm(0);
}

/// Applies one peephole rewrite to \p I if any matches; returns true when
/// the instruction changed.  \p Consts is the environment *before* I.
bool rewriteInstr(Instruction &I, const ConstMap &Consts) {
  Opcode Op = I.opcode();
  switch (Op) {
  case Opcode::LR:
  case Opcode::NEG:
    if (auto V = lookup(Consts, I.uses()[0]))
      if (auto R = foldUnary(Op, *V, 0)) {
        rewriteToLI(I, *R);
        return true;
      }
    return false;

  case Opcode::AI:
  case Opcode::SL:
  case Opcode::SR: {
    if (auto V = lookup(Consts, I.uses()[0]))
      if (auto R = foldUnary(Op, *V, I.imm())) {
        rewriteToLI(I, *R);
        return true;
      }
    bool Identity = Op == Opcode::AI ? I.imm() == 0 : (I.imm() & 63) == 0;
    if (Identity) {
      rewriteToLR(I, I.uses()[0]);
      return true;
    }
    return false;
  }

  case Opcode::A:
  case Opcode::S:
  case Opcode::MUL:
  case Opcode::AND:
  case Opcode::OR:
  case Opcode::XOR: {
    Reg Ra = I.uses()[0], Rb = I.uses()[1];
    std::optional<int64_t> Va = lookup(Consts, Ra);
    std::optional<int64_t> Vb = lookup(Consts, Rb);
    if (Va && Vb) {
      if (auto R = foldBinary(Op, *Va, *Vb)) {
        rewriteToLI(I, *R);
        return true;
      }
      return false;
    }
    if (Ra == Rb) {
      if (Op == Opcode::S || Op == Opcode::XOR) {
        rewriteToLI(I, 0); // x - x == x ^ x == 0
        return true;
      }
      if (Op == Opcode::AND || Op == Opcode::OR) {
        rewriteToLR(I, Ra); // x & x == x | x == x
        return true;
      }
    }
    if (Op == Opcode::A) {
      if (Va && *Va == 0) {
        rewriteToLR(I, Rb);
        return true;
      }
      if (Vb && *Vb == 0) {
        rewriteToLR(I, Ra);
        return true;
      }
    }
    if (Op == Opcode::S && Vb && *Vb == 0) {
      rewriteToLR(I, Ra);
      return true;
    }
    if ((Op == Opcode::OR || Op == Opcode::XOR) && Vb && *Vb == 0) {
      rewriteToLR(I, Ra);
      return true;
    }
    if ((Op == Opcode::OR || Op == Opcode::XOR) && Va && *Va == 0) {
      rewriteToLR(I, Rb);
      return true;
    }
    return false;
  }

  case Opcode::C:
    // Compare against a known constant becomes an immediate compare; the
    // interpreter routes both through the same comparison, so this is
    // exact for any 64-bit constant.
    if (auto Vb = lookup(Consts, I.uses()[1])) {
      I.setOpcode(Opcode::CI);
      I.uses().erase(I.uses().begin() + 1, I.uses().end());
      I.setImm(*Vb);
      return true;
    }
    return false;

  default:
    return false;
  }
}

} // namespace

unsigned gis::opt::runPeephole(Function &F) {
  unsigned Rewrites = 0;
  for (BlockId B : F.layout()) {
    ConstMap Consts;
    std::vector<InstrId> Kept;
    Kept.reserve(F.block(B).size());
    for (InstrId Id : F.block(B).instrs()) {
      Instruction &I = F.instr(Id);
      if (rewriteInstr(I, Consts))
        ++Rewrites;

      // Self-moves are dead once rewritten in place.
      if (I.opcode() == Opcode::LR && I.uses()[0] == I.defs()[0]) {
        ++Rewrites;
        continue;
      }

      // Update the environment after the instruction's defs take effect.
      for (Reg D : I.defs())
        Consts.erase(D.key());
      if (I.opcode() == Opcode::LI)
        Consts[I.defs()[0].key()] = I.imm();
      Kept.push_back(Id);
    }
    F.block(B).instrs() = std::move(Kept);
  }
  return Rewrites;
}
