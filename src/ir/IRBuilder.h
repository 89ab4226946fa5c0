//===- ir/IRBuilder.h - Instruction construction helper ---------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience builder for emitting instructions into a Function.  Used by
/// the mini-C code generator, the workload generators and tests.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_IR_IRBUILDER_H
#define GIS_IR_IRBUILDER_H

#include "ir/Function.h"

namespace gis {

/// Appends instructions to a designated insertion block of one Function.
class IRBuilder {
public:
  explicit IRBuilder(Function &F) : F(F) {}

  Function &function() { return F; }

  void setInsertBlock(BlockId B) { Insert = B; }
  BlockId insertBlock() const { return Insert; }

  /// Allocates a fresh GPR.
  Reg newGPR() { return F.newReg(RegClass::GPR); }
  /// Allocates a fresh FPR.
  Reg newFPR() { return F.newReg(RegClass::FPR); }
  /// Allocates a fresh condition register.
  Reg newCR() { return F.newReg(RegClass::CR); }

  //===--------------------------------------------------------------------===
  // Fixed point
  //===--------------------------------------------------------------------===

  InstrId li(Reg Rd, int64_t Imm) {
    Instruction I(Opcode::LI);
    I.defs() = {Rd};
    I.setImm(Imm);
    return emit(std::move(I));
  }

  InstrId lr(Reg Rd, Reg Rs) {
    Instruction I(Opcode::LR);
    I.defs() = {Rd};
    I.uses() = {Rs};
    return emit(std::move(I));
  }

  InstrId ai(Reg Rd, Reg Rs, int64_t Imm) {
    Instruction I(Opcode::AI);
    I.defs() = {Rd};
    I.uses() = {Rs};
    I.setImm(Imm);
    return emit(std::move(I));
  }

  InstrId binop(Opcode Op, Reg Rd, Reg Ra, Reg Rb) {
    Instruction I(Op);
    I.defs() = {Rd};
    I.uses() = {Ra, Rb};
    return emit(std::move(I));
  }

  InstrId add(Reg Rd, Reg Ra, Reg Rb) { return binop(Opcode::A, Rd, Ra, Rb); }
  InstrId sub(Reg Rd, Reg Ra, Reg Rb) { return binop(Opcode::S, Rd, Ra, Rb); }
  InstrId mul(Reg Rd, Reg Ra, Reg Rb) {
    return binop(Opcode::MUL, Rd, Ra, Rb);
  }
  InstrId sdiv(Reg Rd, Reg Ra, Reg Rb) {
    return binop(Opcode::DIV, Rd, Ra, Rb);
  }
  InstrId srem(Reg Rd, Reg Ra, Reg Rb) {
    return binop(Opcode::REM, Rd, Ra, Rb);
  }
  InstrId and_(Reg Rd, Reg Ra, Reg Rb) {
    return binop(Opcode::AND, Rd, Ra, Rb);
  }
  InstrId or_(Reg Rd, Reg Ra, Reg Rb) { return binop(Opcode::OR, Rd, Ra, Rb); }
  InstrId xor_(Reg Rd, Reg Ra, Reg Rb) {
    return binop(Opcode::XOR, Rd, Ra, Rb);
  }

  InstrId shl(Reg Rd, Reg Ra, int64_t Amount) {
    Instruction I(Opcode::SL);
    I.defs() = {Rd};
    I.uses() = {Ra};
    I.setImm(Amount);
    return emit(std::move(I));
  }

  InstrId shr(Reg Rd, Reg Ra, int64_t Amount) {
    Instruction I(Opcode::SR);
    I.defs() = {Rd};
    I.uses() = {Ra};
    I.setImm(Amount);
    return emit(std::move(I));
  }

  InstrId neg(Reg Rd, Reg Ra) {
    Instruction I(Opcode::NEG);
    I.defs() = {Rd};
    I.uses() = {Ra};
    return emit(std::move(I));
  }

  //===--------------------------------------------------------------------===
  // Memory
  //===--------------------------------------------------------------------===

  InstrId load(Reg Rd, Reg Base, int64_t Disp) {
    Instruction I(Opcode::L);
    I.defs() = {Rd};
    I.uses() = {Base};
    I.setImm(Disp);
    return emit(std::move(I));
  }

  /// Load with update: Rd = mem[Base + Disp]; Base += Disp.
  InstrId loadUpdate(Reg Rd, Reg Base, int64_t Disp) {
    Instruction I(Opcode::LU);
    I.defs() = {Rd, Base};
    I.uses() = {Base};
    I.setImm(Disp);
    return emit(std::move(I));
  }

  InstrId store(Reg Value, Reg Base, int64_t Disp) {
    Instruction I(Opcode::ST);
    I.uses() = {Value, Base};
    I.setImm(Disp);
    return emit(std::move(I));
  }

  /// Store with update: mem[Base + Disp] = Value; Base += Disp.
  InstrId storeUpdate(Reg Value, Reg Base, int64_t Disp) {
    Instruction I(Opcode::STU);
    I.defs() = {Base};
    I.uses() = {Value, Base};
    I.setImm(Disp);
    return emit(std::move(I));
  }

  InstrId loadF(Reg Fd, Reg Base, int64_t Disp) {
    Instruction I(Opcode::LF);
    I.defs() = {Fd};
    I.uses() = {Base};
    I.setImm(Disp);
    return emit(std::move(I));
  }

  InstrId storeF(Reg Fs, Reg Base, int64_t Disp) {
    Instruction I(Opcode::STF);
    I.uses() = {Fs, Base};
    I.setImm(Disp);
    return emit(std::move(I));
  }

  //===--------------------------------------------------------------------===
  // Floating point arithmetic
  //===--------------------------------------------------------------------===

  InstrId fadd(Reg Fd, Reg Fa, Reg Fb) { return binop(Opcode::FA, Fd, Fa, Fb); }
  InstrId fsub(Reg Fd, Reg Fa, Reg Fb) { return binop(Opcode::FS, Fd, Fa, Fb); }
  InstrId fmul(Reg Fd, Reg Fa, Reg Fb) { return binop(Opcode::FM, Fd, Fa, Fb); }
  InstrId fdiv(Reg Fd, Reg Fa, Reg Fb) { return binop(Opcode::FD, Fd, Fa, Fb); }

  InstrId fma(Reg Fd, Reg Fa, Reg Fb, Reg Fc) {
    Instruction I(Opcode::FMA);
    I.defs() = {Fd};
    I.uses() = {Fa, Fb, Fc};
    return emit(std::move(I));
  }

  //===--------------------------------------------------------------------===
  // Compares and control flow
  //===--------------------------------------------------------------------===

  InstrId cmp(Reg Crd, Reg Ra, Reg Rb) {
    Instruction I(Opcode::C);
    I.defs() = {Crd};
    I.uses() = {Ra, Rb};
    return emit(std::move(I));
  }

  InstrId cmpi(Reg Crd, Reg Ra, int64_t Imm) {
    Instruction I(Opcode::CI);
    I.defs() = {Crd};
    I.uses() = {Ra};
    I.setImm(Imm);
    return emit(std::move(I));
  }

  InstrId fcmp(Reg Crd, Reg Fa, Reg Fb) {
    Instruction I(Opcode::FC);
    I.defs() = {Crd};
    I.uses() = {Fa, Fb};
    return emit(std::move(I));
  }

  InstrId br(BlockId Target) {
    Instruction I(Opcode::B);
    I.setTarget(Target);
    return emit(std::move(I));
  }

  InstrId bt(Reg Crs, CondBit Bit, BlockId Target) {
    Instruction I(Opcode::BT);
    I.uses() = {Crs};
    I.setCond(Bit);
    I.setTarget(Target);
    return emit(std::move(I));
  }

  InstrId bf(Reg Crs, CondBit Bit, BlockId Target) {
    Instruction I(Opcode::BF);
    I.uses() = {Crs};
    I.setCond(Bit);
    I.setTarget(Target);
    return emit(std::move(I));
  }

  InstrId call(std::string Callee, UseList Args, Reg Result = Reg()) {
    Instruction I(Opcode::CALL);
    I.setCallee(std::move(Callee));
    I.uses() = std::move(Args);
    if (Result.isValid())
      I.defs() = {Result};
    return emit(std::move(I));
  }

  InstrId ret() { return emit(Instruction(Opcode::RET)); }

  InstrId ret(Reg Value) {
    Instruction I(Opcode::RET);
    I.uses() = {Value};
    return emit(std::move(I));
  }

  InstrId nop() { return emit(Instruction(Opcode::NOP)); }

  /// Attaches a comment to the most recently emitted instruction.
  IRBuilder &comment(std::string C) {
    GIS_ASSERT(LastEmitted != InvalidId, "no instruction to annotate");
    F.instr(LastEmitted).setComment(std::move(C));
    return *this;
  }

  InstrId last() const { return LastEmitted; }

private:
  InstrId emit(Instruction &&I) {
    GIS_ASSERT(Insert != InvalidId, "no insertion block set");
    LastEmitted = F.appendInstr(Insert, std::move(I));
    return LastEmitted;
  }

  Function &F;
  BlockId Insert = InvalidId;
  InstrId LastEmitted = InvalidId;
};

} // namespace gis

#endif // GIS_IR_IRBUILDER_H
