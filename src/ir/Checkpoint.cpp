//===- ir/Checkpoint.cpp - Function checkpoint/restore ---------------------===//

#include "ir/Checkpoint.h"

#include "support/Assert.h"
#include "support/Hashing.h"

#include <iterator>

using namespace gis;

RegionSnapshot::RegionSnapshot(const Function &F, std::vector<BlockId> Bs)
    : Blocks(std::move(Bs)) {
  BlockInstrs.reserve(Blocks.size());
  for (BlockId B : Blocks) {
    BlockInstrs.push_back(F.block(B).instrs());
    for (InstrId Id : BlockInstrs.back())
      Instrs.emplace_back(Id, F.instr(Id));
  }
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    RegCounts[static_cast<unsigned>(C)] = F.numRegs(C);
}

void RegionSnapshot::restore(Function &F) const {
  for (unsigned K = 0; K != Blocks.size(); ++K)
    F.block(Blocks[K]).instrs() = BlockInstrs[K];
  for (const auto &[Id, Ins] : Instrs)
    F.instr(Id) = Ins;
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    F.setRegCount(C, RegCounts[static_cast<unsigned>(C)]);
}

DeltaCheckpoint::DeltaCheckpoint(const Function &F, bool Armed)
    : Src(&F), Armed(Armed) {
  if (!Armed)
    return;
  NumBlocks = F.numBlocks();
  NumInstrs = F.numInstrs();
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    RegCounts[static_cast<unsigned>(C)] = F.numRegs(C);
  BlockNoted.assign(NumBlocks, 0);
  InstrNoted.assign(NumInstrs, 0);
  Manifest = manifestOf(F);
}

void DeltaCheckpoint::noteBlock(BlockId B) {
  if (!Armed || BlockNoted[B])
    return;
  BlockNoted[B] = 1;
  SavedBlocks.emplace_back(B, Src->block(B).instrs());
}

void DeltaCheckpoint::noteInstr(InstrId I) {
  if (!Armed || InstrNoted[I])
    return;
  InstrNoted[I] = 1;
  SavedInstrs.emplace_back(I, Src->instr(I));
}

void DeltaCheckpoint::noteAllBlocks() {
  if (!Armed)
    return;
  for (BlockId B = 0; B != NumBlocks; ++B)
    noteBlock(B);
}

bool DeltaCheckpoint::dropOneRecordForTest() {
  for (auto It = SavedBlocks.rbegin(); It != SavedBlocks.rend(); ++It)
    if (It->second != Src->block(It->first).instrs()) {
      SavedBlocks.erase(std::next(It).base());
      return true; // BlockNoted stays set: the loss must not self-repair
    }
  for (auto It = SavedInstrs.rbegin(); It != SavedInstrs.rend(); ++It) {
    const Instruction &Cur = Src->instr(It->first);
    const Instruction &Saved = It->second;
    bool Same = Saved.opcode() == Cur.opcode() && Saved.defs() == Cur.defs() &&
                Saved.uses() == Cur.uses() && Saved.imm() == Cur.imm();
    if (!Same) {
      SavedInstrs.erase(std::next(It).base());
      return true;
    }
  }
  return false;
}

bool DeltaCheckpoint::restore(Function &F) const {
  GIS_ASSERT(Armed, "restore of an unarmed delta checkpoint");
  if (F.numBlocks() != NumBlocks || F.numInstrs() != NumInstrs)
    return false; // a transform grew the function: deltas cannot cover it
  for (const auto &[B, List] : SavedBlocks)
    F.block(B).instrs() = List;
  for (const auto &[Id, Ins] : SavedInstrs)
    F.instr(Id) = Ins;
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    F.setRegCount(C, RegCounts[static_cast<unsigned>(C)]);
  return manifestOf(F) == Manifest;
}

uint64_t DeltaCheckpoint::bytesSaved() const {
  uint64_t Bytes = 0;
  for (const auto &[B, List] : SavedBlocks) {
    (void)B;
    Bytes += List.size() * sizeof(InstrId) + sizeof(List);
  }
  for (const auto &[Id, Ins] : SavedInstrs) {
    (void)Id;
    Bytes += sizeof(Instruction) +
             (Ins.defs().size() + Ins.uses().size()) * sizeof(Reg) +
             Ins.callee().size();
  }
  return Bytes;
}

uint64_t DeltaCheckpoint::manifestOf(const Function &F) {
  HashBuilder H;
  H.addString(F.name());
  for (Reg P : F.params())
    H.addU32(P.key());
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    H.addU32(F.numRegs(C));
  H.addU32(F.numBlocks());
  H.addU32(F.numInstrs());
  for (BlockId B : F.layout())
    H.addU32(B);
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    H.addString(F.block(B).label());
    const std::vector<InstrId> &List = F.block(B).instrs();
    H.addU64(List.size());
    for (InstrId I : List)
      H.addU32(I);
  }
  for (InstrId I = 0; I != F.numInstrs(); ++I) {
    const Instruction &Ins = F.instr(I);
    H.addByte(static_cast<uint8_t>(Ins.opcode()));
    H.addU64(Ins.defs().size());
    for (Reg D : Ins.defs())
      H.addU32(D.key());
    H.addU64(Ins.uses().size());
    for (Reg U : Ins.uses())
      H.addU32(U.key());
    H.addU64(static_cast<uint64_t>(Ins.imm()));
    H.addByte(static_cast<uint8_t>(Ins.cond()));
    H.addU32(Ins.target());
    H.addString(Ins.callee());
    H.addU32(Ins.originalOrder());
  }
  return H.hash();
}

static bool instructionsIdentical(const Instruction &A, const Instruction &B) {
  return A.opcode() == B.opcode() && A.defs() == B.defs() &&
         A.uses() == B.uses() && A.imm() == B.imm() && A.cond() == B.cond() &&
         A.target() == B.target() && A.callee() == B.callee() &&
         A.originalOrder() == B.originalOrder();
}

bool gis::functionsIdentical(const Function &A, const Function &B) {
  if (A.name() != B.name() || A.params() != B.params())
    return false;
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    if (A.numRegs(C) != B.numRegs(C))
      return false;
  if (A.numBlocks() != B.numBlocks() || A.numInstrs() != B.numInstrs() ||
      A.layout() != B.layout())
    return false;
  for (BlockId Blk = 0; Blk != A.numBlocks(); ++Blk) {
    if (A.block(Blk).label() != B.block(Blk).label() ||
        A.block(Blk).instrs() != B.block(Blk).instrs())
      return false;
  }
  for (InstrId I = 0; I != A.numInstrs(); ++I)
    if (!instructionsIdentical(A.instr(I), B.instr(I)))
      return false;
  return true;
}
