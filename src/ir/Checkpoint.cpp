//===- ir/Checkpoint.cpp - Function checkpoint/restore ---------------------===//

#include "ir/Checkpoint.h"

#include "support/Assert.h"
#include "support/Hashing.h"

#include <algorithm>
#include <iterator>

using namespace gis;

namespace {

/// Feeds every field functionsIdentical compares of \p I.
void fingerprintInstr(Fingerprint &H, const Instruction &I) {
  const DefList &Defs = I.defs();
  const UseList &Uses = I.uses();
  H.add(static_cast<uint64_t>(I.opcode()) |
        static_cast<uint64_t>(I.cond()) << 8 |
        static_cast<uint64_t>(Defs.size()) << 16 |
        static_cast<uint64_t>(Uses.size()) << 40);
  for (Reg D : Defs)
    H.add(D.key());
  for (Reg U : Uses)
    H.add(U.key());
  H.add(static_cast<uint64_t>(I.imm()));
  H.add(I.target(), I.originalOrder());
  H.addString(I.callee());
}

} // namespace

RegionSnapshot::RegionSnapshot(const Function &F, std::vector<BlockId> Bs)
    : Blocks(std::move(Bs)), Src(&F) {
  BlockInstrs.reserve(Blocks.size());
  for (BlockId B : Blocks)
    BlockInstrs.push_back(F.block(B).instrs());
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    RegCounts[static_cast<unsigned>(C)] = F.numRegs(C);
  Manifest = viewFingerprint(F); // nothing noted yet: the view is F
}

void RegionSnapshot::noteInstr(InstrId I) {
  if (NoteSlot.empty())
    NoteSlot.assign(Src->numInstrs(), 0);
  if (NoteSlot[I])
    return;
  Instrs.emplace_back(I, Src->instr(I));
  NoteSlot[I] = static_cast<uint32_t>(Instrs.size());
}

uint64_t RegionSnapshot::viewFingerprint(const Function &F) const {
  auto EntryOf = [&](InstrId Id) -> const Instruction & {
    uint32_t Slot = Id < NoteSlot.size() ? NoteSlot[Id] : 0;
    if (Slot && Slot != LostNote)
      return Instrs[Slot - 1].second;
    return F.instr(Id);
  };
  Fingerprint H;
  for (const std::vector<InstrId> &List : BlockInstrs) {
    H.addU32s(List.data(), List.size());
    for (InstrId Id : List)
      fingerprintInstr(H, EntryOf(Id));
  }
  return H.hash();
}

bool RegionSnapshot::viewMatchesManifest(const Function &F) const {
  return viewFingerprint(F) == Manifest;
}

void RegionSnapshot::restore(Function &F) const {
  for (unsigned K = 0; K != Blocks.size(); ++K)
    F.block(Blocks[K]).instrs() = BlockInstrs[K];
  for (const auto &[Id, Ins] : Instrs)
    F.instr(Id) = Ins;
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    F.setRegCount(C, RegCounts[static_cast<unsigned>(C)]);
  if (!viewMatchesManifest(F))
    fatalError(__FILE__, __LINE__,
               "region snapshot integrity check failed: rollback lost a "
               "note (manifest mismatch)");
}

bool RegionSnapshot::dropOneNoteForTest(const Function &F) {
  for (size_t K = Instrs.size(); K-- != 0;) {
    const Instruction &Cur = F.instr(Instrs[K].first);
    const Instruction &Saved = Instrs[K].second;
    if (Saved.defs() == Cur.defs() && Saved.uses() == Cur.uses())
      continue;
    // The slot stays taken, so the loss must not self-repair.
    NoteSlot[Instrs[K].first] = LostNote;
    Instrs.erase(Instrs.begin() + static_cast<long>(K));
    for (size_t J = K; J != Instrs.size(); ++J)
      NoteSlot[Instrs[J].first] = static_cast<uint32_t>(J + 1);
    return true;
  }
  return false;
}

DeltaCheckpoint::DeltaCheckpoint(const Function &F, bool Armed)
    : Src(&F), Armed(Armed) {
  if (!Armed)
    return;
  NumBlocks = F.numBlocks();
  NumInstrs = F.numInstrs();
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    RegCounts[static_cast<unsigned>(C)] = F.numRegs(C);
  Manifest = manifestOf(F);
}

void DeltaCheckpoint::noteBlock(BlockId B) {
  if (!Armed || B >= NumBlocks)
    return;
  if (BlockNoted.empty())
    BlockNoted.assign(NumBlocks, 0);
  if (BlockNoted[B])
    return;
  BlockNoted[B] = 1;
  SavedBlocks.emplace_back(B, Src->block(B).instrs());
}

void DeltaCheckpoint::noteInstr(InstrId I) {
  if (!Armed || I >= NumInstrs)
    return;
  if (InstrNoted.empty())
    InstrNoted.assign(NumInstrs, 0);
  if (InstrNoted[I])
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

void DeltaCheckpoint::noteLayout() {
  if (!Armed || LayoutNoted)
    return;
  LayoutNoted = true;
  const std::vector<BlockId> &Layout = Src->layout();
  SavedLayout.reserve(Layout.size() + NumInstrs);
  SavedLayout.assign(Layout.begin(), Layout.end());
  for (InstrId I = 0; I != NumInstrs; ++I)
    SavedLayout.push_back(Src->instr(I).originalOrder());
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
                Saved.uses() == Cur.uses() && Saved.imm() == Cur.imm() &&
                Saved.target() == Cur.target();
    if (!Same) {
      SavedInstrs.erase(std::next(It).base());
      return true;
    }
  }
  if (!SavedLayout.empty()) {
    const std::vector<BlockId> &Layout = Src->layout();
    bool Same = Layout.size() + NumInstrs == SavedLayout.size() &&
                std::equal(Layout.begin(), Layout.end(), SavedLayout.begin());
    for (InstrId I = 0; Same && I != NumInstrs; ++I)
      Same = Src->instr(I).originalOrder() == SavedLayout[Layout.size() + I];
    if (!Same) {
      SavedLayout.clear(); // LayoutNoted stays set
      return true;
    }
  }
  return false;
}

bool DeltaCheckpoint::restore(Function &F) const {
  GIS_ASSERT(Armed, "restore of an unarmed delta checkpoint");
  if (F.numBlocks() < NumBlocks || F.numInstrs() < NumInstrs)
    return false; // no transform deletes blocks or pool entries
  F.truncateForRollback(NumBlocks, NumInstrs);
  for (const auto &[B, List] : SavedBlocks)
    F.block(B).instrs() = List;
  for (const auto &[Id, Ins] : SavedInstrs)
    F.instr(Id) = Ins;
  if (!SavedLayout.empty()) {
    const size_t LayoutSize = SavedLayout.size() - NumInstrs;
    F.layout().assign(SavedLayout.begin(), SavedLayout.begin() + LayoutSize);
    for (InstrId I = 0; I != NumInstrs; ++I)
      F.instr(I).setOriginalOrder(SavedLayout[LayoutSize + I]);
  }
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    F.setRegCount(C, RegCounts[static_cast<unsigned>(C)]);
  if (manifestOf(F) != Manifest)
    return false;
  // Edges are derived state: rebuild them for the restored layout and
  // terminators (the manifest check first, so a lost layout record never
  // reaches the edge builder with dangling block ids).
  F.recomputeCFG();
  return true;
}

uint64_t DeltaCheckpoint::bytesSaved() const {
  uint64_t Bytes = SavedLayout.size() * sizeof(uint32_t);
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
  Fingerprint H;
  H.addString(F.name());
  for (Reg P : F.params())
    H.add(P.key());
  H.add(F.numRegs(RegClass::GPR), F.numRegs(RegClass::FPR));
  H.add(F.numRegs(RegClass::CR), F.numBlocks());
  H.add(F.numInstrs());
  H.addU32s(F.layout().data(), F.layout().size());
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    H.addString(F.block(B).label());
    const std::vector<InstrId> &List = F.block(B).instrs();
    H.addU32s(List.data(), List.size());
  }
  for (InstrId I = 0; I != F.numInstrs(); ++I)
    fingerprintInstr(H, F.instr(I));
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

bool gis::cfgEdgesIdentical(const Function &A, const Function &B) {
  if (A.numBlocks() != B.numBlocks())
    return false;
  for (BlockId Blk = 0; Blk != A.numBlocks(); ++Blk)
    if (A.block(Blk).succs() != B.block(Blk).succs() ||
        A.block(Blk).preds() != B.block(Blk).preds())
      return false;
  return true;
}
