//===- analysis/MemDisambig.cpp - Memory disambiguation --------------------===//

#include "analysis/MemDisambig.h"

#include "analysis/CFG.h"
#include "support/Assert.h"
#include "support/FaultInjection.h"

using namespace gis;

DisambigFacts DisambigFacts::build(const Function &F, bool BuildDom) {
  DisambigFacts Facts;
  Facts.BlockOf.assign(F.numInstrs(), InvalidId);
  Facts.PosOf.assign(F.numInstrs(), 0);
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    const std::vector<InstrId> &Instrs = F.block(B).instrs();
    for (unsigned Pos = 0; Pos != Instrs.size(); ++Pos) {
      Facts.BlockOf[Instrs[Pos]] = B;
      Facts.PosOf[Instrs[Pos]] = Pos;
    }
  }

  // Single static definitions over the whole function.
  Facts.SingleDef.reserve(F.numInstrs());
  for (InstrId I = 0; I != F.numInstrs(); ++I) {
    if (Facts.BlockOf[I] == InvalidId)
      continue; // orphaned instruction (cloned, not yet placed)
    for (Reg D : F.instr(I).defs()) {
      auto [It, Inserted] = Facts.SingleDef.emplace(D.key(), I);
      if (!Inserted)
        It->second = InvalidId; // multiple definitions
    }
  }

  if (BuildDom)
    Facts.Dom = std::make_unique<DomTree>(buildCFG(F));
  return Facts;
}

void DisambigFacts::updatePositions(const Function &F, BlockId B) {
  const std::vector<InstrId> &Instrs = F.block(B).instrs();
  for (unsigned Pos = 0; Pos != Instrs.size(); ++Pos) {
    GIS_ASSERT(Instrs[Pos] < PosOf.size(),
               "updatePositions on a function with new instructions");
    PosOf[Instrs[Pos]] = Pos;
  }
#ifdef GIS_SLOWPATH_CHECK
  DisambigFacts Fresh = build(F, /*BuildDom=*/false);
  if (Fresh.BlockOf != BlockOf || Fresh.PosOf != PosOf ||
      Fresh.SingleDef != SingleDef)
    fatalError(__FILE__, __LINE__,
               "slow-path check: patched disambiguation facts diverge from "
               "a fresh derivation");
#endif
}

MemDisambiguator::MemDisambiguator(const Function &F, const SchedRegion &R,
                                   const DisambigFacts *PhaseFacts)
    : F(F), R(R), Facts(PhaseFacts) {
  if (!Facts)
    Facts = &OwnFacts.emplace(DisambigFacts::build(F, /*BuildDom=*/false));
  // No phase adds instructions while its facts are live; a size mismatch
  // means the facts belong to another function state.
  GIS_ASSERT(Facts->BlockOf.size() == F.numInstrs(),
             "disambiguation facts derived from a different function state");

  // Definition counts inside the region's real blocks (region-dependent,
  // so never shared).
  for (const RegionNode &N : R.nodes()) {
    if (!N.isBlock())
      continue;
    for (InstrId I : F.block(N.Block).instrs())
      for (Reg D : F.instr(I).defs())
        ++RegionDefs[D.key()];
  }

  CheckFault = FaultInjector::instance().armed();
}

const DomTree &MemDisambiguator::funcDom() const {
  if (Facts->Dom)
    return *Facts->Dom;
  if (!LazyDom)
    LazyDom = std::make_unique<DomTree>(buildCFG(F));
  return *LazyDom;
}

bool MemDisambiguator::defDominatesUse(InstrId Def, InstrId User) const {
  BlockId DB = Facts->BlockOf[Def], UB = Facts->BlockOf[User];
  if (DB == InvalidId || UB == InvalidId)
    return false;
  if (DB == UB)
    return Facts->PosOf[Def] < Facts->PosOf[User];
  return funcDom().dominates(DB, UB);
}

std::optional<MemDisambiguator::Address>
MemDisambiguator::resolveReg(Reg Base, InstrId User, unsigned Depth) const {
  if (Depth > 16)
    return std::nullopt; // defensive cap on chain length

  auto It = Facts->SingleDef.find(Base.key());
  if (It == Facts->SingleDef.end()) {
    // Never defined in the function (an incoming parameter register): a
    // stable symbolic root.
    Address A;
    A.RootReg = Base;
    return A;
  }
  InstrId DefId = It->second;
  if (DefId == InvalidId)
    return std::nullopt; // multiple definitions: not a stable value
  if (!defDominatesUse(DefId, User))
    return std::nullopt;

  const Instruction &Def = F.instr(DefId);
  switch (Def.opcode()) {
  case Opcode::LI: {
    Address A;
    A.IsConst = true;
    A.Offset = Def.imm();
    return A;
  }
  case Opcode::AI: {
    auto Inner = resolveReg(Def.uses()[0], DefId, Depth + 1);
    if (!Inner)
      return std::nullopt;
    Inner->Offset += Def.imm();
    return Inner;
  }
  case Opcode::LR:
    return resolveReg(Def.uses()[0], DefId, Depth + 1);
  default: {
    // Defined once by an opaque instruction: stable symbolic root.
    Address A;
    A.RootReg = Base;
    return A;
  }
  }
}

std::optional<MemDisambiguator::Address>
MemDisambiguator::resolveAddress(InstrId Access) const {
  const Instruction &I = F.instr(Access);
  if (!I.touchesMemory() || I.isCall() || I.isSpillCode())
    return std::nullopt;
  auto A = resolveReg(I.memBase(), Access, 0);
  if (!A)
    return std::nullopt;
  A->Offset += I.imm();
  return A;
}

bool MemDisambiguator::provablyDisjoint(InstrId A, InstrId B) const {
  bool Result = provablyDisjointImpl(A, B);
  // "disambig-cache" fault: hand the dependence builder a poisoned alias
  // answer, as corrupted disambiguation facts would.  The stage keeps the
  // name of the cache the facts once lived in, which GIS_FAULT_INJECT
  // users key on.  Checked only when the injector is armed so unarmed runs
  // pay nothing per pair.
  if (CheckFault && FaultInjector::instance().shouldFire("disambig-cache"))
    return !Result;
  return Result;
}

bool MemDisambiguator::provablyDisjointImpl(InstrId A, InstrId B) const {
  const Instruction &IA = F.instr(A);
  const Instruction &IB = F.instr(B);
  if (IA.isCall() || IB.isCall())
    return false;
  if (!IA.touchesMemory() || !IB.touchesMemory())
    return true; // nothing to conflict on

  // Spill slots (regalloc spill code) live outside user memory: a spill op
  // is disjoint from every ordinary load/store, and two spill ops conflict
  // only when they address the same slot of the same class.
  if (IA.isSpillCode() || IB.isSpillCode()) {
    if (!IA.isSpillCode() || !IB.isSpillCode())
      return true;
    bool FloatA = IA.opClass() == OpClass::FloatLoad ||
                  IA.opClass() == OpClass::FloatStore;
    bool FloatB = IB.opClass() == OpClass::FloatLoad ||
                  IB.opClass() == OpClass::FloatStore;
    return FloatA != FloatB || IA.imm() != IB.imm();
  }

  // Rule 1: fully resolved addresses with a common root.
  auto AddrA = resolveAddress(A);
  auto AddrB = resolveAddress(B);
  if (AddrA && AddrB) {
    bool SameRoot = AddrA->IsConst == AddrB->IsConst &&
                    (AddrA->IsConst || AddrA->RootReg == AddrB->RootReg);
    if (SameRoot && AddrA->Offset != AddrB->Offset)
      return true;
  }

  // Rule 2: same base register with provably unchanged value.
  Reg BaseA = IA.memBase(), BaseB = IB.memBase();
  if (BaseA != BaseB || IA.imm() == IB.imm())
    return false;

  auto It = RegionDefs.find(BaseA.key());
  unsigned DefsInRegion = It == RegionDefs.end() ? 0 : It->second;
  if (DefsInRegion == 0)
    return true; // base is region-invariant

  // Same block, no intervening redefinition of the base (positional scan).
  BlockId BA = Facts->BlockOf[A], BB = Facts->BlockOf[B];
  if (BA == InvalidId || BA != BB)
    return false;
  unsigned Lo = std::min(Facts->PosOf[A], Facts->PosOf[B]);
  unsigned Hi = std::max(Facts->PosOf[A], Facts->PosOf[B]);
  const std::vector<InstrId> &Instrs = F.block(BA).instrs();
  for (unsigned Pos = Lo; Pos != Hi; ++Pos)
    if (F.instr(Instrs[Pos]).definesReg(BaseA))
      return false;
  return true;
}
