//===- regalloc/LinearScan.cpp - Linear-scan register allocation ----------===//

#include "regalloc/LinearScan.h"

#include "regalloc/LiveIntervals.h"
#include "support/Format.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

using namespace gis;

namespace {

constexpr std::array<RegClass, 3> AllClasses = {RegClass::GPR, RegClass::FPR,
                                                RegClass::CR};

/// Where one symbolic register lives after allocation.
struct Assignment {
  bool Spilled = false;
  unsigned Phys = 0; ///< physical index (when !Spilled)
  unsigned Slot = 0; ///< spill slot (when Spilled)
};

using AssignmentMap = std::unordered_map<uint32_t, Assignment>;

/// The linear scan proper (Poletto & Sarkar): intervals in start order, an
/// active list sorted implicitly by scanning, lowest free register first,
/// spill-furthest-end when the file is exhausted.  CR intervals must never
/// spill -- there is no condition-register spill opcode.
Status scanClass(const LiveIntervals &LIV, RegClass C, unsigned NumRegs,
                 unsigned NumScratch, AssignmentMap &Assign,
                 unsigned &NextSlot, RegAllocStats &Stats) {
  if (NumRegs < NumScratch + (C == RegClass::CR ? 1 : 0))
    return Status::error(
        ErrorCode::RegAllocFailed,
        formatString("register file of class %u has %u registers, below the "
                     "%u-register scratch reservation",
                     static_cast<unsigned>(C), NumRegs, NumScratch));
  const unsigned K = NumRegs - NumScratch;

  struct ActiveEntry {
    LiveInterval IV;
    unsigned Phys;
  };
  std::vector<ActiveEntry> Active;
  std::vector<unsigned> Free;
  for (unsigned R = 0; R != K; ++R)
    Free.push_back(R);

  auto TakeLowestFree = [&]() {
    size_t Best = 0;
    for (size_t I = 1; I != Free.size(); ++I)
      if (Free[I] < Free[Best])
        Best = I;
    unsigned P = Free[Best];
    Free.erase(Free.begin() + Best);
    return P;
  };

  for (const LiveInterval &IV : LIV.intervals()) {
    if (IV.R.regClass() != C)
      continue;
    // Expire intervals that ended strictly before this one starts (ends
    // are inclusive: an interval ending where another starts still
    // conflicts, which keeps same-instruction def/use pairs apart).
    for (size_t A = 0; A != Active.size();) {
      if (Active[A].IV.End < IV.Start) {
        Free.push_back(Active[A].Phys);
        Active.erase(Active.begin() + A);
      } else {
        ++A;
      }
    }

    if (!Free.empty()) {
      unsigned P = TakeLowestFree();
      Assign[IV.R.key()] = Assignment{false, P, 0};
      Active.push_back(ActiveEntry{IV, P});
      continue;
    }

    if (C == RegClass::CR)
      return Status::error(ErrorCode::RegAllocFailed,
                           formatString("condition-register pressure exceeds "
                                        "the %u-register file",
                                        NumRegs));

    // Spill whichever ends furthest: the new interval, or the active one
    // whose register it then takes over.
    ActiveEntry *Furthest = nullptr;
    for (ActiveEntry &A : Active)
      if (!Furthest || A.IV.End > Furthest->IV.End ||
          (A.IV.End == Furthest->IV.End && A.IV.R.key() > Furthest->IV.R.key()))
        Furthest = &A;
    if (Furthest && Furthest->IV.End > IV.End) {
      Assign[IV.R.key()] = Assignment{false, Furthest->Phys, 0};
      Assign[Furthest->IV.R.key()] = Assignment{true, 0, NextSlot++};
      ++Stats.IntervalsSpilled;
      Furthest->IV = IV;
    } else {
      Assign[IV.R.key()] = Assignment{true, 0, NextSlot++};
      ++Stats.IntervalsSpilled;
    }
  }
  return Status::ok();
}

} // namespace

Status gis::allocateRegisters(Function &F, const MachineDescription &MD,
                              RegAllocStats &Stats) {
  F.recomputeCFG();
  LiveIntervals LIV = LiveIntervals::build(F);
  Stats.IntervalsBuilt += static_cast<unsigned>(LIV.intervals().size());

  AssignmentMap Assign;
  unsigned NextSlot = 0;
  for (unsigned C = 0; C != 3; ++C) {
    Status S = scanClass(LIV, AllClasses[C], MD.numRegs(AllClasses[C]),
                         RegAllocScratch[C], Assign, NextSlot, Stats);
    if (!S.isOk())
      return S;
  }
  Stats.SpillSlots += NextSlot;

  auto PhysReg = [](RegClass C, unsigned Index) { return Reg::make(C, Index); };
  auto ScratchReg = [&](RegClass C, unsigned N) {
    unsigned Cl = static_cast<unsigned>(C);
    return Reg::make(C, MD.numRegs(C) - RegAllocScratch[Cl] + N);
  };
  auto SpillOp = [](RegClass C) {
    return C == RegClass::FPR ? Opcode::SPILLF : Opcode::SPILL;
  };
  auto ReloadOp = [](RegClass C) {
    return C == RegClass::FPR ? Opcode::RELOADF : Opcode::RELOAD;
  };

  // Parameter homes.  Assigned parameters arrive directly in their
  // physical registers (the interpreter keys argument passing off
  // Function::params(), so no move is needed); spilled parameters arrive
  // in scratch registers and are stored to their slots at the very top of
  // the entry block.
  std::vector<Instruction> EntrySpills;
  std::array<unsigned, 3> ParamScratch = {0, 0, 0};
  for (size_t K = 0; K != F.params().size(); ++K) {
    Reg P = F.params()[K];
    const Assignment &A = Assign.at(P.key());
    unsigned Cl = static_cast<unsigned>(P.regClass());
    if (!A.Spilled) {
      F.setParam(K, PhysReg(P.regClass(), A.Phys));
      continue;
    }
    if (P.regClass() == RegClass::CR ||
        ParamScratch[Cl] >= RegAllocScratch[Cl])
      return Status::error(ErrorCode::RegAllocFailed,
                           formatString("%zu spilled parameters exceed the "
                                        "scratch reservation",
                                        K + 1));
    Reg S = ScratchReg(P.regClass(), ParamScratch[Cl]++);
    F.setParam(K, S);
    Instruction Sp(SpillOp(P.regClass()));
    Sp.uses() = {S};
    Sp.setImm(static_cast<int64_t>(A.Slot));
    EntrySpills.push_back(std::move(Sp));
    ++Stats.SpillStores;
  }

  // Rewrite every instruction: physical registers for assigned operands,
  // scratch registers plus RELOAD-before / SPILL-after for spilled ones.
  // Plan first, then touch the pool: appendInstr may reallocate it, so no
  // Instruction reference survives an append.
  for (BlockId B : F.layout()) {
    const std::vector<InstrId> Old = F.block(B).instrs();
    std::vector<InstrId> NewList;
    NewList.reserve(Old.size() + (B == F.entry() ? EntrySpills.size() : 0));
    if (B == F.entry())
      for (const Instruction &Sp : EntrySpills)
        NewList.push_back(F.appendInstr(B, Instruction(Sp)));

    for (InstrId Id : Old) {
      UseList NewUses;
      DefList NewDefs;
      std::vector<Instruction> Reloads, Spills;
      {
        const Instruction &I = F.instr(Id);
        // Spilled uses reload into scratch registers in order of first
        // appearance; a register read twice reloads once.
        std::unordered_map<uint32_t, Reg> UseScratch;
        std::array<unsigned, 3> NextScratch = {0, 0, 0};
        for (Reg U : I.uses()) {
          const Assignment &A = Assign.at(U.key());
          if (!A.Spilled) {
            NewUses.push_back(PhysReg(U.regClass(), A.Phys));
            continue;
          }
          auto It = UseScratch.find(U.key());
          if (It == UseScratch.end()) {
            unsigned Cl = static_cast<unsigned>(U.regClass());
            if (NextScratch[Cl] >= RegAllocScratch[Cl])
              return Status::error(
                  ErrorCode::RegAllocFailed,
                  formatString("instruction reads more than %u spilled "
                               "registers of one class",
                               RegAllocScratch[Cl]));
            Reg S = ScratchReg(U.regClass(), NextScratch[Cl]++);
            It = UseScratch.emplace(U.key(), S).first;
            Instruction Re(ReloadOp(U.regClass()));
            Re.defs() = {S};
            Re.setImm(static_cast<int64_t>(A.Slot));
            Reloads.push_back(std::move(Re));
            ++Stats.SpillReloads;
          }
          NewUses.push_back(It->second);
        }

        for (Reg D : I.defs()) {
          const Assignment &A = Assign.at(D.key());
          if (!A.Spilled) {
            NewDefs.push_back(PhysReg(D.regClass(), A.Phys));
            continue;
          }
          unsigned Cl = static_cast<unsigned>(D.regClass());
          Reg S;
          auto It = UseScratch.find(D.key());
          if (It != UseScratch.end()) {
            // A def that is also a use keeps the use's scratch: mandatory
            // for LU/STU base updates (the verifier ties def and base
            // together) and natural for accumulators.
            S = It->second;
          } else if (NextScratch[Cl] < RegAllocScratch[Cl]) {
            S = ScratchReg(D.regClass(), NextScratch[Cl]++);
          } else {
            // All scratch registers of the class feed this instruction's
            // uses.  A single-def instruction reads every use before it
            // writes, so the def may safely overwrite the first one (LU,
            // the only multi-def opcode, has one use and never gets here).
            GIS_ASSERT(I.defs().size() == 1 && RegAllocScratch[Cl] > 0,
                       "scratch fallback needs a single-def instruction");
            S = ScratchReg(D.regClass(), 0);
          }
          NewDefs.push_back(S);
          Instruction Sp(SpillOp(D.regClass()));
          Sp.uses() = {S};
          Sp.setImm(static_cast<int64_t>(A.Slot));
          Spills.push_back(std::move(Sp));
          ++Stats.SpillStores;
        }
      }

      for (Instruction &Re : Reloads)
        NewList.push_back(F.appendInstr(B, std::move(Re)));
      {
        Instruction &I = F.instr(Id);
        I.uses() = std::move(NewUses);
        I.defs() = std::move(NewDefs);
      }
      NewList.push_back(Id);
      for (Instruction &Sp : Spills)
        NewList.push_back(F.appendInstr(B, std::move(Sp)));
    }
    F.block(B).instrs() = std::move(NewList);
  }

  // Register counters now describe the physical space: recount from the
  // rewritten operands (placed instructions and parameters only).
  for (RegClass C : AllClasses)
    F.setRegCount(C, 0);
  for (Reg P : F.params())
    F.noteReg(P);
  for (BlockId B : F.layout())
    for (InstrId Id : F.block(B).instrs()) {
      for (Reg D : F.instr(Id).defs())
        F.noteReg(D);
      for (Reg U : F.instr(Id).uses())
        F.noteReg(U);
    }

  F.recomputeCFG();
  return Status::ok();
}
