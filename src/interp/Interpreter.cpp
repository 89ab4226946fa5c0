//===- interp/Interpreter.cpp - Executable IR semantics -------------------===//

#include "interp/Interpreter.h"

#include "support/Assert.h"
#include "support/Format.h"

using namespace gis;

namespace {

// Fixed-point arithmetic wraps in two's complement (the semantics the
// peephole folder mirrors); computing it in uint64_t keeps it defined.
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

} // namespace

ExecResult Interpreter::run(const Function &F, uint64_t MaxSteps) {
  ExecResult Result;
  Trace.clear();
  BlockCounts.assign(F.numBlocks(), 0);
  EdgeCounts.clear();
  EntryFn = &F;
  execFrame(F, EntryIntRegs, EntryFpRegs, MaxSteps, 0, Result);
  return Result;
}

void Interpreter::execFrame(const Function &F, IntFrame &IntRegs,
                            FpFrame &FpRegs, uint64_t MaxSteps,
                            unsigned Depth, ExecResult &Result) {
  auto Trap = [&](std::string Reason) {
    Result.Trapped = true;
    Result.TrapReason = std::move(Reason);
  };

  if (Depth >= MaxCallDepth) {
    Trap("call depth limit exceeded");
    return;
  }

  auto SetReg = [&](Reg R, int64_t V) { IntRegs[R.key()] = V; };
  auto GetReg = [&](Reg R) -> int64_t {
    auto It = IntRegs.find(R.key());
    return It == IntRegs.end() ? 0 : It->second;
  };
  auto SetF = [&](Reg R, double V) { FpRegs[R.key()] = V; };
  auto GetF = [&](Reg R) -> double {
    auto It = FpRegs.find(R.key());
    return It == FpRegs.end() ? 0.0 : It->second;
  };

  // Spill slots (regalloc spill code) are compiler-private, per-activation
  // storage: they never alias user memory, so the differential oracle's
  // final-heap comparison is unaffected by allocation, and they hold
  // doubles bit-exactly where STF would truncate through int64_t.
  std::unordered_map<int64_t, int64_t> IntSlots;
  std::unordered_map<int64_t, double> FpSlots;

  BlockId Cur = F.entry();
  size_t Pos = 0;
  if (&F == EntryFn)
    ++BlockCounts[Cur];

  while (true) {
    const BasicBlock &BB = F.block(Cur);

    auto EnterBlock = [&](BlockId Next) {
      if (&F == EntryFn) {
        ++BlockCounts[Next];
        ++EdgeCounts[edgeKey(Cur, Next)];
      }
      Cur = Next;
      Pos = 0;
    };

    if (Pos >= BB.instrs().size()) {
      BlockId Next = F.layoutSuccessor(Cur);
      if (Next == InvalidId) {
        Trap("control fell off the end of the function");
        return;
      }
      EnterBlock(Next);
      continue;
    }

    if (Result.InstrCount >= MaxSteps) {
      Trap("step budget exhausted");
      return;
    }

    InstrId Id = BB.instrs()[Pos];
    const Instruction &I = F.instr(Id);
    ++Result.InstrCount;
    if (TraceEnabled)
      Trace.push_back(TraceEntry{&F, Id, false, Cur});
    ++Pos;

    switch (I.opcode()) {
    case Opcode::LI:
      SetReg(I.defs()[0], I.imm());
      break;
    case Opcode::LR:
      SetReg(I.defs()[0], GetReg(I.uses()[0]));
      break;
    case Opcode::AI:
      SetReg(I.defs()[0], wrapAdd(GetReg(I.uses()[0]), I.imm()));
      break;
    case Opcode::A:
      SetReg(I.defs()[0], wrapAdd(GetReg(I.uses()[0]), GetReg(I.uses()[1])));
      break;
    case Opcode::S:
      SetReg(I.defs()[0], wrapSub(GetReg(I.uses()[0]), GetReg(I.uses()[1])));
      break;
    case Opcode::MUL:
      SetReg(I.defs()[0], wrapMul(GetReg(I.uses()[0]), GetReg(I.uses()[1])));
      break;
    case Opcode::DIV: {
      int64_t D = GetReg(I.uses()[1]);
      if (D == 0) {
        Trap("division by zero");
        return;
      }
      // INT64_MIN / -1 wraps to INT64_MIN instead of overflowing.
      SetReg(I.defs()[0], D == -1 ? wrapSub(0, GetReg(I.uses()[0]))
                                  : GetReg(I.uses()[0]) / D);
      break;
    }
    case Opcode::REM: {
      int64_t D = GetReg(I.uses()[1]);
      if (D == 0) {
        Trap("remainder by zero");
        return;
      }
      SetReg(I.defs()[0], D == -1 ? 0 : GetReg(I.uses()[0]) % D);
      break;
    }
    case Opcode::AND:
      SetReg(I.defs()[0], GetReg(I.uses()[0]) & GetReg(I.uses()[1]));
      break;
    case Opcode::OR:
      SetReg(I.defs()[0], GetReg(I.uses()[0]) | GetReg(I.uses()[1]));
      break;
    case Opcode::XOR:
      SetReg(I.defs()[0], GetReg(I.uses()[0]) ^ GetReg(I.uses()[1]));
      break;
    case Opcode::SL:
      SetReg(I.defs()[0],
             static_cast<int64_t>(static_cast<uint64_t>(GetReg(I.uses()[0]))
                                  << (I.imm() & 63)));
      break;
    case Opcode::SR:
      SetReg(I.defs()[0], GetReg(I.uses()[0]) >> (I.imm() & 63));
      break;
    case Opcode::NEG:
      SetReg(I.defs()[0], wrapSub(0, GetReg(I.uses()[0])));
      break;
    case Opcode::L:
      SetReg(I.defs()[0], loadWord(wrapAdd(GetReg(I.memBase()), I.imm())));
      break;
    case Opcode::LU: {
      Reg Base = I.memBase();
      int64_t Addr = wrapAdd(GetReg(Base), I.imm());
      SetReg(I.defs()[0], loadWord(Addr));
      SetReg(Base, wrapAdd(GetReg(Base), I.imm()));
      break;
    }
    case Opcode::ST:
      storeWord(wrapAdd(GetReg(I.memBase()), I.imm()), GetReg(I.uses()[0]));
      break;
    case Opcode::STU: {
      Reg Base = I.memBase();
      int64_t Addr = wrapAdd(GetReg(Base), I.imm());
      storeWord(Addr, GetReg(I.uses()[0]));
      SetReg(Base, Addr);
      break;
    }
    case Opcode::LF:
      SetF(I.defs()[0],
           static_cast<double>(
               loadWord(wrapAdd(GetReg(I.memBase()), I.imm()))));
      break;
    case Opcode::STF:
      storeWord(wrapAdd(GetReg(I.memBase()), I.imm()),
                static_cast<int64_t>(GetF(I.uses()[0])));
      break;
    case Opcode::FA:
      SetF(I.defs()[0], GetF(I.uses()[0]) + GetF(I.uses()[1]));
      break;
    case Opcode::FS:
      SetF(I.defs()[0], GetF(I.uses()[0]) - GetF(I.uses()[1]));
      break;
    case Opcode::FM:
      SetF(I.defs()[0], GetF(I.uses()[0]) * GetF(I.uses()[1]));
      break;
    case Opcode::FD:
      SetF(I.defs()[0], GetF(I.uses()[0]) / GetF(I.uses()[1]));
      break;
    case Opcode::FMA:
      SetF(I.defs()[0],
           GetF(I.uses()[0]) * GetF(I.uses()[1]) + GetF(I.uses()[2]));
      break;
    case Opcode::C:
      SetReg(I.defs()[0], crCompare(GetReg(I.uses()[0]), GetReg(I.uses()[1])));
      break;
    case Opcode::CI:
      SetReg(I.defs()[0], crCompare(GetReg(I.uses()[0]), I.imm()));
      break;
    case Opcode::FC: {
      double A = GetF(I.uses()[0]), B = GetF(I.uses()[1]);
      SetReg(I.defs()[0], A < B ? CRLt : (A > B ? CRGt : CREq));
      break;
    }
    case Opcode::B:
      EnterBlock(I.target());
      break;
    case Opcode::BT:
    case Opcode::BF: {
      int64_t CR = GetReg(I.uses()[0]);
      int64_t Mask = I.cond() == CondBit::LT
                         ? CRLt
                         : (I.cond() == CondBit::GT ? CRGt : CREq);
      bool BitSet = (CR & Mask) != 0;
      bool Taken = I.opcode() == Opcode::BT ? BitSet : !BitSet;
      if (TraceEnabled)
        Trace.back().BranchTaken = Taken;
      if (Taken) {
        EnterBlock(I.target());
      } else {
        BlockId Next = F.layoutSuccessor(Cur);
        if (Next == InvalidId) {
          Trap("conditional branch fell off the end of the function");
          return;
        }
        EnterBlock(Next);
      }
      break;
    }
    case Opcode::CALL: {
      std::vector<int64_t> Args;
      Args.reserve(I.uses().size());
      for (Reg Arg : I.uses())
        Args.push_back(GetReg(Arg));

      // Module functions first, then builtins, then "print".
      if (const Function *Callee =
              const_cast<Module &>(M).findFunction(I.callee())) {
        if (Callee->params().size() != Args.size()) {
          Trap(formatString("call to '%s' with %zu args, expected %zu",
                            I.callee().c_str(), Args.size(),
                            Callee->params().size()));
          return;
        }
        IntFrame CalleeInt;
        FpFrame CalleeFp;
        for (size_t K = 0; K != Args.size(); ++K)
          CalleeInt[Callee->params()[K].key()] = Args[K];
        ExecResult Inner;
        Inner.InstrCount = Result.InstrCount;
        Inner.Printed = std::move(Result.Printed);
        execFrame(*Callee, CalleeInt, CalleeFp, MaxSteps, Depth + 1, Inner);
        Result.InstrCount = Inner.InstrCount;
        Result.Printed = std::move(Inner.Printed);
        if (Inner.Trapped) {
          Result.Trapped = true;
          Result.TrapReason = std::move(Inner.TrapReason);
          return;
        }
        if (!I.defs().empty())
          SetReg(I.defs()[0], Inner.HasReturnValue ? Inner.ReturnValue : 0);
        break;
      }
      if (I.callee() == "print") {
        for (int64_t V : Args)
          Result.Printed.push_back(V);
        if (!I.defs().empty())
          SetReg(I.defs()[0], 0);
        break;
      }
      auto It = Builtins.find(I.callee());
      if (It == Builtins.end()) {
        Trap(formatString("call to unknown function '%s'",
                          I.callee().c_str()));
        return;
      }
      int64_t RV = It->second(Args);
      if (!I.defs().empty())
        SetReg(I.defs()[0], RV);
      break;
    }
    case Opcode::RET:
      if (!I.uses().empty()) {
        Result.HasReturnValue = true;
        Result.ReturnValue = GetReg(I.uses()[0]);
      }
      return;
    case Opcode::SPILL:
      IntSlots[I.imm()] = GetReg(I.uses()[0]);
      break;
    case Opcode::RELOAD: {
      auto It = IntSlots.find(I.imm());
      SetReg(I.defs()[0], It == IntSlots.end() ? 0 : It->second);
      break;
    }
    case Opcode::SPILLF:
      FpSlots[I.imm()] = GetF(I.uses()[0]);
      break;
    case Opcode::RELOADF: {
      auto It = FpSlots.find(I.imm());
      SetF(I.defs()[0], It == FpSlots.end() ? 0.0 : It->second);
      break;
    }
    case Opcode::NOP:
      break;
    }
  }
}
