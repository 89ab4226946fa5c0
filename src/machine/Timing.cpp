//===- machine/Timing.cpp - Trace-driven cycle timing simulator -----------===//

#include "machine/Timing.h"

#include "support/Assert.h"

#include <algorithm>
#include <unordered_map>

using namespace gis;

TimingResult
TimingSimulator::simulate(const std::vector<TraceEntry> &Trace) const {
  TimingResult Result;
  Result.Instructions = Trace.size();
  Result.UnitBusyCycles.assign(MD.numUnitTypes(), 0);
  if (RecordIssue)
    Result.IssueTimes.reserve(Trace.size());

  // Next-free cycle per unit instance, grouped by unit type.
  std::vector<std::vector<uint64_t>> UnitFree(MD.numUnitTypes());
  for (unsigned T = 0; T != MD.numUnitTypes(); ++T)
    UnitFree[T].assign(MD.unitType(T).Count, 0);

  // Producer bookkeeping per register: the opcode that produced the current
  // value and the cycle the raw result completes (delays are added per
  // consumer, because they depend on the consumer's class).  Registers are
  // per-function symbolic, so the key includes the function.
  struct Producer {
    Opcode Op;
    uint64_t CompleteAt;
  };
  struct KeyHash {
    size_t operator()(const std::pair<const Function *, uint32_t> &K) const {
      return std::hash<const void *>()(K.first) * 31 +
             std::hash<uint32_t>()(K.second);
    }
  };
  std::unordered_map<std::pair<const Function *, uint32_t>, Producer, KeyHash>
      RegProducer;

  uint64_t PrevIssue = 0;
  uint64_t Completion = 0;
  BranchPredictor Pred(PredOpts);

  for (const TraceEntry &E : Trace) {
    const Function &F = *E.Fn;
    const Instruction &I = F.instr(E.Instr);
    unsigned Type = MD.unitTypeForOp(I.opcode());
    unsigned Exec = MD.execTime(I.opcode());

    // Spill slots behave like registers for flow timing: a RELOAD's value
    // is ready only when its SPILL completed.  Slot keys live above the
    // Reg::key() encoding space (class bits <= 2 keep real keys below
    // 0x30000000), with the low bit separating int from float slots.
    auto SlotKey = [](const Instruction &SI) -> uint32_t {
      bool Float = SI.opcode() == Opcode::SPILLF ||
                   SI.opcode() == Opcode::RELOADF;
      return 0x40000000u |
             (static_cast<uint32_t>(SI.imm()) << 1) | (Float ? 1u : 0u);
    };

    // (a) operands ready, with producer/consumer interlock delays.
    uint64_t Ready = 0;
    for (Reg U : I.uses()) {
      auto It = RegProducer.find({&F, U.key()});
      if (It == RegProducer.end())
        continue;
      uint64_t Avail =
          It->second.CompleteAt + MD.flowDelay(It->second.Op, I.opcode());
      Ready = std::max(Ready, Avail);
    }
    if (isReloadOpcode(I.opcode())) {
      auto It = RegProducer.find({&F, SlotKey(I)});
      if (It != RegProducer.end())
        Ready = std::max(Ready, It->second.CompleteAt);
    }

    // (c) in-order issue: not before any earlier instruction.
    uint64_t T = std::max(Ready, PrevIssue);

    // (b) a free unit of the right type (pick the earliest-free instance).
    std::vector<uint64_t> &Free = UnitFree[Type];
    size_t Best = 0;
    for (size_t K = 1; K != Free.size(); ++K)
      if (Free[K] < Free[Best])
        Best = K;
    T = std::max(T, Free[Best]);

    Free[Best] = T + Exec;
    PrevIssue = T;
    Completion = std::max(Completion, T + Exec);
    Result.UnitBusyCycles[Type] += Exec;

    for (Reg D : I.defs())
      RegProducer[{&F, D.key()}] = Producer{I.opcode(), T + Exec};
    if (I.opcode() == Opcode::SPILL || I.opcode() == Opcode::SPILLF)
      RegProducer[{&F, SlotKey(I)}] = Producer{I.opcode(), T + Exec};

    // A mispredicted conditional branch stalls the in-order front end:
    // nothing later issues before the branch resolves (T + Exec) plus the
    // refetch penalty.  Correct predictions are free -- the speculative
    // fetch down the predicted path continues uninterrupted.
    if (Pred.enabled() &&
        (I.opcode() == Opcode::BT || I.opcode() == Opcode::BF) &&
        Pred.observe(F, E.Block, E.Instr, E.BranchTaken)) {
      uint64_t Resume = T + Exec + PredOpts.MispredictPenalty;
      if (Resume > PrevIssue) {
        Result.BranchStallCycles += Resume - PrevIssue;
        PrevIssue = Resume;
      }
    }

    if (RecordIssue)
      Result.IssueTimes.push_back(T);
  }

  Result.Branches = Pred.stats().Branches;
  Result.Mispredicts = Pred.stats().Mispredicts;
  Result.OracleFallbacks = Pred.stats().OracleFallbacks;
  Result.Cycles = std::max(Completion, PrevIssue);
  return Result;
}

double gis::steadyStatePeriod(const std::vector<uint64_t> &IssueTimes,
                              const std::vector<size_t> &MarkerPositions) {
  GIS_ASSERT(MarkerPositions.size() >= 3,
             "need at least three iterations to measure a period");
  size_t First = MarkerPositions.size() / 2;
  size_t Last = MarkerPositions.size() - 1;
  uint64_t Start = IssueTimes.at(MarkerPositions[First]);
  uint64_t End = IssueTimes.at(MarkerPositions[Last]);
  return static_cast<double>(End - Start) / static_cast<double>(Last - First);
}
