//===- sched/LocalScheduler.cpp - Basic-block scheduler --------------------===//

#include "sched/LocalScheduler.h"

#include "analysis/MemDisambig.h"
#include "analysis/Region.h"
#include "ir/Checkpoint.h"
#include "obs/Trace.h"
#include "sched/Heuristics.h"
#include "sched/ListScheduler.h"

#include <iterator>
#include <numeric>

using namespace gis;

BlockSchedule gis::scheduleBlock(const Function &F, BlockId B,
                                 const MachineDescription &MD,
                                 const DisambigFacts &Facts,
                                 const EngineObs *Obs) {
  SchedRegion R = SchedRegion::buildSingleBlock(F, B);
  DataDeps DD = DataDeps::compute(F, R, MD, &Facts);
  // One region node: every DDG node sits in it, and the nodes are the
  // block's instructions in program order.
  Heuristics H = computeHeuristics(F, DD, MD,
                                   std::vector<unsigned>(DD.numNodes(), 0));
  std::vector<unsigned> Own(DD.numNodes());
  std::iota(Own.begin(), Own.end(), 0u);

  EngineResult Sched = ListScheduler(F, DD, MD, H).run(
      Own, {}, [](unsigned) { return PredDisposition::Fixed; },
      [](unsigned) { return true; }, nullptr, Obs);
  BlockSchedule Out;
  Out.Order.reserve(Sched.Order.size());
  for (unsigned Node : Sched.Order)
    Out.Order.push_back(DD.ddgNode(Node).Instr);
  Out.Makespan = Sched.Makespan;
  Out.S = std::move(Sched.S);
  return Out;
}

LocalSchedStats gis::scheduleLocal(Function &F, const MachineDescription &MD,
                                   const obs::SchedSink &Sink,
                                   DeltaCheckpoint *Ckpt) {
  LocalSchedStats Stats;
  F.recomputeCFG();
  // The pass's disambiguation facts, shared by all its blocks.  They stay
  // exact: reorders patch positions in place below.
  DisambigFacts Facts = DisambigFacts::build(F);

  for (BlockId B : F.layout()) {
    ++Stats.BlocksScheduled;
    obs::TraceSpan BlockSpan("block", "sched", "block",
                             static_cast<int64_t>(B));

    // Per-block staging buffers: a failed block keeps its original order,
    // so its picks must not leak into the log or the counters.
    obs::CounterSet BlockCtrs;
    std::vector<obs::Decision> BlockDecisions;
    EngineObs Obs;
    Obs.Counters = Sink.Counters ? &BlockCtrs : nullptr;
    Obs.Decisions = Sink.Decisions ? &BlockDecisions : nullptr;
    Obs.Stage = "local";
    Obs.TargetBlock = B;

    BlockSchedule Sched = scheduleBlock(F, B, MD, Facts, &Obs);
    BasicBlock &BB = F.block(B);
    if (!Sched.S.isOk() || Sched.Order.size() != BB.size()) {
      ++Stats.BlocksFailed;
      continue;
    }
    if (Sink.Counters)
      *Sink.Counters += BlockCtrs;
    if (Sink.Decisions)
      Sink.Decisions->insert(Sink.Decisions->end(),
                             std::make_move_iterator(BlockDecisions.begin()),
                             std::make_move_iterator(BlockDecisions.end()));

    if (Sched.Order != BB.instrs()) {
      ++Stats.BlocksReordered;
      if (Ckpt)
        Ckpt->noteBlock(B); // save the pre-reorder list first
      BB.instrs() = std::move(Sched.Order);
      Facts.updatePositions(F, B);
    }
  }
  return Stats;
}
