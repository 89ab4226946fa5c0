//===- sched/LocalScheduler.cpp - Basic-block scheduler --------------------===//

#include "sched/LocalScheduler.h"

#include "analysis/LoopInfo.h"
#include "analysis/MemDisambig.h"
#include "analysis/Region.h"
#include "ir/Checkpoint.h"
#include "obs/Trace.h"
#include "sched/Heuristics.h"
#include "sched/ListScheduler.h"

#include <iterator>

using namespace gis;

namespace {

/// Schedules every real block of one region with the block's own
/// instructions as the only candidates.
void scheduleRegionBlocks(Function &F, const MachineDescription &MD,
                          const SchedRegion &R, LocalSchedStats &Stats,
                          const obs::SchedSink &Sink, DisambigFacts &Facts,
                          DeltaCheckpoint *Ckpt);

} // namespace

LocalSchedStats gis::scheduleLocal(Function &F, const MachineDescription &MD,
                                   const LoopInfo &LI,
                                   const obs::SchedSink &Sink,
                                   DeltaCheckpoint *Ckpt) {
  LocalSchedStats Stats;
  F.recomputeCFG();
  // The pass's disambiguation facts, shared by all its regions.  They stay
  // exact: intra-block reorders patch positions in place below.
  DisambigFacts Facts = DisambigFacts::build(F);

  // Regions proper require reducible control flow; otherwise fall back to
  // degenerate one-block regions (the scheduling result is identical: the
  // local scheduler only uses intra-block structure).
  if (!LI.isReducible()) {
    for (BlockId B : F.layout())
      scheduleRegionBlocks(F, MD, SchedRegion::buildSingleBlock(F, B), Stats,
                           Sink, Facts, Ckpt);
    return Stats;
  }

  // Every block is a direct member of exactly one region (its innermost
  // loop, or the top level); iterate all regions so all blocks are
  // rescheduled once.
  std::vector<int> RegionIds;
  for (unsigned L = 0; L != LI.numLoops(); ++L)
    RegionIds.push_back(static_cast<int>(L));
  RegionIds.push_back(-1);

  for (int RegionId : RegionIds) {
    SchedRegion R = SchedRegion::build(F, LI, RegionId);
    scheduleRegionBlocks(F, MD, R, Stats, Sink, Facts, Ckpt);
  }
  return Stats;
}

namespace {

void scheduleRegionBlocks(Function &F, const MachineDescription &MD,
                          const SchedRegion &R, LocalSchedStats &Stats,
                          const obs::SchedSink &Sink, DisambigFacts &Facts,
                          DeltaCheckpoint *Ckpt) {
  DataDeps DD = DataDeps::compute(F, R, MD, &Facts);

  std::vector<unsigned> CurNode(DD.numNodes());
  for (unsigned N = 0; N != DD.numNodes(); ++N)
    CurNode[N] = DD.ddgNode(N).RegionNode;
  Heuristics H = computeHeuristics(F, DD, MD, CurNode);
  ListScheduler Engine(F, DD, MD, H);

  auto AllFixed = [](unsigned) { return PredDisposition::Fixed; };
  auto NoSpec = [](unsigned) { return true; };

  for (unsigned A : R.topoOrder()) {
    const RegionNode &ANode = R.node(A);
    if (!ANode.isBlock())
      continue;
    BasicBlock &BB = F.block(ANode.Block);
    ++Stats.BlocksScheduled;
    obs::TraceSpan BlockSpan("block", "sched", "block",
                             static_cast<int64_t>(ANode.Block));

    std::vector<unsigned> Own;
    bool AllInDDG = true;
    for (InstrId I : BB.instrs()) {
      int N = DD.nodeOfInstr(I);
      if (N < 0) {
        AllInDDG = false;
        break;
      }
      Own.push_back(static_cast<unsigned>(N));
    }
    if (!AllInDDG) {
      // Inconsistent analysis state; the block keeps its original order.
      ++Stats.BlocksFailed;
      continue;
    }

    // Per-block staging buffers: a failed block keeps its original order,
    // so its picks must not leak into the log or the counters.
    obs::CounterSet BlockCtrs;
    std::vector<obs::Decision> BlockDecisions;
    EngineObs Obs;
    Obs.Counters = Sink.Counters ? &BlockCtrs : nullptr;
    Obs.Decisions = Sink.Decisions ? &BlockDecisions : nullptr;
    Obs.Stage = "local";
    Obs.TargetBlock = ANode.Block;

    EngineResult Sched = Engine.run(Own, {}, AllFixed, NoSpec, nullptr, &Obs);
    if (!Sched.S.isOk() || Sched.Order.size() != Own.size()) {
      ++Stats.BlocksFailed;
      continue;
    }
    if (Sink.Counters)
      *Sink.Counters += BlockCtrs;
    if (Sink.Decisions)
      Sink.Decisions->insert(Sink.Decisions->end(),
                             std::make_move_iterator(BlockDecisions.begin()),
                             std::make_move_iterator(BlockDecisions.end()));

    std::vector<InstrId> NewContents;
    NewContents.reserve(Sched.Order.size());
    for (unsigned Node : Sched.Order)
      NewContents.push_back(DD.ddgNode(Node).Instr);
    if (NewContents != BB.instrs()) {
      ++Stats.BlocksReordered;
      if (Ckpt)
        Ckpt->noteBlock(ANode.Block); // save the pre-reorder list first
      BB.instrs() = std::move(NewContents);
      Facts.updatePositions(F, ANode.Block);
    }
  }
}

} // namespace
