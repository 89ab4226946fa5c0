//===- sched/Report.cpp - Per-function scheduling report -------------------===//

#include "sched/Report.h"

#include "analysis/LoopInfo.h"
#include "analysis/MemDisambig.h"
#include "analysis/RegPressure.h"
#include "sched/LocalScheduler.h"
#include "support/Format.h"

#include <ostream>

using namespace gis;

namespace {

/// Static latency estimate: each block list-scheduled in isolation, as the
/// local pass schedules it, the block makespans summed.  Comparable
/// before/after scheduling because the instruction multiset only changes
/// by motion (and bounded duplication).
uint64_t staticCycleEstimate(const Function &F, const MachineDescription &MD) {
  const DisambigFacts Facts = DisambigFacts::build(F);
  uint64_t Total = 0;
  for (BlockId B : F.layout())
    if (!F.block(B).empty())
      Total += scheduleBlock(F, B, MD, Facts).Makespan;
  return Total;
}

} // namespace

std::vector<FunctionInventory>
gis::snapshotModule(const Module &M, const MachineDescription &MD) {
  std::vector<FunctionInventory> Out;
  for (const auto &FPtr : M.functions()) {
    Function &F = *FPtr;
    F.recomputeCFG();
    FunctionInventory S;
    S.Name = F.name();
    S.Blocks = F.numBlocks();
    for (BlockId B : F.layout())
      S.Instructions += static_cast<unsigned>(F.block(B).size());
    LoopInfo LI = LoopInfo::compute(F);
    S.Loops = LI.numLoops();
    S.Reducible = LI.isReducible();
    S.StaticCycleEstimate = staticCycleEstimate(F, MD);
    RegPressure P = computeRegPressure(F);
    S.PeakLive = P.MaxLive;
    Out.push_back(std::move(S));
  }
  return Out;
}

ScheduleReport gis::scheduleWithReport(Module &M,
                                       const MachineDescription &MD,
                                       const PipelineOptions &Opts) {
  ScheduleReport R;
  R.Before = snapshotModule(M, MD);
  R.Stats = scheduleModule(M, MD, Opts);
  R.After = snapshotModule(M, MD);
  return R;
}

void gis::printReport(const ScheduleReport &R, std::ostream &OS) {
  OS << formatString("%-16s %18s %18s %14s %12s\n", "FUNCTION",
                     "blocks/instrs", "static cycles", "peak GPR/CR",
                     "loops");
  OS << std::string(84, '-') << "\n";
  for (size_t K = 0; K != R.After.size(); ++K) {
    const FunctionInventory &B = R.Before[K];
    const FunctionInventory &A = R.After[K];
    OS << formatString(
        "%-16s %8u->%-8u %8llu->%-8llu %5u->%-2u/%u->%-2u %7u%s\n",
        A.Name.c_str(), B.Instructions, A.Instructions,
        static_cast<unsigned long long>(B.StaticCycleEstimate),
        static_cast<unsigned long long>(A.StaticCycleEstimate),
        B.PeakLive[0], A.PeakLive[0], B.PeakLive[2], A.PeakLive[2], A.Loops,
        A.Reducible ? "" : "  (irreducible)");
  }
  OS << std::string(84, '-') << "\n";
  OS << "motions: " << R.Stats.Global.UsefulMotions << " useful, "
     << R.Stats.Global.SpeculativeMotions << " speculative ("
     << R.Stats.Global.VetoedSpeculations << " vetoed, "
     << R.Stats.Global.Renames << " renames); "
     << R.Stats.LoopsUnrolled << " loops unrolled, " << R.Stats.LoopsRotated
     << " rotated; " << R.Stats.PreRenamedDefs << " defs pre-renamed; "
     << R.Stats.RegionsSkippedBySize << " regions over the size cap\n";
}
