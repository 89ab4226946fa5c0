//===- gisbench/src/Probes.cpp - Per-layer probes and sched metrics -------===//
//
// schedulePipeline calls the analysis, opt, trace and regalloc layers
// internally, where the benchmark cannot place spans.  The traced run
// probes them through their public entry points, on copies of the same
// functions and outside the traced window; their work counts come from the
// PipelineStats of the real run.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/PDG.h"
#include "analysis/Region.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/PassManager.h"
#include "regalloc/LinearScan.h"
#include "trace/TraceFormation.h"

#include <algorithm>
#include <sstream>

using namespace gis;

namespace gisbench {

namespace {

struct ProbeTotals {
  double Seconds = 0;
  uint64_t Allocs = 0;

  template <typename Fn> void time(Fn &&Body) {
    uint64_t A0 = threadAllocs();
    Clock::time_point T0 = Clock::now();
    Body();
    Seconds += secondsSince(T0);
    Allocs += threadAllocs() - A0;
  }
  double usPer(uint64_t N) const { return N ? 1e6 * Seconds / N : 0; }
  double allocsPer(uint64_t N) const {
    return N ? static_cast<double>(Allocs) / N : 0;
  }
};

uint64_t functionInstrs(const Function &F) {
  uint64_t N = 0;
  for (BlockId B : F.layout())
    N += F.block(B).instrs().size();
  return N;
}

} // namespace

void probeLayers(Outcome &Out, const std::vector<const Function *> &Funcs,
                 const std::vector<const Module *> &Scheduled,
                 const MachineDescription &MD, const PipelineOptions &Opts,
                 const PipelineStats &RealRun, uint64_t RealFuncs,
                 bool ProbePrint) {
  const uint64_t N = Funcs.size();
  ProbeTotals Loop, Live, Pdg, Opt, Form, Alloc;
  uint64_t AnalysisAllocs = 0, DdgEdges = 0, OptInstrs = 0;
  for (const Function *Orig : Funcs) {
    Function F = *Orig;
    F.recomputeCFG();
    LoopInfo LI;
    Loop.time([&] { LI = LoopInfo::compute(F); });
    Live.time([&] { Liveness L = Liveness::compute(F); });
    if (LI.isReducible()) {
      std::vector<int> Regions;
      for (unsigned Idx : LI.innermostFirstOrder())
        Regions.push_back(static_cast<int>(Idx));
      Regions.push_back(-1);
      for (int Idx : Regions) {
        SchedRegion R = SchedRegion::build(F, LI, Idx);
        if (R.numRealBlocks() > Opts.RegionBlockLimit ||
            R.numInstrs() > Opts.RegionInstrLimit)
          continue;
        Pdg.time([&] {
          PDG P = PDG::build(F, R, MD);
          DdgEdges += P.dataDeps().edges().size();
        });
      }
    }

    if (Opts.Opt.anyEnabled()) {
      Function G = *Orig;
      G.recomputeCFG();
      TransactionConfig Tx;
      Tx.Enabled = Opts.EnableTransactions;
      Tx.VerifyStructural = Opts.VerifyStructural;
      obs::CounterSet Counters;
      Opt.time([&] { opt::runOptPasses(G, MD, Opts.Opt, Tx, &Counters); });
      OptInstrs += functionInstrs(G);
    } else {
      OptInstrs += functionInstrs(*Orig);
    }

    if (Opts.EnableSuperblocks) {
      TraceFormationOptions TO;
      TO.MaxBlocks = std::min(Opts.TraceMaxBlocks, Opts.RegionBlockLimit);
      TO.Profile = Opts.Profile;
      Form.time([&] { formTraces(F, LI, TO); });
    }

    if (Opts.AllocateRegisters) {
      Function G = *Orig;
      G.recomputeCFG();
      RegAllocStats RS;
      Alloc.time([&] { (void)allocateRegisters(G, MD, RS); });
    }
  }
  AnalysisAllocs = Loop.Allocs + Live.Allocs + Pdg.Allocs;

  ProbeTotals Verify, Print;
  uint64_t ScheduledFuncs = 0;
  for (const Module *M : Scheduled) {
    for (const auto &F : M->functions()) {
      Verify.time([&] { (void)verifyFunction(*F); });
      ++ScheduledFuncs;
    }
    if (ProbePrint) {
      std::ostringstream OS;
      Print.time([&] { printModule(*M, OS); });
    }
  }

  auto &L = Out.PerLayer;
  setMetric(L, "analysis.loopinfo_us_per_func", Loop.usPer(N), "us");
  setMetric(L, "analysis.pdg_us_per_func", Pdg.usPer(N), "us");
  setMetric(L, "analysis.liveness_us_per_func", Live.usPer(N), "us");
  setMetric(L, "analysis.allocs_per_func", ratio(AnalysisAllocs, N),
            "count");
  setMetric(L, "analysis.ddg_edges_per_func", ratio(DdgEdges, N), "count");

  const opt::OptStats &OS = RealRun.Opt;
  uint64_t Rewrites = OS.PeepholeRewrites + OS.StrengthReduced +
                      OS.ValuesNumbered + OS.DeadRemoved;
  setMetric(L, "opt.us_per_func", Opt.usPer(N), "us");
  setMetric(L, "opt.allocs_per_func", Opt.allocsPer(N), "count");
  setMetric(L, "opt.rewrites_per_func", ratio(Rewrites, RealFuncs), "count");
  setMetric(L, "opt.ir_instrs_per_func", ratio(OptInstrs, N), "instrs");

  setMetric(L, "trace.form_us_per_func", Form.usPer(N), "us");
  setMetric(L, "trace.superblocks_scheduled", RealRun.SuperblocksScheduled,
            "count");
  setMetric(L, "trace.tail_dup_instrs", RealRun.TailDupInstrs, "instrs");
  setMetric(L, "trace.truncated", RealRun.TracesTruncated, "count");

  uint64_t Spills = RealRun.RegAlloc.SpillStores + RealRun.RegAlloc.SpillReloads;
  setMetric(L, "regalloc.us_per_func", Alloc.usPer(N), "us");
  setMetric(L, "regalloc.spill_instrs", static_cast<double>(Spills),
            "instrs");
  setMetric(L, "regalloc.failures", RealRun.RegAllocFailures, "count");

  setMetric(L, "ir.verify_us_per_func", Verify.usPer(ScheduledFuncs), "us");
  if (ProbePrint)
    setMetric(L, "ir.print_us_per_func", Print.usPer(ScheduledFuncs), "us");

  auto &D = Out.Deterministic;
  D["analysis.ddg_edges_per_func"] = ratio(DdgEdges, N);
  D["analysis.allocs_per_func"] = ratio(AnalysisAllocs, N);
  D["opt.allocs_per_func"] = Opt.allocsPer(N);
  D["opt.rewrites_per_func"] = ratio(Rewrites, RealFuncs);
  D["opt.ir_instrs_per_func"] = ratio(OptInstrs, N);
  D["trace.superblocks_scheduled"] = RealRun.SuperblocksScheduled;
  D["trace.tail_dup_instrs"] = RealRun.TailDupInstrs;
  D["trace.truncated"] = RealRun.TracesTruncated;
  D["regalloc.spill_instrs"] = static_cast<double>(Spills);
  D["regalloc.failures"] = RealRun.RegAllocFailures;
}

void addSchedMetrics(Outcome &Out, const PipelineStats &Stats,
                     const SpanTotals &Sched, uint64_t Funcs) {
  const obs::CounterSet &C = Stats.Counters;
  auto Per = [&](double X) { return Funcs ? X / Funcs : 0; };
  auto &L = Out.PerLayer;
  setMetric(L, "sched.us_per_func", Per(1e6 * Sched.SelfSeconds), "us");
  setMetric(L, "sched.allocs_per_func",
            Per(static_cast<double>(Sched.SelfAllocs)), "count");
  setMetric(L, "sched.alloc_bytes_per_func",
            Per(static_cast<double>(Sched.SelfBytes)), "bytes");
  std::vector<std::pair<const char *, double>> Counts = {
      {"sched.rollbacks",
       Stats.RegionsRolledBack + Stats.TransformsRolledBack},
      {"sched.regions_skipped_by_size", Stats.RegionsSkippedBySize},
      {"sched.liveness_delta_ratio",
       ratio(C.get(obs::ColdLivenessDelta),
             C.get(obs::ColdLivenessDelta) + C.get(obs::ColdLivenessFull))},
      {"sched.disambig_hit_ratio",
       ratio(C.get(obs::ColdDisambigCacheHits),
             C.get(obs::ColdDisambigCacheHits) +
                 C.get(obs::ColdDisambigCacheMisses))},
      {"sched.verify_scoped_ratio",
       ratio(C.get(obs::ColdVerifyBlocksScoped),
             C.get(obs::ColdVerifyBlocksTotal))},
      {"sched.motions_useful", static_cast<double>(C.get(obs::MotionUseful))},
      {"sched.motions_spec",
       static_cast<double>(C.get(obs::MotionSpeculative))},
  };
  for (auto &[Name, Value] : Counts) {
    bool IsRatio = std::string(Name).find("ratio") != std::string::npos;
    setMetric(L, Name, Value, IsRatio ? "ratio" : "count");
    Out.Deterministic[Name] = Value;
  }
  Out.Deterministic["sched.allocs_per_func"] =
      Per(static_cast<double>(Sched.SelfAllocs));
  Out.Deterministic["sched.alloc_bytes_per_func"] =
      Per(static_cast<double>(Sched.SelfBytes));
}

} // namespace gisbench
