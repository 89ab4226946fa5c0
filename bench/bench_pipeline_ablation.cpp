//===- bench/bench_pipeline_ablation.cpp - Experiment E6: design choices ---===//
//
// Ablation of the Section 6 design decisions: each stage of the pipeline
// (loop unrolling, loop rotation, speculative level, register renaming,
// the final basic-block pass) is toggled individually and the run-time
// improvement over the local-only baseline is reported per workload.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "obs/Trace.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace gis;
using namespace gis::bench;

namespace {

struct Config {
  const char *Name;
  PipelineOptions Opts;
};

std::vector<Config> configs() {
  std::vector<Config> C;
  C.push_back({"full pipeline", speculativeOptions()});

  PipelineOptions NoUnroll = speculativeOptions();
  NoUnroll.EnableUnroll = false;
  C.push_back({"- unrolling", NoUnroll});

  PipelineOptions NoRotate = speculativeOptions();
  NoRotate.EnableRotate = false;
  C.push_back({"- rotation", NoRotate});

  PipelineOptions NoSpec = usefulOptions();
  C.push_back({"- speculation", NoSpec});

  PipelineOptions NoRename = speculativeOptions();
  NoRename.EnableRenaming = false;
  C.push_back({"- renaming", NoRename});

  PipelineOptions NoPreRename = speculativeOptions();
  NoPreRename.EnablePreRenaming = false;
  C.push_back({"- pre-renaming", NoPreRename});

  PipelineOptions NoLocal = speculativeOptions();
  NoLocal.RunLocalScheduler = false;
  C.push_back({"- local pass", NoLocal});

  PipelineOptions Deep = speculativeOptions();
  Deep.MaxSpecDepth = 3;
  Deep.OnlyTwoInnerLevels = false;
  C.push_back({"+ deep spec (ext)", Deep});

  PipelineOptions Opt = speculativeOptions();
  Opt.Opt.Level = 2;
  C.push_back({"+ optimizer -O2", Opt});
  return C;
}

void BM_FullPipeline(benchmark::State &State) {
  const Workload W = specLikeWorkloads()[static_cast<size_t>(State.range(0))];
  MachineDescription MD = MachineDescription::rs6k();
  for (auto _ : State) {
    auto M = buildWorkload(W, MD, speculativeOptions());
    benchmark::DoNotOptimize(M);
  }
  State.SetLabel(W.Name);
}
BENCHMARK(BM_FullPipeline)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void printPaperTable() {
  MachineDescription MD = MachineDescription::rs6k();
  std::vector<Config> Cs = configs();

  std::printf("\nE6: pipeline-stage ablation (run-time improvement over "
              "base, RS/6000)\n");
  rule(90);
  std::printf("%-19s", "CONFIG");
  for (const Workload &W : specLikeWorkloads())
    std::printf("%12s", W.Name.c_str());
  std::printf("%12s\n", "ALL");
  rule(90);

  for (const Config &C : Cs) {
    std::printf("%-19s", C.Name);
    double TotalBase = 0, TotalSched = 0;
    for (const Workload &W : specLikeWorkloads()) {
      uint64_t Base = workloadCycles(W, MD, baseOptions());
      uint64_t Sched = workloadCycles(W, MD, C.Opts);
      TotalBase += static_cast<double>(Base);
      TotalSched += static_cast<double>(Sched);
      std::printf("%11.1f%%", 100.0 * (1.0 - double(Sched) / double(Base)));
    }
    std::printf("%11.1f%%\n", 100.0 * (1.0 - TotalSched / TotalBase));
  }
  rule(90);
  std::printf("each '-' row removes one stage from the paper's Section 6 "
              "flow; '+ deep spec'\nexercises the paper's future-work "
              "extension (3-branch speculation, all region\nlevels).\n");
}

// Compile-time cost of the transactional layer (checkpointing plus the
// structural and semantic verifiers), measured as scheduling-only seconds
// relative to a transactions-off run.  The differential oracle is far too
// slow for release compiles and stays off by default; set GIS_BENCH_ORACLE
// to include it as a debug row.
void printTransactionTable() {
  MachineDescription MD = MachineDescription::rs6k();
  std::vector<Config> Cs;

  PipelineOptions Off = speculativeOptions();
  Off.EnableTransactions = false;
  Cs.push_back({"transactions off", Off});

  PipelineOptions Snap = speculativeOptions();
  Snap.VerifyStructural = false;
  Snap.VerifySemantic = false;
  Cs.push_back({"+ checkpoint/rollback", Snap});

  PipelineOptions Struct = speculativeOptions();
  Struct.VerifySemantic = false;
  Cs.push_back({"+ structural verify", Struct});

  Cs.push_back({"+ semantic verify", speculativeOptions()});

  if (std::getenv("GIS_BENCH_ORACLE")) {
    PipelineOptions Oracle = speculativeOptions();
    Oracle.EnableOracle = true;
    Cs.push_back({"+ oracle (debug)", Oracle});
  }

  std::printf("\nE7: transactional-layer compile-time overhead "
              "(scheduling-only, RS/6000)\n");
  rule(90);
  std::printf("%-22s", "CONFIG");
  for (const Workload &W : specLikeWorkloads())
    std::printf("%12s", W.Name.c_str());
  std::printf("%12s%10s\n", "OVERHEAD", "ROLLBACKS");
  rule(90);

  double Reference = 0;
  for (const Config &C : Cs) {
    std::printf("%-22s", C.Name);
    double Total = 0;
    unsigned Rollbacks = 0;
    for (const Workload &W : specLikeWorkloads()) {
      double Secs = scheduleOnlySeconds(W, MD, C.Opts);
      Total += Secs;
      Rollbacks += scheduleRollbacks(W, MD, C.Opts);
      std::printf("%10.2fms", Secs * 1e3);
    }
    if (Reference == 0)
      Reference = Total;
    std::printf("%11.1f%%%10u\n", 100.0 * (Total / Reference - 1.0),
                Rollbacks);
  }
  rule(90);
  std::printf("OVERHEAD is total scheduling time relative to the first "
              "row; ROLLBACKS must be 0\noutside fault injection "
              "(GIS_FAULT_INJECT).\n");
}

// Compile-time cost of the observability subsystem (src/obs/), measured
// like E7 as scheduling-only seconds.  The guarded number is the cost of
// the *default* configuration -- counters on, tracer off -- over a run
// with all collection disabled: the issue budget is < 2%.  The result is
// merged into BENCH_engine.json (key "observability") next to the engine
// throughput numbers so the perf trajectory is machine-trackable.
/// Scheduling-only seconds for one workload, measured directly: the
/// module is compiled once and each timed call schedules fresh copies of
/// its functions.  Minimum of several trials -- the obs deltas under test
/// are percent-level, far below the noise of a single differenced
/// measurement (scheduleOnlySeconds subtracts two independently noisy
/// quantities).
double minScheduleSeconds(const Workload &W, const MachineDescription &MD,
                          const PipelineOptions &Opts) {
  auto M = compileMiniCOrDie(W.Source);
  double Best = 1e9;
  for (unsigned Trial = 0; Trial != 5; ++Trial) {
    double Secs = secondsPerCall([&] {
      for (const auto &F : M->functions()) {
        Function Copy = *F;
        schedulePipeline(Copy, MD, Opts);
      }
    });
    Best = Best < Secs ? Best : Secs;
  }
  return Best;
}

void printObservabilityTable() {
  MachineDescription MD = MachineDescription::rs6k();
  std::vector<Config> Cs;

  PipelineOptions Off = speculativeOptions();
  Off.CollectCounters = false;
  Off.CollectDecisions = false;
  Cs.push_back({"obs off", Off});

  Cs.push_back({"counters (default)", speculativeOptions()});

  PipelineOptions Decisions = speculativeOptions();
  Decisions.CollectDecisions = true;
  Cs.push_back({"+ decision log", Decisions});

  Cs.push_back({"+ tracer on", speculativeOptions()});

  std::printf("\nE8: observability compile-time overhead "
              "(scheduling-only, RS/6000)\n");
  rule(90);
  std::printf("%-22s", "CONFIG");
  for (const Workload &W : specLikeWorkloads())
    std::printf("%12s", W.Name.c_str());
  std::printf("%12s\n", "OVERHEAD");
  rule(90);

  double Reference = 0, DefaultOverhead = 0, TracerOverhead = 0;
  for (size_t K = 0; K != Cs.size(); ++K) {
    const Config &C = Cs[K];
    const bool Traced = K == 3; // "+ tracer on"
    if (Traced)
      obs::Tracer::instance().enable();
    std::printf("%-22s", C.Name);
    double Total = 0;
    for (const Workload &W : specLikeWorkloads()) {
      double Secs = minScheduleSeconds(W, MD, C.Opts);
      Total += Secs;
      std::printf("%10.2fms", Secs * 1e3);
    }
    if (Traced) {
      obs::Tracer::instance().disable();
      obs::Tracer::instance().clear();
    }
    if (Reference == 0)
      Reference = Total;
    double Overhead = 100.0 * (Total / Reference - 1.0);
    if (K == 1)
      DefaultOverhead = Overhead;
    if (Traced)
      TracerOverhead = Overhead;
    std::printf("%11.1f%%\n", Overhead);
  }
  rule(90);
  std::printf("the guarded number is row 2 (the default configuration: "
              "counters on, tracer\noff) -- budget < 2%%.  '+ tracer on' "
              "includes per-cycle instant events.\n");

  // Merge into BENCH_engine.json next to the engine throughput numbers.
  std::string Section = formatString("{\n"
                                     "    \"default_overhead_pct\": %.2f,\n"
                                     "    \"tracer_on_overhead_pct\": %.2f,\n"
                                     "    \"budget_pct\": 2.0\n  }",
                                     DefaultOverhead, TracerOverhead);
  if (!mergeJsonSection("BENCH_engine.json", "bench_pipeline_ablation",
                        "observability", Section))
    return;
  std::printf("wrote observability overhead to BENCH_engine.json\n");
  if (DefaultOverhead >= 2.0)
    std::printf("WARNING: default observability overhead %.2f%% exceeds "
                "the 2%% budget\n",
                DefaultOverhead);
}

// Compile-time cost of each mid-end optimizer pass at -O2, from the
// OptStats::PassTimes records the pass manager keeps per committed or
// rolled-back pass transaction.  Complements E12 (bench_opt.cpp), which
// measures the run-time side of the same configuration.
void printOptPassTable() {
  MachineDescription MD = MachineDescription::rs6k();
  PipelineOptions Opts = speculativeOptions();
  Opts.Opt.Level = 2;

  std::printf("\nE6b: per-pass optimizer compile time at -O2 "
              "(milliseconds)\n");
  rule(90);
  std::printf("%-19s", "PASS");
  for (const Workload &W : specLikeWorkloads())
    std::printf("%12s", W.Name.c_str());
  std::printf("%12s\n", "ALL");
  rule(90);

  std::array<std::vector<double>, opt::NumOptPasses> Times;
  for (auto &T : Times)
    T.assign(specLikeWorkloads().size(), 0.0);
  for (size_t WK = 0; WK != specLikeWorkloads().size(); ++WK) {
    auto M = compileMiniCOrDie(specLikeWorkloads()[WK].Source);
    PipelineStats Stats = scheduleModule(*M, MD, Opts);
    for (const opt::OptPassTime &PT : Stats.Opt.PassTimes)
      Times[static_cast<unsigned>(PT.Pass)][WK] += PT.Seconds;
  }
  for (opt::PassId P : opt::passPipeline()) {
    std::printf("%-19s", opt::passInfo(P).Name);
    double Total = 0;
    for (size_t WK = 0; WK != specLikeWorkloads().size(); ++WK) {
      double Ms = Times[static_cast<unsigned>(P)][WK] * 1e3;
      Total += Ms;
      std::printf("%10.3fms", Ms);
    }
    std::printf("%10.3fms\n", Total);
  }
  rule(90);
  std::printf("per-pass wall-clock includes the transactional wrapper "
              "(checkpoint + verify);\nsee E7 for the wrapper's own "
              "cost.\n");
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printPaperTable();
  printOptPassTable();
  printTransactionTable();
  printObservabilityTable();
  return 0;
}
