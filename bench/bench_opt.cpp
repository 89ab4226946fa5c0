//===- bench/bench_opt.cpp - Experiment E12: optimizer x scheduler ---------===//
//
// The paper schedules IR the XL compiler had already optimized; src/opt/
// recreates that stage.  E12 measures how the mid-end optimizer changes
// the global scheduler's raw material and payoff: run-time cycles under
// useful-only and speculative scheduling at each -O level, plus the block-size and register-pressure deltas that explain
// the differences (smaller, cleaner blocks leave less local parallelism,
// so global motion matters more).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace gis;
using namespace gis::bench;

namespace {

struct SchedConfig {
  const char *Name;
  PipelineOptions Opts;
};

std::vector<SchedConfig> schedConfigs() {
  std::vector<SchedConfig> C;
  C.push_back({"base", baseOptions()});
  C.push_back({"useful", usefulOptions()});
  C.push_back({"spec", speculativeOptions()});
  return C;
}

PipelineOptions withOptLevel(PipelineOptions Opts, unsigned Level) {
  Opts.Opt.Level = Level;
  return Opts;
}

/// Average instructions per (non-empty) layout block across the module's
/// functions -- the block size the global scheduler actually sees.
double averageBlockSize(const Module &M) {
  uint64_t Instrs = 0, Blocks = 0;
  for (const auto &F : M.functions())
    for (BlockId B : F->layout()) {
      if (F->block(B).instrs().empty())
        continue;
      Instrs += F->block(B).instrs().size();
      ++Blocks;
    }
  return Blocks ? static_cast<double>(Instrs) / static_cast<double>(Blocks)
                : 0.0;
}

/// One (workload, opt level, sched config) measurement.
struct Cell {
  uint64_t Cycles = 0;
  double AvgBlock = 0;    ///< block size after opt + scheduling
  unsigned GprPeak = 0;   ///< peak GPR pressure of the scheduled code
  unsigned SpecMotions = 0;
};

Cell measure(const Workload &W, const MachineDescription &MD,
             const PipelineOptions &Opts) {
  auto M = compileMiniCOrDie(W.Source);
  PipelineStats Stats = scheduleModule(*M, MD, Opts);
  Cell C;
  C.Cycles = runWorkloadCycles(W, *M, MD);
  C.AvgBlock = averageBlockSize(*M);
  C.GprPeak = Stats.PressurePeak[0];
  C.SpecMotions = Stats.Global.SpeculativeMotions;
  return C;
}

void BM_OptimizedPipeline(benchmark::State &State) {
  const Workload W = specLikeWorkloads()[static_cast<size_t>(State.range(0))];
  const unsigned Level = static_cast<unsigned>(State.range(1));
  MachineDescription MD = MachineDescription::rs6k();
  PipelineOptions Opts = withOptLevel(speculativeOptions(), Level);
  for (auto _ : State) {
    auto M = buildWorkload(W, MD, Opts);
    benchmark::DoNotOptimize(M);
  }
  State.SetLabel(W.Name + formatString(" -O%u", Level));
}
BENCHMARK(BM_OptimizedPipeline)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 2}})
    ->Unit(benchmark::kMillisecond);

void printCycleTable() {
  MachineDescription MD = MachineDescription::rs6k();

  std::printf("\nE12: optimizer x global scheduler (run-time cycles, "
              "RS/6000)\n");
  rule(90);
  std::printf("%-14s", "CONFIG");
  for (const Workload &W : specLikeWorkloads())
    std::printf("%12s", W.Name.c_str());
  std::printf("%12s%8s\n", "TOTAL", "RTI");
  rule(90);

  for (unsigned Level = 0; Level != 3; ++Level) {
    double LevelBase = 0;
    for (const SchedConfig &SC : schedConfigs()) {
      std::printf("-O%u %-10s", Level, SC.Name);
      double Total = 0;
      for (const Workload &W : specLikeWorkloads()) {
        Cell C = measure(W, MD, withOptLevel(SC.Opts, Level));
        Total += static_cast<double>(C.Cycles);
        std::printf("%12llu", static_cast<unsigned long long>(C.Cycles));
      }
      if (LevelBase == 0)
        LevelBase = Total; // the "base" row of this level
      std::printf("%12.0f%7.1f%%\n", Total,
                  100.0 * (1.0 - Total / LevelBase));
    }
  }
  rule(90);
  std::printf("RTI is run-time improvement over the same -O level's base "
              "(local-only) row, the\npaper's Table 2 metric; rows compare "
              "scheduling aggressiveness at fixed -O.\n");
}

void printDeltaTable() {
  MachineDescription MD = MachineDescription::rs6k();

  std::printf("\nE12b: what -O changes about the scheduler's input and "
              "payoff (speculative\nconfiguration, totals across "
              "workloads)\n");
  rule(90);
  std::printf("%-6s%12s%12s%12s%12s%14s\n", "LEVEL", "AVG BLOCK", "GPR PEAK",
              "SPEC MOVES", "USEFUL CYC", "SPEC PAYOFF");
  rule(90);

  std::string Json;
  for (unsigned Level = 0; Level != 3; ++Level) {
    double Useful = 0, Spec = 0, BlockSum = 0;
    unsigned GprPeak = 0, SpecMoves = 0;
    for (const Workload &W : specLikeWorkloads()) {
      Useful += static_cast<double>(
          measure(W, MD, withOptLevel(usefulOptions(), Level)).Cycles);
      Cell C = measure(W, MD, withOptLevel(speculativeOptions(), Level));
      Spec += static_cast<double>(C.Cycles);
      BlockSum += C.AvgBlock;
      GprPeak = GprPeak > C.GprPeak ? GprPeak : C.GprPeak;
      SpecMoves += C.SpecMotions;
    }
    double AvgBlock =
        BlockSum / static_cast<double>(specLikeWorkloads().size());
    double Payoff = 100.0 * (1.0 - Spec / Useful);
    std::printf("-O%u   %12.1f%12u%12u%12.0f%13.1f%%\n", Level, AvgBlock,
                GprPeak, SpecMoves, Useful, Payoff);
    Json += formatString("%s    {\"level\": %u, \"useful_cycles\": %.0f, "
                         "\"spec_cycles\": %.0f,\n     \"avg_block\": %.2f, "
                         "\"gpr_peak\": %u, \"spec_payoff_pct\": %.2f}",
                         Level ? ",\n" : "", Level, Useful, Spec, AvgBlock,
                         GprPeak, Payoff);
  }
  rule(90);
  std::printf("AVG BLOCK is instructions per non-empty block after opt + "
              "scheduling; SPEC\nPAYOFF is the speculative configuration's "
              "improvement over useful-only at the\nsame level.\n");

  std::string Section =
      formatString("{\n    \"levels\": [\n%s\n    ]\n  }", Json.c_str());
  if (mergeJsonSection("BENCH_engine.json", "bench_opt", "opt", Section))
    std::printf("wrote optimizer x scheduler results to BENCH_engine.json\n");
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printCycleTable();
  printDeltaTable();
  return 0;
}
