//===- bench/bench_coldpath.cpp - E13: cold-path scheduling throughput -----===//
//
// Cold-compile throughput of the scheduler itself, cache off: functions
// per second over a multi-function random workload batch, one row per
// {-O0, -O2} x {useful, speculative} configuration of the cold path
// (DESIGN.md sections 14-15).  The results merge into BENCH_engine.json
// as the "coldpath" section, and the run *fails* when the speculative -O0
// rate -- the configuration gisc runs by default -- drops more than 10%
// below the value the previous run recorded there.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "obs/Counters.h"
#include "workloads/RandomProgram.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace gis;
using namespace gis::bench;

namespace {

constexpr unsigned BatchModules = 24;

std::vector<std::string> batchSources() {
  std::vector<std::string> Sources;
  Sources.reserve(BatchModules);
  for (unsigned K = 0; K != BatchModules; ++K)
    Sources.push_back(generateRandomMiniC(9000 + K));
  return Sources;
}

struct ColdRun {
  double Seconds = 0;
  unsigned Functions = 0;
  /// Batch totals of the coldpath.* registry (identical every rep: the
  /// machinery is deterministic, so whichever rep wins carries them).
  obs::CounterSet Counters;
  double funcsPerSec() const {
    return Seconds > 0 ? Functions / Seconds : 0.0;
  }
};

/// One cold batch compile: front end + scheduler for every module, no
/// cache anywhere.  Min-of-3 wall clock (least-noise estimate).
ColdRun measureCold(const std::vector<std::string> &Sources,
                    const PipelineOptions &Opts) {
  using Clock = std::chrono::steady_clock;
  ColdRun Best;
  for (unsigned Rep = 0; Rep != 3; ++Rep) {
    ColdRun R;
    auto Start = Clock::now();
    for (const std::string &Source : Sources) {
      auto M = compileMiniCOrDie(Source);
      PipelineStats Stats = scheduleModule(*M, MachineDescription::rs6k(), Opts);
      R.Counters += Stats.Counters;
      R.Functions += static_cast<unsigned>(M->functions().size());
    }
    R.Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
    if (Rep == 0 || R.Seconds < Best.Seconds)
      Best = R;
  }
  return Best;
}

struct MatrixPoint {
  unsigned OptLevel;
  const char *Level;
  double FuncsPerSec;
};

std::string jsonSection(const std::vector<MatrixPoint> &Points,
                        unsigned Functions, double Gate,
                        const obs::CounterSet &GateCounters) {
  std::string S = "{\n";
  S += "    \"batch_modules\": " + std::to_string(BatchModules) + ",\n";
  S += "    \"batch_functions\": " + std::to_string(Functions) + ",\n";
  S += "    \"points\": [\n";
  char Line[160];
  for (size_t K = 0; K != Points.size(); ++K) {
    const MatrixPoint &P = Points[K];
    std::snprintf(Line, sizeof(Line),
                  "      {\"opt\": %u, \"level\": \"%s\", "
                  "\"funcs_per_sec\": %.1f}%s\n",
                  P.OptLevel, P.Level, P.FuncsPerSec,
                  K + 1 == Points.size() ? "" : ",");
    S += Line;
  }
  // Machinery totals of the gate configuration's batch (DESIGN.md
  // section 15): how much work the cache, delta checkpoints and scoped
  // verification saved.
  S += "    ],\n    \"gate_counters\": {\n";
  const struct {
    const char *Key;
    obs::CounterId Id;
  } GateKeys[] = {
      {"disambig_cache_hits", obs::ColdDisambigCacheHits},
      {"disambig_cache_misses", obs::ColdDisambigCacheMisses},
      {"ckpt_bytes", obs::ColdCkptBytes},
      {"verify_blocks_scoped", obs::ColdVerifyBlocksScoped},
      {"verify_blocks_total", obs::ColdVerifyBlocksTotal},
  };
  for (size_t K = 0; K != std::size(GateKeys); ++K) {
    std::snprintf(Line, sizeof(Line), "      \"%s\": %llu%s\n",
                  GateKeys[K].Key,
                  static_cast<unsigned long long>(
                      GateCounters.get(GateKeys[K].Id)),
                  K + 1 == std::size(GateKeys) ? "" : ",");
    S += Line;
  }
  std::snprintf(Line, sizeof(Line),
                "    },\n    \"gate_funcs_per_sec\": %.1f,\n"
                "    \"gate_drop_tolerance\": 0.10\n  }",
                Gate);
  S += Line;
  return S;
}

/// Runs the matrix, prints the E13 table, merges the JSON section, and
/// returns nonzero when the regression gate trips.
int runE13() {
  std::vector<std::string> Sources = batchSources();

  std::printf("\nE13: cold-path scheduling throughput "
              "(cache off, %u modules, hardware threads: %u)\n",
              BatchModules, hardwareThreads());
  rule(72);
  std::printf("%6s%14s%14s\n", "OPT", "LEVEL", "FUNCS/SEC");
  rule(72);

  std::vector<MatrixPoint> Points;
  unsigned Functions = 0;
  double GateValue = 0; // speculative -O0
  obs::CounterSet GateCounters;
  for (unsigned OptLevel : {0u, 2u}) {
    for (const char *Level : {"useful", "speculative"}) {
      const bool Spec = std::string(Level) == "speculative";
      PipelineOptions Opts = Spec ? speculativeOptions() : usefulOptions();
      Opts.Opt.Level = OptLevel;
      ColdRun R = measureCold(Sources, Opts);
      Functions = R.Functions;
      double Rate = R.funcsPerSec();
      Points.push_back({OptLevel, Level, Rate});
      if (Spec && OptLevel == 0) {
        GateValue = Rate;
        GateCounters = R.Counters;
      }
      std::printf("%6s%14s%14.1f\n", OptLevel ? "-O2" : "-O0", Level, Rate);
    }
  }
  rule(72);

  const uint64_t Hits = GateCounters.get(obs::ColdDisambigCacheHits);
  const uint64_t Misses = GateCounters.get(obs::ColdDisambigCacheMisses);
  const uint64_t Scoped = GateCounters.get(obs::ColdVerifyBlocksScoped);
  const uint64_t Total = GateCounters.get(obs::ColdVerifyBlocksTotal);
  std::printf("\ncold-path machinery on the gate batch (speculative "
              "-O0):\n"
              "  disambig cache: %llu hits / %llu misses (%.0f%% hit rate)\n"
              "  delta checkpoints: %llu bytes recorded\n"
              "  scoped verification: %llu of %llu region blocks swept "
              "(%.0f%% skipped)\n",
              static_cast<unsigned long long>(Hits),
              static_cast<unsigned long long>(Misses),
              Hits + Misses ? 100.0 * Hits / (Hits + Misses) : 0.0,
              static_cast<unsigned long long>(
                  GateCounters.get(obs::ColdCkptBytes)),
              static_cast<unsigned long long>(Scoped),
              static_cast<unsigned long long>(Total),
              Total ? 100.0 * (Total - Scoped) / Total : 0.0);

  const char *Path = "BENCH_engine.json";
  // The previously recorded gate value: the speculative -O0 funcs/s of
  // the last run (0 when nothing is recorded yet).
  double Previous = recordedNumber(Path, "coldpath", "gate_funcs_per_sec");
  mergeJsonSection(Path, "bench_coldpath", "coldpath",
                   jsonSection(Points, Functions, GateValue, GateCounters));

  if (Previous > 0 && GateValue < 0.9 * Previous) {
    std::fprintf(stderr,
                 "bench_coldpath: REGRESSION -- speculative -O0 cold rate "
                 "%.1f funcs/s is more than 10%% below the recorded %.1f\n",
                 GateValue, Previous);
    return 1;
  }
  std::printf("\nregression gate: %.1f funcs/s recorded (previous %.1f, "
              "tolerance 10%%)\n",
              GateValue, Previous);
  return 0;
}

void BM_ColdSchedule(benchmark::State &State) {
  std::string Source = generateRandomMiniC(9001);
  PipelineOptions Opts = speculativeOptions();
  for (auto _ : State) {
    auto M = compileMiniCOrDie(Source);
    PipelineStats Stats = scheduleModule(*M, MachineDescription::rs6k(), Opts);
    benchmark::DoNotOptimize(Stats.Global.UsefulMotions);
  }
}
BENCHMARK(BM_ColdSchedule)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return runE13();
}
