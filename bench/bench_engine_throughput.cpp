//===- bench/bench_engine_throughput.cpp - Engine scaling & cache sweeps ---===//
//
// Throughput of the parallel batch-compilation engine on a synthetic
// workload batch: functions-per-second across a worker-thread sweep sized
// from the host's hardware concurrency, schedule-cache hit-rate sweeps
// (cold cache, in-batch duplicates, warm repeated batch), and the E11
// warm-restart experiment (a restarted engine process re-serving a
// duplicate-heavy batch from the persistent disk tier).  Alongside the
// human-readable tables the run merges its own members into
// BENCH_engine.json, leaving the other benches' sections in place, so the
// perf trajectory is machine-trackable across PRs.  Thread scaling is only
// meaningful up to the host's hardware concurrency, which is recorded in
// the JSON next to the measurements.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "engine/CompileEngine.h"
#include "workloads/RandomProgram.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

using namespace gis;
using namespace gis::bench;

namespace {

constexpr unsigned BatchModules = 48;

/// Mini-C sources of the synthetic batch: \p Unique distinct random
/// programs cycled to \p Total modules (Total == Unique: no duplicates).
std::vector<std::string> batchSources(unsigned Unique, unsigned Total) {
  std::vector<std::string> Sources;
  Sources.reserve(Total);
  for (unsigned K = 0; K != Total; ++K)
    Sources.push_back(generateRandomMiniC(7000 + K % Unique));
  return Sources;
}

struct CompiledBatch {
  std::vector<std::unique_ptr<Module>> Modules;
  std::vector<BatchItem> Items;
};

CompiledBatch frontEnd(const std::vector<std::string> &Sources) {
  CompiledBatch B;
  for (size_t K = 0; K != Sources.size(); ++K) {
    B.Modules.push_back(compileMiniCOrDie(Sources[K]));
    B.Items.push_back(
        BatchItem{B.Modules.back().get(), "m" + std::to_string(K)});
  }
  return B;
}

EngineReport runOnce(const std::vector<std::string> &Sources, unsigned Jobs,
                     ScheduleCache *Shared, const std::string &CacheDir = "") {
  CompiledBatch B = frontEnd(Sources);
  EngineOptions EOpts;
  EOpts.Jobs = Jobs;
  EOpts.SharedCache = Shared;
  EOpts.CacheDir = CacheDir;
  CompileEngine Engine(MachineDescription::rs6k(), speculativeOptions(),
                       EOpts);
  return Engine.compileBatch(B.Items);
}

/// Worker-thread sweep sized from the host: powers of two up to the
/// hardware concurrency, plus the concurrency itself when it is not a
/// power of two.  Hardcoding {1,2,4,8} under-measures wide hosts and
/// reports meaningless oversubscription on narrow ones.
std::vector<unsigned> threadSweep() {
  unsigned HW = hardwareThreads();
  std::vector<unsigned> Sweep;
  for (unsigned T = 1; T <= HW; T *= 2)
    Sweep.push_back(T);
  if (Sweep.back() != HW)
    Sweep.push_back(HW);
  return Sweep;
}

/// Median-of-3 engine runs (fresh modules each time, shared cache state
/// carried through only when \p Shared is given).
EngineReport measure(const std::vector<std::string> &Sources, unsigned Jobs,
                     ScheduleCache *Shared = nullptr) {
  EngineReport Best = runOnce(Sources, Jobs, Shared);
  for (unsigned K = 0; K != 2 && !Shared; ++K) {
    EngineReport R = runOnce(Sources, Jobs, nullptr);
    if (R.WallSeconds < Best.WallSeconds)
      Best = R; // min-of-3: least-noise estimate
  }
  return Best;
}

struct ThreadPoint {
  unsigned Threads;
  double FuncsPerSec;
  double Speedup;
};

struct CachePoint {
  std::string Scenario;
  double HitRate;
  double FuncsPerSec;
};

/// E11: schedule-cache hit rates across an engine-process restart.  The
/// restarted process starts with an empty memory tier and re-serves the
/// batch from the disk tier alone; the acceptance bar is reaching 90% of
/// the same-process warm rate.
struct WarmRestartResult {
  double ColdRate = 0;    ///< fresh process, empty cache directory
  double WarmRate = 0;    ///< same-process repeat (memory tier)
  double RestartRate = 0; ///< fresh process, populated directory
  double ratioToWarm() const {
    return WarmRate > 0 ? RestartRate / WarmRate : 0.0;
  }
};

/// Merges the engine sweeps into BENCH_engine.json.  Only this bench's
/// own members are replaced; the sections other benches wrote stay.
void writeJson(const std::vector<ThreadPoint> &Threads,
               const std::vector<CachePoint> &Cache,
               const WarmRestartResult &Restart, unsigned Functions) {
  std::string ThreadsJson = "[\n";
  for (size_t K = 0; K != Threads.size(); ++K)
    ThreadsJson += formatString(
        "    {\"threads\": %u, \"funcs_per_sec\": %.1f, "
        "\"speedup\": %.2f}%s\n",
        Threads[K].Threads, Threads[K].FuncsPerSec, Threads[K].Speedup,
        K + 1 == Threads.size() ? "" : ",");
  ThreadsJson += "  ]";
  std::string CacheJson = "[\n";
  for (size_t K = 0; K != Cache.size(); ++K)
    CacheJson += formatString(
        "    {\"scenario\": \"%s\", \"hit_rate\": %.3f, "
        "\"funcs_per_sec\": %.1f}%s\n",
        Cache[K].Scenario.c_str(), Cache[K].HitRate, Cache[K].FuncsPerSec,
        K + 1 == Cache.size() ? "" : ",");
  CacheJson += "  ]";
  std::string RestartJson = formatString(
      "{\n"
      "    \"cold_hit_rate\": %.3f,\n"
      "    \"warm_hit_rate\": %.3f,\n"
      "    \"restart_hit_rate\": %.3f,\n"
      "    \"restart_to_warm_ratio\": %.3f,\n"
      "    \"target_ratio\": 0.9\n  }",
      Restart.ColdRate, Restart.WarmRate, Restart.RestartRate,
      Restart.ratioToWarm());
  mergeJsonMembers("BENCH_engine.json", "bench_engine_throughput",
                   {{"bench", "\"engine_throughput\""},
                    {"hardware_threads", std::to_string(hardwareThreads())},
                    {"batch_modules", std::to_string(BatchModules)},
                    {"batch_functions", std::to_string(Functions)},
                    {"threads", ThreadsJson},
                    {"cache", CacheJson},
                    {"warm_restart", RestartJson}});
}

/// Runs E11: populate a fresh cache directory with a duplicate-heavy
/// batch, then re-serve it from (a) the same process's memory tier and
/// (b) a simulated restarted process -- a fresh engine with an empty
/// memory cache pointed at the same directory, which is exactly the state
/// a new `gisc --cache-dir` process wakes up in.
WarmRestartResult measureWarmRestart() {
  WarmRestartResult R;
  // 90% in-batch duplicates: the regime where a persistent cache pays.
  std::vector<std::string> Sources =
      batchSources(BatchModules / 10, BatchModules);
  char Template[] = "bench-e11-cache-XXXXXX";
  if (!::mkdtemp(Template)) {
    std::fprintf(stderr, "bench_engine_throughput: mkdtemp failed; "
                         "skipping E11\n");
    return R;
  }
  std::string Dir = Template;
  {
    ScheduleCache Mem;
    R.ColdRate = runOnce(Sources, 4, &Mem, Dir).cacheHitRate();
    R.WarmRate = runOnce(Sources, 4, &Mem, Dir).cacheHitRate();
  }
  // The restarted process: no shared memory cache survives, only disk.
  R.RestartRate = runOnce(Sources, 4, nullptr, Dir).cacheHitRate();
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  return R;
}

void printEngineTables() {
  std::vector<std::string> Unique = batchSources(BatchModules, BatchModules);

  std::printf("\nE8: engine throughput on %u synthetic modules "
              "(hardware threads: %u)\n",
              BatchModules, hardwareThreads());
  rule(72);
  std::printf("%10s%16s%12s%14s\n", "THREADS", "FUNCS/SEC", "SPEEDUP",
              "QUEUE WAIT");
  rule(72);

  std::vector<ThreadPoint> ThreadPoints;
  unsigned Functions = 0;
  double Base = 0;
  for (unsigned T : threadSweep()) {
    EngineReport R = measure(Unique, T);
    Functions = R.FunctionsCompiled;
    double FPS = R.functionsPerSecond();
    if (T == 1)
      Base = FPS;
    double Speedup = Base > 0 ? FPS / Base : 0.0;
    ThreadPoints.push_back({T, FPS, Speedup});
    std::printf("%10u%16.1f%11.2fx%13.3fs\n", T, FPS, Speedup,
                R.TotalQueueWaitSeconds);
  }
  rule(72);
  std::printf("sweep sized from the host's hardware concurrency (%u): "
              "powers of two up to\nthe width, plus the width itself.\n",
              hardwareThreads());

  std::printf("\nE8b: schedule-cache sweeps (4 threads, %u modules)\n",
              BatchModules);
  rule(72);
  std::printf("%-28s%12s%16s\n", "SCENARIO", "HIT RATE", "FUNCS/SEC");
  rule(72);

  std::vector<CachePoint> CachePoints;
  auto Record = [&](const std::string &Name, const EngineReport &R) {
    CachePoints.push_back({Name, R.cacheHitRate(), R.functionsPerSecond()});
    std::printf("%-28s%11.1f%%%16.1f\n", Name.c_str(),
                100.0 * R.cacheHitRate(), R.functionsPerSecond());
  };

  Record("cold, all unique", measure(Unique, 4));
  Record("50% in-batch duplicates",
         measure(batchSources(BatchModules / 2, BatchModules), 4));
  Record("90% in-batch duplicates",
         measure(batchSources(BatchModules / 10, BatchModules), 4));
  {
    ScheduleCache Shared;
    measure(Unique, 4, &Shared); // cold run warms the shared cache
    Record("warm repeat of batch", measure(Unique, 4, &Shared));
  }
  rule(72);
  std::printf("cold compiles pay one schedule per distinct function; every "
              "repeat is served\nby the content-addressed cache "
              "(engine/ScheduleCache.h).\n");

  std::printf("\nE11: warm-restart hit rate (persistent disk tier, 90%% "
              "duplicate batch)\n");
  rule(72);
  std::printf("%-28s%12s\n", "SCENARIO", "HIT RATE");
  rule(72);
  WarmRestartResult Restart = measureWarmRestart();
  std::printf("%-28s%11.1f%%\n", "cold, empty directory",
              100.0 * Restart.ColdRate);
  std::printf("%-28s%11.1f%%\n", "same-process warm repeat",
              100.0 * Restart.WarmRate);
  std::printf("%-28s%11.1f%%\n", "restarted process",
              100.0 * Restart.RestartRate);
  rule(72);
  std::printf("restart/warm ratio: %.2f (target >= 0.90) -- the restarted "
              "engine has lost its\nmemory tier and re-serves the batch "
              "from engine/ScheduleCache.h's disk tier\n(persist/"
              "DiskCache.h).%s\n",
              Restart.ratioToWarm(),
              Restart.ratioToWarm() >= 0.9
                  ? ""
                  : "  WARNING: below target -- investigate");

  writeJson(ThreadPoints, CachePoints, Restart, Functions);
}

void BM_EngineBatch(benchmark::State &State) {
  unsigned Jobs = static_cast<unsigned>(State.range(0));
  std::vector<std::string> Sources = batchSources(12, 12);
  for (auto _ : State) {
    EngineReport R = runOnce(Sources, Jobs, nullptr);
    benchmark::DoNotOptimize(R.FunctionsCompiled);
  }
  State.SetLabel("jobs=" + std::to_string(Jobs));
}
BENCHMARK(BM_EngineBatch)->RangeMultiplier(2)->Range(1, 8)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printEngineTables();
  return 0;
}
