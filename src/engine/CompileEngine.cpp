//===- engine/CompileEngine.cpp - Parallel batch compilation ---------------===//

#include "engine/CompileEngine.h"

#include "obs/Trace.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <chrono>

using namespace gis;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// One schedulable work unit.  Granularity is one function, or one whole
/// module when the differential oracle is on (the oracle reads sibling
/// functions of the module under test; see the header comment).
struct WorkUnit {
  Module *M = nullptr;
  /// Functions of M this unit schedules (all in slot order).
  std::vector<Function *> Funcs;
  /// Result slots, parallel to Funcs (indices into EngineReport::PerFunction).
  std::vector<size_t> Slots;
  Clock::time_point Enqueued;
};

} // namespace

std::string EngineReport::summary() const {
  std::string S = formatString(
      "engine: %u function(s), %u thread(s), %.3fs wall (%.1f funcs/sec)\n",
      FunctionsCompiled, Threads, WallSeconds, functionsPerSecond());
  S += formatString(
      "  cache: %llu hit(s), %llu miss(es) (%.1f%% hit rate)\n",
      static_cast<unsigned long long>(CacheHits),
      static_cast<unsigned long long>(CacheMisses), 100.0 * cacheHitRate());
  if (DiskEnabled)
    S += formatString(
        "  disk tier: %llu hit(s) this batch, %llu quarantine(s), "
        "%llu write failure(s)%s\n",
        static_cast<unsigned long long>(DiskHits),
        static_cast<unsigned long long>(Disk.Quarantines),
        static_cast<unsigned long long>(Disk.WriteFailures),
        Disk.Degraded ? " [degraded: memory-only]" : "");
  S += formatString(
      "  queue wait: %.3fs total; schedule time: %.3fs total\n",
      TotalQueueWaitSeconds, TotalCompileSeconds);
  S += formatString("  rollbacks: %u (region %u / transform %u)\n",
                    rollbacks(), Aggregate.RegionsRolledBack,
                    Aggregate.TransformsRolledBack);
  S += formatString(
      "  region scheduling: %u task(s) in %u wave(s), %.3fs total\n",
      Aggregate.RegionTasks, Aggregate.RegionWaves, [this] {
        double T = 0;
        for (const RegionTime &RT : Aggregate.RegionTimes)
          T += RT.Seconds;
        return T;
      }());
  return S;
}

CompileEngine::CompileEngine(const MachineDescription &MD,
                             const PipelineOptions &Opts,
                             const EngineOptions &EOpts)
    : MD(MD), Opts(Opts), EOpts(EOpts) {
  if (this->EOpts.Jobs == 0)
    this->EOpts.Jobs = ThreadPool::hardwareThreads();
  if (EOpts.SharedCache) {
    Cache = EOpts.SharedCache;
  } else {
    OwnedCache = std::make_unique<ScheduleCache>(this->EOpts.CacheCapacity);
    Cache = OwnedCache.get();
  }
  if (EOpts.SharedDisk) {
    Disk = EOpts.SharedDisk;
  } else if (!this->EOpts.CacheDir.empty()) {
    OwnedDisk = std::make_unique<persist::DiskScheduleCache>(
        this->EOpts.CacheDir, this->EOpts.CacheDirMaxBytes);
    // A failed open degrades the tier to memory-only; the status is
    // recorded in the disk cache's diagnostics and surfaced per batch.
    // Callers that want fail-fast semantics probe before building the
    // engine (gisc --cache-dir).
    OwnedDisk->open();
    Disk = OwnedDisk.get();
  }
  MachineFp = fingerprintMachine(MD);
  OptionsFp = fingerprintOptions(Opts);
}

CompileEngine::~CompileEngine() = default;

EngineReport CompileEngine::compileBatch(const std::vector<BatchItem> &Batch) {
  Clock::time_point WallStart = Clock::now();

  EngineReport Report;
  Report.Threads = EOpts.Jobs;

  // The cache serves content-addressed results; inputs whose schedule
  // depends on state outside the hashed content (profile data, the
  // oracle's view of sibling functions) bypass it.
  const bool CacheOn =
      EOpts.UseCache && !Opts.Profile && !Opts.EnableOracle;
  // The disk tier additionally skips decision-log runs: decision logs are
  // not persisted (a disk hit must replay stats faithfully or not at all;
  // see persist::DiskScheduleCache::insert), so disk lookups under
  // CollectDecisions could only ever miss.
  const bool DiskOn = CacheOn && Disk && !Opts.CollectDecisions;
  const bool ModuleGranularity = Opts.EnableOracle;

  // Attribute only this batch's disk traffic to the report and the
  // counters registry (the disk cache's own stats are lifetime-scoped and
  // may be shared with other engines).
  const persist::DiskCacheStats DiskBefore =
      DiskOn ? Disk->stats() : persist::DiskCacheStats{};
  const size_t DiskDiagsBefore = DiskOn ? Disk->diagnostics().size() : 0;

  // Flatten the batch into work units and pre-size the result slots, so
  // workers write disjoint elements and the report ends up in input order
  // no matter which order units finish in.
  std::vector<WorkUnit> Units;
  for (const BatchItem &Item : Batch) {
    if (!Item.M)
      continue;
    WorkUnit *Current = nullptr;
    for (const auto &F : Item.M->functions()) {
      if (!Current || !ModuleGranularity) {
        Units.emplace_back();
        Current = &Units.back();
        Current->M = Item.M;
      }
      size_t Slot = Report.PerFunction.size();
      FunctionCompileResult R;
      R.Item = Item.Name;
      R.Function = F->name();
      Report.PerFunction.push_back(std::move(R));
      Current->Funcs.push_back(F.get());
      Current->Slots.push_back(Slot);
    }
  }

  const PipelineOptions &UnitOpts = Opts;

  auto Process = [&](const WorkUnit &Unit) {
    double QueueWait = secondsSince(Unit.Enqueued);
    for (size_t K = 0; K != Unit.Funcs.size(); ++K) {
      Function &F = *Unit.Funcs[K];
      FunctionCompileResult &R = Report.PerFunction[Unit.Slots[K]];
      R.QueueWaitSeconds = K == 0 ? QueueWait : 0.0;
      obs::Tracer &Tr = obs::Tracer::instance();
      obs::TraceSpan FnSpan("function", "engine", "slot",
                            static_cast<int64_t>(Unit.Slots[K]), nullptr, 0,
                            Tr.enabled() ? R.Item + ":" + R.Function
                                         : std::string());
      Clock::time_point Start = Clock::now();
      if (CacheOn) {
        Key128 Key = scheduleCacheKey(F, MachineFp, OptionsFp);
        if (Cache->lookup(Key, F, R.Stats)) {
          R.CacheHit = true;
          // A hit replays the cached PipelineStats -- including its obs
          // counters and decision log -- so observability stays exact
          // whether or not the schedule was recomputed.
          Tr.instant("cache-hit", "engine", "slot",
                     static_cast<int64_t>(Unit.Slots[K]));
          R.CompileSeconds = secondsSince(Start);
          continue;
        }
        if (DiskOn && Disk->lookup(Key, F, R.Stats)) {
          R.CacheHit = true;
          R.DiskHit = true;
          // Promote into the memory tier so repeats within this process
          // skip the filesystem.
          Cache->insert(Key, F, R.Stats);
          Tr.instant("disk-cache-hit", "engine", "slot",
                     static_cast<int64_t>(Unit.Slots[K]));
          R.CompileSeconds = secondsSince(Start);
          continue;
        }
        R.Stats = schedulePipeline(F, MD, UnitOpts);
        Cache->insert(Key, F, R.Stats);
        if (DiskOn)
          Disk->insert(Key, F, R.Stats);
      } else {
        PipelineOptions FnOpts = UnitOpts;
        if (FnOpts.EnableOracle && !FnOpts.OracleModule)
          FnOpts.OracleModule = Unit.M;
        R.Stats = schedulePipeline(F, MD, FnOpts);
      }
      R.CompileSeconds = secondsSince(Start);
    }
  };

  if (EOpts.Jobs <= 1 || Units.size() <= 1) {
    for (WorkUnit &Unit : Units) {
      Unit.Enqueued = Clock::now();
      Process(Unit);
    }
  } else {
    ThreadPool Pool(EOpts.Jobs);
    for (WorkUnit &Unit : Units) {
      Unit.Enqueued = Clock::now();
      Pool.submit([&Process, &Unit] { Process(Unit); });
    }
    Pool.waitIdle();
  }

  // Merge in input order: identical aggregates for any worker count.
  for (const FunctionCompileResult &R : Report.PerFunction) {
    ++Report.FunctionsCompiled;
    if (R.CacheHit)
      ++Report.CacheHits;
    else
      ++Report.CacheMisses;
    if (R.DiskHit)
      ++Report.DiskHits;
    else if (DiskOn && !R.CacheHit)
      ++Report.DiskMisses; // a full compile implies a disk miss first
    Report.TotalQueueWaitSeconds += R.QueueWaitSeconds;
    Report.TotalCompileSeconds += R.CompileSeconds;
    Report.Aggregate += R.Stats;
  }

  // Cache snapshots for the report (lifetime-scoped when shared).
  Report.MemCache = Cache->stats();
  Report.MemShards = Cache->shardStats();
  Report.MemCacheSize = Cache->size();
  Report.MemCacheCapacity = Cache->capacity();
  if (Disk) {
    Report.DiskEnabled = true;
    Report.Disk = Disk->stats();
  }
  // Persist-layer degradations and quarantines observed during this batch
  // join the aggregate diagnostics, so --stats and --stats-json surface
  // them through the established channel.
  if (DiskOn) {
    std::vector<Diagnostic> DiskDiags = Disk->diagnostics();
    Report.Aggregate.Diags.insert(Report.Aggregate.Diags.end(),
                                  DiskDiags.begin() + DiskDiagsBefore,
                                  DiskDiags.end());
  }

  // Cache traffic lives at the engine layer, not in any one pipeline run,
  // so it enters the merged registry here (after the deterministic merge).
  Report.Aggregate.Counters.bump(obs::CacheHits, Report.CacheHits);
  Report.Aggregate.Counters.bump(obs::CacheMisses, Report.CacheMisses);
  if (DiskOn) {
    Report.Aggregate.Counters.bump(obs::PersistDiskHits, Report.DiskHits);
    Report.Aggregate.Counters.bump(obs::PersistDiskMisses, Report.DiskMisses);
    Report.Aggregate.Counters.bump(
        obs::PersistQuarantines,
        Report.Disk.Quarantines - DiskBefore.Quarantines);
    Report.Aggregate.Counters.bump(
        obs::PersistWriteFailures,
        Report.Disk.WriteFailures - DiskBefore.WriteFailures);
    Report.Aggregate.Counters.bump(obs::PersistEvictions,
                                   Report.Disk.Evictions -
                                       DiskBefore.Evictions);
  }
  Report.WallSeconds = secondsSince(WallStart);
  return Report;
}

EngineReport CompileEngine::compile(Module &M) {
  return compileBatch({BatchItem{&M, "<module>"}});
}
