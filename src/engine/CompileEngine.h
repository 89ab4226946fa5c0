//===- engine/CompileEngine.h - Parallel batch compilation ------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch-compilation engine: drives the transactional schedulePipeline
/// over a batch of modules on a work-stealing thread pool, with a
/// content-addressed schedule cache in front of the scheduler.  The
/// paper's Section 6 flow is function-independent, so the engine's unit of
/// parallelism is one function; everything a pipeline run touches is
/// per-function state (see the reentrancy contract in sched/Pipeline.h).
///
/// Determinism: a batch compiled with N workers is bit-identical to the
/// same batch compiled with one worker, cache on or off.  Each function's
/// schedule depends only on its own content, and the report aggregates
/// per-function results in input order, never in completion order.
///
/// Exception to function-level parallelism: with the differential oracle
/// enabled, a pipeline run *reads* every function of the module it
/// verifies (calls, globals), so the engine widens the work unit to one
/// module to keep readers and writers apart.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_ENGINE_COMPILEENGINE_H
#define GIS_ENGINE_COMPILEENGINE_H

#include "engine/ScheduleCache.h"
#include "ir/Module.h"
#include "machine/MachineDescription.h"
#include "persist/DiskCache.h"
#include "sched/Pipeline.h"

#include <memory>
#include <string>
#include <vector>

namespace gis {

/// Engine configuration, on top of the per-function PipelineOptions.
/// Functions are the engine's only unit of parallelism: each pipeline run
/// schedules its own regions serially on the worker that owns it.
struct EngineOptions {
  /// Worker threads; 0 means ThreadPool::hardwareThreads().  With Jobs==1
  /// the engine runs inline on the calling thread (no pool).
  unsigned Jobs = 1;
  bool UseCache = true;
  /// Entry bound of the internally-owned cache (ignored for SharedCache).
  size_t CacheCapacity = 4096;
  /// Optional externally-owned cache, for reuse across batches/engines;
  /// the engine creates its own when null.
  ScheduleCache *SharedCache = nullptr;
  /// Directory of the persistent disk tier (persist/DiskCache.h); empty
  /// disables it.  The disk tier sits behind the memory tier: a disk hit
  /// is promoted into the memory cache, a compile is published to both.
  /// I/O failures degrade the engine to memory-only (never an abort); use
  /// persist::DiskScheduleCache::open() directly to fail fast instead
  /// (gisc does, at --cache-dir validation time).
  std::string CacheDir;
  /// Size bound of the disk tier in bytes (0: unbounded); enforced by
  /// oldest-entry eviction at publish time (gisc --cache-dir-max-mb).
  /// Ignored for SharedDisk, which carries its own bound.
  uint64_t CacheDirMaxBytes = 0;
  /// Optional externally-owned disk cache (the serve daemon shares one
  /// across requests); the engine opens its own from CacheDir when null.
  persist::DiskScheduleCache *SharedDisk = nullptr;
};

/// One batch entry: a borrowed module plus a display name for reports.
struct BatchItem {
  Module *M = nullptr;
  std::string Name;
};

/// Per-function outcome of one batch compile.
struct FunctionCompileResult {
  std::string Item;     ///< BatchItem::Name
  std::string Function;
  bool CacheHit = false;
  /// The hit was served by the disk tier (subset of CacheHit).
  bool DiskHit = false;
  double QueueWaitSeconds = 0;   ///< submit -> start of work
  double CompileSeconds = 0;     ///< schedule (or cache-serve) time
  PipelineStats Stats;
};

/// Aggregate outcome of one batch compile, per-function results in input
/// order.
struct EngineReport {
  unsigned Threads = 1;
  unsigned FunctionsCompiled = 0;
  uint64_t CacheHits = 0; ///< memory + disk tier hits
  uint64_t CacheMisses = 0;
  /// Hits served by the disk tier (subset of CacheHits), and the disk
  /// lookups that went on to a full compile.
  uint64_t DiskHits = 0;
  uint64_t DiskMisses = 0;
  double WallSeconds = 0;
  double TotalQueueWaitSeconds = 0;
  double TotalCompileSeconds = 0;
  PipelineStats Aggregate;
  std::vector<FunctionCompileResult> PerFunction;

  /// Memory-cache view after the batch (lifetime counters when the cache
  /// is shared across batches/engines), including per-shard occupancy so
  /// disk-vs-memory hit attribution is debuggable (--stats-json).
  ScheduleCacheStats MemCache;
  std::vector<ShardOccupancy> MemShards;
  size_t MemCacheSize = 0;
  size_t MemCacheCapacity = 0;
  /// Disk-tier view after the batch; DiskEnabled is false when no
  /// EngineOptions::CacheDir/SharedDisk was configured.
  bool DiskEnabled = false;
  persist::DiskCacheStats Disk;

  double cacheHitRate() const {
    uint64_t Total = CacheHits + CacheMisses;
    return Total ? static_cast<double>(CacheHits) /
                       static_cast<double>(Total)
                 : 0.0;
  }
  double functionsPerSecond() const {
    return WallSeconds > 0 ? FunctionsCompiled / WallSeconds : 0.0;
  }
  unsigned rollbacks() const {
    return Aggregate.RegionsRolledBack + Aggregate.TransformsRolledBack;
  }

  /// Renders a short human-readable summary (for gisc --stats).
  std::string summary() const;
};

class CompileEngine {
public:
  CompileEngine(const MachineDescription &MD, const PipelineOptions &Opts,
                const EngineOptions &EOpts = {});
  ~CompileEngine();

  /// Schedules every function of every batch item.  Modules are mutated in
  /// place; the report owns all statistics.
  EngineReport compileBatch(const std::vector<BatchItem> &Batch);

  /// Convenience: one anonymous module as a single-item batch.
  EngineReport compile(Module &M);

  /// The cache serving this engine (shared or internally owned).
  ScheduleCache &cache() { return *Cache; }

  /// The disk tier, or null when none is configured.
  persist::DiskScheduleCache *diskCache() { return Disk; }

  unsigned jobs() const { return EOpts.Jobs; }

private:
  MachineDescription MD;
  PipelineOptions Opts;
  EngineOptions EOpts;
  std::unique_ptr<ScheduleCache> OwnedCache;
  ScheduleCache *Cache = nullptr;
  std::unique_ptr<persist::DiskScheduleCache> OwnedDisk;
  persist::DiskScheduleCache *Disk = nullptr;
  uint64_t MachineFp = 0;
  uint64_t OptionsFp = 0;
};

} // namespace gis

#endif // GIS_ENGINE_COMPILEENGINE_H
