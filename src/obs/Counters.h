//===- obs/Counters.h - Scheduler counters registry -------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The counters registry of the observability subsystem: a fixed set of
/// named uint64 counters covering code motions by classification, the
/// Section 5.2 comparator-rule wins, the Section 5.3 live-on-exit guard,
/// and the transactional/caching machinery.  A CounterSet is a plain
/// value: schedulers bump a private set, the pipeline merges committed
/// deltas in deterministic (region-index, then input) order, so totals are
/// exact for every --jobs width -- the same discipline PipelineStats
/// already follows.
///
/// Rule-win accounting: when an instruction is picked from a ready list
/// with at least two live candidates, exactly one of the seven rule
/// counters is bumped -- the first comparator (in the configured
/// PriorityOrder) that separates the winner from the best runner-up.  The
/// paper states the rules in pairs (1/2 class, 3/4 delay, 5/6 critical
/// path, 7 source order); within a pair the winner's class picks the odd
/// (useful) or even (speculative) member.  The profile tie-break among
/// speculative candidates is this repo's extension slot between rules 2
/// and 3 and is counted separately.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_OBS_COUNTERS_H
#define GIS_OBS_COUNTERS_H

#include <array>
#include <cstdint>
#include <string_view>

namespace gis {
namespace obs {

/// Every counter of the registry.  Keep counterInfo() in Counters.cpp in
/// sync with this list.
enum class CounterId : unsigned {
  // Code motions by classification.
  MotionUseful,      ///< external pick from U(A) (rules 1/2 class "useful")
  MotionSpeculative, ///< external pick gambling on >= 1 branch

  // Comparator-rule wins (Section 5.2; see the header comment).
  RuleUsefulOverSpec, ///< rules 1/2: class separated the candidates
  RuleSpecFreq,       ///< profile tie-break among speculative candidates
  RuleDelayUseful,    ///< rule 3: D decided, winner useful
  RuleDelaySpec,      ///< rule 4: D decided, winner speculative
  RuleCritPathUseful, ///< rule 5: CP decided, winner useful
  RuleCritPathSpec,   ///< rule 6: CP decided, winner speculative
  RuleSourceOrder,    ///< rule 7: original program order decided

  // Pick accounting (the rule-win denominators).
  PicksContested,   ///< scheduled with >= 2 live candidates
  PicksUncontested, ///< scheduled as the only live candidate

  // Section 5.3 live-on-exit guard.
  SpecVetoLiveOut, ///< speculative motions rejected by the guard
  SpecRenames,     ///< motions rescued by register renaming

  // Transactions and caching.
  Rollbacks,   ///< region or whole-function transactions rolled back
  CacheHits,   ///< schedule-cache hits (engine path)
  CacheMisses, ///< schedule-cache misses (engine path)

  // Register allocation (regalloc/LinearScan; PipelineOptions::
  // AllocateRegisters).
  RegAllocIntervals,        ///< live intervals built (all classes)
  RegAllocSpilledIntervals, ///< intervals assigned a spill slot
  RegAllocSpillStores,      ///< SPILL/SPILLF instructions emitted
  RegAllocSpillReloads,     ///< RELOAD/RELOADF instructions emitted
  RegAllocFailures,         ///< allocation attempts rolled back

  // Mid-end optimizer (src/opt/; gisc -O1/-O2).
  OptPassesRun,         ///< optimizer pass transactions committed
  OptPeepholeRewrites,  ///< peephole rewrites applied
  OptStrengthReduced,   ///< multiplies/divides strength-reduced
  OptValuesNumbered,    ///< redundant expressions removed by GVN
  OptDceRemoved,        ///< dead instructions removed

  // Persistent (disk-backed) schedule cache (persist/DiskCache.h).
  PersistDiskHits,      ///< entries served from the cache directory
  PersistDiskMisses,    ///< disk lookups that found no usable entry
  PersistQuarantines,   ///< corrupt/skewed entries quarantined on load
  PersistWriteFailures, ///< entry writes that failed (degradation trigger)
  PersistEvictions,     ///< disk entries evicted by the size bound

  // Compile daemon (persist/Server.h; gisc --serve).
  ServeAccepted, ///< requests admitted to the queue
  ServeShed,     ///< requests rejected because the queue was full
  ServeTimeouts, ///< requests whose deadline expired before compile

  // Cold-path fast-path accounting (DESIGN.md section 14).  Arena bytes
  // and node counts describe the graphs built; the delta/full pairs split
  // incremental updates from recompute-from-scratch fallbacks, so the
  // incremental machinery's engagement is observable.
  ColdArenaBytes,          ///< bytes reserved by DDG arenas (all regions)
  ColdDdgNodes,            ///< DDG nodes built (all regions)
  ColdLivenessDelta,       ///< blocks re-solved by incremental liveness
  ColdLivenessFull,        ///< full liveness recomputations
  ColdHeurBlockRecomputes, ///< per-block D/CP refreshes (incremental path)
  ColdFastForwards,        ///< empty ready-list cycle ranges skipped

  // Cold-path incremental machinery, round two (DESIGN.md section 15):
  // the shared disambiguation cache, delta checkpoints, and the
  // block-scoped verifier.  The hit/miss pair exposes how often the
  // reachability/facts cache answered without a fresh solve; ckpt bytes
  // are what the delta checkpoints actually saved (vs. three full
  // function copies before); the verify pair shows scoped coverage.
  ColdDisambigCacheHits,   ///< disambig cache answers served from cache
  ColdDisambigCacheMisses, ///< disambig cache fresh solves
  ColdCkptBytes,           ///< bytes recorded by delta checkpoints
  ColdVerifyBlocksScoped,  ///< blocks actually verified by scoped sweeps
  ColdVerifyBlocksTotal,   ///< blocks in functions verified by scoped sweeps

  // Superblock formation (src/trace/; gisc --superblocks).
  TraceFormed,               ///< traces formed (>= 2 blocks)
  TraceBlocksClaimed,        ///< blocks claimed by formed traces
  TraceTailDupInstrs,        ///< instructions cloned by tail duplication
  TraceTruncated,            ///< traces cut short by the clone budget
  TraceSuperblocksScheduled, ///< single-entry traces scheduled as regions

  NumCounters
};

constexpr unsigned NumCounters =
    static_cast<unsigned>(CounterId::NumCounters);

// Namespace-level aliases so instrumentation sites read obs::MotionUseful
// rather than obs::CounterId::MotionUseful.
inline constexpr CounterId MotionUseful = CounterId::MotionUseful;
inline constexpr CounterId MotionSpeculative = CounterId::MotionSpeculative;
inline constexpr CounterId RuleUsefulOverSpec = CounterId::RuleUsefulOverSpec;
inline constexpr CounterId RuleSpecFreq = CounterId::RuleSpecFreq;
inline constexpr CounterId RuleDelayUseful = CounterId::RuleDelayUseful;
inline constexpr CounterId RuleDelaySpec = CounterId::RuleDelaySpec;
inline constexpr CounterId RuleCritPathUseful = CounterId::RuleCritPathUseful;
inline constexpr CounterId RuleCritPathSpec = CounterId::RuleCritPathSpec;
inline constexpr CounterId RuleSourceOrder = CounterId::RuleSourceOrder;
inline constexpr CounterId PicksContested = CounterId::PicksContested;
inline constexpr CounterId PicksUncontested = CounterId::PicksUncontested;
inline constexpr CounterId SpecVetoLiveOut = CounterId::SpecVetoLiveOut;
inline constexpr CounterId SpecRenames = CounterId::SpecRenames;
inline constexpr CounterId Rollbacks = CounterId::Rollbacks;
inline constexpr CounterId CacheHits = CounterId::CacheHits;
inline constexpr CounterId CacheMisses = CounterId::CacheMisses;
inline constexpr CounterId RegAllocIntervals = CounterId::RegAllocIntervals;
inline constexpr CounterId RegAllocSpilledIntervals =
    CounterId::RegAllocSpilledIntervals;
inline constexpr CounterId RegAllocSpillStores =
    CounterId::RegAllocSpillStores;
inline constexpr CounterId RegAllocSpillReloads =
    CounterId::RegAllocSpillReloads;
inline constexpr CounterId RegAllocFailures = CounterId::RegAllocFailures;
inline constexpr CounterId OptPassesRun = CounterId::OptPassesRun;
inline constexpr CounterId OptPeepholeRewrites = CounterId::OptPeepholeRewrites;
inline constexpr CounterId OptStrengthReduced = CounterId::OptStrengthReduced;
inline constexpr CounterId OptValuesNumbered = CounterId::OptValuesNumbered;
inline constexpr CounterId OptDceRemoved = CounterId::OptDceRemoved;
inline constexpr CounterId PersistDiskHits = CounterId::PersistDiskHits;
inline constexpr CounterId PersistDiskMisses = CounterId::PersistDiskMisses;
inline constexpr CounterId PersistQuarantines = CounterId::PersistQuarantines;
inline constexpr CounterId PersistWriteFailures =
    CounterId::PersistWriteFailures;
inline constexpr CounterId PersistEvictions = CounterId::PersistEvictions;
inline constexpr CounterId ServeAccepted = CounterId::ServeAccepted;
inline constexpr CounterId ServeShed = CounterId::ServeShed;
inline constexpr CounterId ServeTimeouts = CounterId::ServeTimeouts;
inline constexpr CounterId ColdArenaBytes = CounterId::ColdArenaBytes;
inline constexpr CounterId ColdDdgNodes = CounterId::ColdDdgNodes;
inline constexpr CounterId ColdLivenessDelta = CounterId::ColdLivenessDelta;
inline constexpr CounterId ColdLivenessFull = CounterId::ColdLivenessFull;
inline constexpr CounterId ColdHeurBlockRecomputes =
    CounterId::ColdHeurBlockRecomputes;
inline constexpr CounterId ColdFastForwards = CounterId::ColdFastForwards;
inline constexpr CounterId ColdDisambigCacheHits =
    CounterId::ColdDisambigCacheHits;
inline constexpr CounterId ColdDisambigCacheMisses =
    CounterId::ColdDisambigCacheMisses;
inline constexpr CounterId ColdCkptBytes = CounterId::ColdCkptBytes;
inline constexpr CounterId ColdVerifyBlocksScoped =
    CounterId::ColdVerifyBlocksScoped;
inline constexpr CounterId ColdVerifyBlocksTotal =
    CounterId::ColdVerifyBlocksTotal;
inline constexpr CounterId TraceFormed = CounterId::TraceFormed;
inline constexpr CounterId TraceBlocksClaimed = CounterId::TraceBlocksClaimed;
inline constexpr CounterId TraceTailDupInstrs = CounterId::TraceTailDupInstrs;
inline constexpr CounterId TraceTruncated = CounterId::TraceTruncated;
inline constexpr CounterId TraceSuperblocksScheduled =
    CounterId::TraceSuperblocksScheduled;

/// Stable machine-readable key of a counter ("motion.useful", "rule.delay_useful", ...).
std::string_view counterKey(CounterId Id);

/// Human-readable description for --stats.
std::string_view counterLabel(CounterId Id);

/// A plain, addable set of all registry counters.
struct CounterSet {
  std::array<uint64_t, NumCounters> V{};

  void bump(CounterId Id, uint64_t N = 1) {
    V[static_cast<unsigned>(Id)] += N;
  }
  uint64_t get(CounterId Id) const { return V[static_cast<unsigned>(Id)]; }

  /// Sum of the seven Section 5.2 rule-win counters.
  uint64_t ruleWinTotal() const {
    return get(CounterId::RuleUsefulOverSpec) + get(CounterId::RuleSpecFreq) +
           get(CounterId::RuleDelayUseful) + get(CounterId::RuleDelaySpec) +
           get(CounterId::RuleCritPathUseful) +
           get(CounterId::RuleCritPathSpec) + get(CounterId::RuleSourceOrder);
  }

  CounterSet &operator+=(const CounterSet &RHS) {
    for (unsigned K = 0; K != NumCounters; ++K)
      V[K] += RHS.V[K];
    return *this;
  }
  friend bool operator==(const CounterSet &A, const CounterSet &B) {
    return A.V == B.V;
  }
};

} // namespace obs
} // namespace gis

#endif // GIS_OBS_COUNTERS_H
