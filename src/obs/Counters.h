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
/// Section 5.2 comparator-rule wins, the transactional/caching machinery
/// and the cold path.  A CounterSet is a plain value: schedulers bump a
/// private set, the pipeline merges committed deltas in deterministic
/// (region-index, then input) order, so totals are exact for every --jobs
/// width -- the same discipline PipelineStats already follows.  The
/// registry is always collected.
///
/// The registry holds the counts no statistics struct carries.  A number
/// that PipelineStats (or the daemon's ServerStats) already counts is a
/// field there, listed once in PipelineStats's scalar table, and not an id
/// here.  Three duplicates stay on purpose:
///   - motion.useful / motion.speculative: bumped at the engine's pick,
///     while GlobalSchedStats::UsefulMotions / SpeculativeMotions are
///     bumped when the scheduler moves the instruction -- two independent
///     sites, so their agreement is a real cross-check (ObsCounters tests;
///     DESIGN.md section 9);
///   - tx.rollbacks: RegionsRolledBack + TransformsRolledBack, bumped at
///     the same sites; it stays because the benchmark's serve workload
///     reads it from the daemon's STATS reply (gisbench/src/Serve.cpp);
///   - cache.* and persist.*: the engine's per-batch cache traffic
///     (EngineReport), which is the daemon's only record of it across
///     requests.
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

  // Transactions and caching.
  Rollbacks,   ///< transactions rolled back (kept: see the file comment)
  CacheHits,   ///< schedule-cache hits (engine path)
  CacheMisses, ///< schedule-cache misses (engine path)

  // Persistent (disk-backed) schedule cache (persist/DiskCache.h).
  PersistDiskHits,      ///< entries served from the cache directory
  PersistDiskMisses,    ///< disk lookups that found no usable entry
  PersistQuarantines,   ///< corrupt/skewed entries quarantined on load
  PersistWriteFailures, ///< entry writes that failed (degradation trigger)
  PersistEvictions,     ///< disk entries evicted by the size bound

  // Cold-path accounting (DESIGN.md section 14).  Arena bytes and node
  // counts describe the graphs built; liveness_full counts region liveness
  // re-solves after motions and renames.  Three ids read 0 and stay in the
  // registry only because the benchmark's probes (gisbench/src/Probes.cpp)
  // compile against them:
  //  - ColdLivenessDelta (sched.liveness_delta_ratio): region liveness is
  //    always re-solved whole;
  //  - ColdDisambigCacheHits and ColdDisambigCacheMisses
  //    (sched.disambig_hit_ratio): disambiguation facts are a per-phase
  //    value and reachability is solved per graph, so nothing is cached.
  ColdArenaBytes,          ///< bytes reserved by DDG arenas (all regions)
  ColdDdgNodes,            ///< DDG nodes built (all regions)
  ColdLivenessDelta,       ///< always 0: kept for the benchmark probe above
  ColdLivenessFull,        ///< region liveness re-solves
  ColdFastForwards,        ///< empty ready-list cycle ranges skipped
  ColdDisambigCacheHits,   ///< always 0: kept for the benchmark probe above
  ColdDisambigCacheMisses, ///< always 0: kept for the benchmark probe above

  // Cold-path machinery, round two (DESIGN.md section 15): delta
  // checkpoints and the block-scoped verifier.  Ckpt bytes are what the
  // delta checkpoints actually saved (vs. three full function copies
  // before); the verify pair shows scoped coverage.
  ColdCkptBytes,           ///< bytes recorded by delta checkpoints
  ColdVerifyBlocksScoped,  ///< blocks actually verified by scoped sweeps
  ColdVerifyBlocksTotal,   ///< blocks in functions verified by scoped sweeps

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
inline constexpr CounterId Rollbacks = CounterId::Rollbacks;
inline constexpr CounterId CacheHits = CounterId::CacheHits;
inline constexpr CounterId CacheMisses = CounterId::CacheMisses;
inline constexpr CounterId PersistDiskHits = CounterId::PersistDiskHits;
inline constexpr CounterId PersistDiskMisses = CounterId::PersistDiskMisses;
inline constexpr CounterId PersistQuarantines = CounterId::PersistQuarantines;
inline constexpr CounterId PersistWriteFailures =
    CounterId::PersistWriteFailures;
inline constexpr CounterId PersistEvictions = CounterId::PersistEvictions;
inline constexpr CounterId ColdArenaBytes = CounterId::ColdArenaBytes;
inline constexpr CounterId ColdDdgNodes = CounterId::ColdDdgNodes;
inline constexpr CounterId ColdLivenessDelta = CounterId::ColdLivenessDelta;
inline constexpr CounterId ColdLivenessFull = CounterId::ColdLivenessFull;
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
