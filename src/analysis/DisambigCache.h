//===- analysis/DisambigCache.h - Memoized disambiguation state -*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-pipeline-run cache for the two expensive inputs of
/// data-dependence construction (DESIGN.md section 15):
///
///  - the all-pairs reachability closure of a region's forward graph,
///    keyed by a 128-bit content hash of the graph's edges.  Scheduling
///    never changes region shape, so the local pass, the global pass and
///    every region task of one function hit the same entry; the content
///    key makes entries self-validating (no invalidation protocol, stale
///    content simply never matches);
///
///  - the function-wide facts MemDisambiguator derives (owning block and
///    position of every instruction, single static definitions, the
///    function dominator tree), shared under an explicit epoch.  Every
///    phase that consumes the facts bumps the epoch on entry
///    (noteFunctionChanged, or noteWaveStart for a region wave) because
///    earlier phases moved code.  Within the local pass the facts stay
///    exact: its intra-block reorders patch positions in place
///    (notePosChanged) -- such reorders change only PosOf, never BlockOf,
///    SingleDef or dominance.  Within a region wave they describe the
///    wave-start function even after earlier tasks of the wave committed.
///
/// The cache is mutex-guarded.  One pipeline run owns it and runs its
/// phases serially, so the lock is uncontended.
///
/// Under -DGIS_SLOWPATH_CHECK=ON every hit is cross-checked against a
/// fresh solve and any divergence is a fatal error.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_ANALYSIS_DISAMBIGCACHE_H
#define GIS_ANALYSIS_DISAMBIGCACHE_H

#include "analysis/Dominators.h"
#include "analysis/Graph.h"
#include "ir/Function.h"
#include "support/Hashing.h"

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace gis {

/// Function-wide facts behind MemDisambiguator's address resolution.
/// Content-determined by the function body, so one instance serves every
/// region of the function until code moves.
struct DisambigFacts {
  /// Owning block of every instruction (InvalidId for orphans).
  std::vector<BlockId> BlockOf;
  /// Position of every instruction inside its block's list.
  std::vector<unsigned> PosOf;
  /// Single static definition of each register, or InvalidId when the
  /// register has zero or multiple definitions.
  std::unordered_map<uint32_t, InstrId> SingleDef;
  /// Function dominator tree (eager here; the stand-alone path builds it
  /// lazily instead).
  std::unique_ptr<DomTree> Dom;

  /// Derives the facts from \p F.  \p BuildDom also builds the dominator
  /// tree eagerly.
  static std::shared_ptr<DisambigFacts> build(const Function &F,
                                              bool BuildDom);
};

/// Shared memo for reachability closures and disambiguation facts.  One
/// instance lives for a pipeline run; pass it to DataDeps::compute /
/// PDG::build / scheduleLocal through their cache parameters.
class DisambigCache {
public:
  DisambigCache() = default;
  DisambigCache(const DisambigCache &) = delete;
  DisambigCache &operator=(const DisambigCache &) = delete;

  /// Invalidates the shared facts.  Call on entry to any phase that runs
  /// after code moved (each region wave, the local pass, post-allocation
  /// rescheduling).  Reachability entries are content-keyed and never
  /// need invalidation.
  void noteFunctionChanged();

  /// Starts the facts epoch of one region wave over \p F.  The wave's
  /// tasks run in place one after another, yet each must read the facts
  /// of the function as the wave found it: the first task derives them
  /// before it moves any code, and later tasks hit that entry.  Under
  /// GIS_SLOWPATH_CHECK hits until the next epoch are cross-checked
  /// against a fresh derivation from a copy of \p F taken here, not from
  /// the function the later task already sees.
  void noteWaveStart(const Function &F);

  /// Patches PosOf for the (reordered) list of block \p B of \p F.
  /// Intra-block reordering changes only positions: BlockOf, SingleDef
  /// and dominance are untouched, so the facts stay exact.  Must not
  /// race facts() readers; the pipeline calls it only from the serial
  /// local pass.
  void notePosChanged(const Function &F, BlockId B);

  /// The facts for \p F at the current epoch, building them on a miss.
  std::shared_ptr<const DisambigFacts> facts(const Function &F);

  /// The all-pairs reachability closure of \p G, keyed by the content of
  /// its edges.
  std::shared_ptr<const std::vector<BitSet>> reachability(const DiGraph &G);

  uint64_t hits() const;
  uint64_t misses() const;

private:
  mutable std::mutex Mu;
  uint64_t Epoch = 0;
  uint64_t FactsEpoch = 0;
  std::shared_ptr<DisambigFacts> Facts;
#ifdef GIS_SLOWPATH_CHECK
  /// The wave-start function hits are cross-checked against (null outside
  /// a region wave: hits are checked against the querying function).
  std::unique_ptr<Function> WaveBase;
#endif
  std::unordered_map<Key128, std::shared_ptr<const std::vector<BitSet>>,
                     Key128Hash>
      Reach;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace gis

#endif // GIS_ANALYSIS_DISAMBIGCACHE_H
