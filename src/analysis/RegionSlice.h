//===- analysis/RegionSlice.h - Region-local analysis slice -----*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-contained analysis slice of one scheduling region: the blocks and
/// instructions the region owns, plus region-local dominator, CSPDG and
/// liveness views.  The slice is the unit of a region wave
/// (sched/Pipeline.cpp): every analysis a region task consults is either
/// region-local or frozen at slice-build time, so a wave's regions are
/// scheduled one after another against the wave-start function, none
/// reading what an earlier task of the wave committed.
///
/// Why the restricted views are exact (not approximations):
///  - Dominators: for two blocks of the same region, dominance on the
///    region's acyclic forward graph coincides with dominance on the full
///    CFG -- a reducible loop is entered only through its header, so any
///    CFG path between two region blocks that leaves the region re-enters
///    at the entry, which the forward graph models by construction.
///  - Liveness: the region's live sets satisfy the whole-function dataflow
///    equations with the live-in sets of out-of-region successor blocks
///    substituted as constants (the "frozen boundary").  The boundary
///    stays exact while only this region is edited under the scheduler's
///    legality rules: upward motion cannot cross a reaching definition
///    (flow dependence), so no frozen live-in set changes.
///  - CSPDG: control dependences are already region-local by definition
///    (computed on the region forward graph, paper Section 4.1).
///
/// `tests/region_wave_test.cpp` property-checks all three equivalences
/// against whole-function analyses over the random-program corpus.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_ANALYSIS_REGIONSLICE_H
#define GIS_ANALYSIS_REGIONSLICE_H

#include "analysis/ControlDeps.h"
#include "analysis/Liveness.h"
#include "analysis/Region.h"

#include <array>
#include <vector>

namespace gis {

/// Region-restricted backward liveness with a frozen boundary.
///
/// The solved system is the whole-function one restricted to the region's
/// real blocks: live-out of a region block unions the live-in sets of its
/// in-region CFG successors (including the back edge to the region entry)
/// with the live-in sets of its out-of-region successors, the latter
/// captured once at build time from a whole-function Liveness.  recompute()
/// re-solves the region equations against the function's current contents,
/// which is what the scheduler needs after each motion or rename -- and it
/// touches only the region's blocks, unlike Liveness::compute.
class LivenessSlice {
public:
  LivenessSlice() = default;

  /// Captures the boundary from \p WholeLV (must be up to date for \p F)
  /// and solves the region equations.
  static LivenessSlice build(const Function &F, const SchedRegion &R,
                             const Liveness &WholeLV);

  /// Re-solves the region equations against the current contents of \p F's
  /// region blocks.  The frozen boundary is reused; the dense register
  /// universe is re-derived from the function's current counters, so
  /// registers created since build() are covered.
  void recompute(const Function &F);

  /// Exact delta update after motions/renames confined to the \p Changed
  /// region blocks -- the region-restricted mirror of
  /// Liveness::recomputeBlocks (same invariants; see analysis/Liveness.h):
  /// re-derive the edited blocks' UEVar/Kill summaries, and when one
  /// changed, re-solve only the region blocks that reach it, freezing the
  /// rest.  A grown register universe (renaming) falls back to a full
  /// recompute().  The result is bit-identical to recompute(\p F).
  Liveness::UpdateResult
  recomputeBlocks(const Function &F, const std::vector<BlockId> &Changed);

  /// True if \p B is one of the region's real blocks (the only blocks this
  /// slice can answer queries for).
  bool ownsBlock(BlockId B) const {
    return B < SlotOf.size() && SlotOf[B] >= 0;
  }

  /// True if \p R is live on exit from region block \p B.
  bool isLiveOut(BlockId B, Reg R) const;

  /// True if \p R is live on entry to region block \p B.
  bool isLiveIn(BlockId B, Reg R) const;

  /// True when both slices hold identical solutions, for the
  /// GIS_SLOWPATH_CHECK cross-check and the equivalence tests.
  bool sameSetsAs(const LivenessSlice &RHS) const {
    return ClassBase == RHS.ClassBase && Universe == RHS.Universe &&
           LiveIns == RHS.LiveIns && LiveOuts == RHS.LiveOuts;
  }

  /// Deliberately corrupts the cached live-out set of region block \p B
  /// (fault stage "liveness-delta"; see Liveness::corruptLiveOutForTest).
  void corruptLiveOutForTest(BlockId B) { LiveOuts[slotOf(B)].clear(); }

private:
  /// Rebuilds slot \p S's UEVar/Kill summary from the function's current
  /// contents; returns true when either set changed.
  bool rebuildSlotSets(const Function &F, unsigned S);

  unsigned denseIndex(Reg R) const {
    GIS_ASSERT(R.isValid(), "liveness query on invalid register");
    return ClassBase[static_cast<unsigned>(R.regClass())] + R.index();
  }
  unsigned slotOf(BlockId B) const {
    GIS_ASSERT(ownsBlock(B), "liveness slice query outside the region");
    return static_cast<unsigned>(SlotOf[B]);
  }

  std::vector<BlockId> Blocks; ///< region real blocks, layout order
  std::vector<int> SlotOf;     ///< BlockId -> slot, -1 outside
  /// Per slot: slots of in-region CFG successors (back edges included).
  std::vector<std::vector<unsigned>> InSuccs;
  /// Per slot: slots of in-region CFG predecessors (the inverse of
  /// InSuccs), for the delta path's backward affected-set walk.
  std::vector<std::vector<unsigned>> InPreds;
  /// Per slot: union of the frozen live-in sets of out-of-region CFG
  /// successors (loop exits and collapsed child-loop entries), sorted.
  /// Stored as Reg values so the set survives universe growth.
  std::vector<std::vector<Reg>> Boundary;

  std::array<unsigned, 3> ClassBase = {0, 0, 0};
  unsigned Universe = 0;
  std::vector<BitSet> LiveIns;  ///< per slot
  std::vector<BitSet> LiveOuts; ///< per slot
  std::vector<BitSet> UEVars;   ///< per slot, cached for delta updates
  std::vector<BitSet> Kills;    ///< per slot, cached for delta updates
  /// Per slot: BoundaryBits = Boundary in the current dense indexing.
  std::vector<BitSet> BoundaryBits;
};

/// One region's schedulable slice: an owning snapshot of the region shape
/// (SchedRegion), the blocks/instructions it owns, and the region-local
/// dominator, CSPDG and liveness views.
class RegionSlice {
public:
  RegionSlice() = default;

  /// Builds the slice for \p R (which must have been built on \p F in its
  /// current state).  The overload without \p WholeLV computes the
  /// whole-function liveness itself; pass it in when building slices for
  /// several regions of one function.
  static RegionSlice build(const Function &F, SchedRegion R);
  static RegionSlice build(const Function &F, SchedRegion R,
                           const Liveness &WholeLV);

  /// The region shape this slice was built from (owned copy; stays valid
  /// independently of the caller's SchedRegion).
  const SchedRegion &region() const { return R; }

  /// The region's real blocks, in layout order.
  const std::vector<BlockId> &blocks() const { return Blocks; }

  /// Ids of the instructions the region owned at build time.
  const std::vector<InstrId> &instrs() const { return Instrs; }

  bool ownsBlock(BlockId B) const { return LV.ownsBlock(B); }

  /// Region-local control dependences (the CSPDG).
  const ControlDeps &cspdg() const { return CD; }

  /// Dominators / postdominators of the region forward graph.
  const DomTree &dom() const { return CD.dom(); }
  const PostDomTree &postDom() const { return CD.postDom(); }

  /// Region-restricted liveness (frozen boundary; see LivenessSlice).
  const LivenessSlice &liveness() const { return LV; }

private:
  SchedRegion R;
  std::vector<BlockId> Blocks;
  std::vector<InstrId> Instrs;
  ControlDeps CD;
  LivenessSlice LV;
};

} // namespace gis

#endif // GIS_ANALYSIS_REGIONSLICE_H
