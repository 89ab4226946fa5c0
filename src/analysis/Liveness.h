//===- analysis/Liveness.h - Live-register dataflow -------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward liveness over symbolic registers, in two views.
///
/// Liveness solves the whole function once; the verifier, the register
/// allocator, dead-code elimination and the pressure measurement read it,
/// and the global scheduler freezes a region's boundary from it.
///
/// RegionLiveness is the view the global scheduler maintains while it
/// schedules one region (paper Section 5.3: an instruction must not be
/// moved speculatively into a block if it writes a register that is live
/// on exit from that block, so the live-on-exit sets are kept current
/// after each speculative motion).  It solves the region's blocks only,
/// and re-solves them whole after a motion or rename.  Both views use
/// dense per-class register indexing throughout, and keep each per-block
/// family of sets (UEVar, Kill, LiveIn, LiveOut, boundary) as one flat
/// word array of rows; the fixpoints work a row at a time through one
/// scratch row.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_ANALYSIS_LIVENESS_H
#define GIS_ANALYSIS_LIVENESS_H

#include "analysis/Graph.h"
#include "ir/Function.h"
#include "support/BitSet.h"

#include <array>
#include <vector>

namespace gis {

class SchedRegion;

/// Per-block live-in / live-out register sets of one function.
class Liveness {
public:
  /// Computes liveness for \p F (CFG must be up to date).
  static Liveness compute(const Function &F);

  /// True if \p R is live on exit from block \p B.
  bool isLiveOut(BlockId B, Reg R) const {
    return LiveOut.test(B, denseIndex(R));
  }

  /// True if \p R is live on entry to block \p B.
  bool isLiveIn(BlockId B, Reg R) const {
    return LiveIn.test(B, denseIndex(R));
  }

  /// Number of distinct register slots in the universe.
  unsigned universeSize() const { return Universe; }

  /// Registers live on exit from \p B, materialized as Reg values.
  std::vector<Reg> liveOutRegs(BlockId B) const;

  /// Registers live on entry to \p B, materialized as Reg values.
  std::vector<Reg> liveInRegs(BlockId B) const;

  /// Calls \p Fn for every register live on exit from / entry to \p B, in
  /// dense-index order, without materializing a list.
  template <typename CallableT>
  void forEachLiveOut(BlockId B, CallableT Fn) const {
    LiveOut.forEachInRow(B, [&](unsigned I) { Fn(regForIndex(I)); });
  }
  template <typename CallableT>
  void forEachLiveIn(BlockId B, CallableT Fn) const {
    LiveIn.forEachInRow(B, [&](unsigned I) { Fn(regForIndex(I)); });
  }

private:
  unsigned denseIndex(Reg R) const {
    GIS_ASSERT(R.isValid(), "liveness query on invalid register");
    return ClassBase[static_cast<unsigned>(R.regClass())] + R.index();
  }

  Reg regForIndex(unsigned Index) const;

  std::array<unsigned, 3> ClassBase = {0, 0, 0};
  unsigned Universe = 0;
  BitMatrix LiveIn;  ///< one row per block
  BitMatrix LiveOut; ///< one row per block
};

/// Region-restricted backward liveness with a frozen boundary.
///
/// The solved system is the whole-function one restricted to the region's
/// real blocks: live-out of a region block unions the live-in sets of its
/// in-region CFG successors (including the back edge to the region entry)
/// with the live-in sets of its out-of-region successors, the latter
/// captured once at build time from a whole-function Liveness.
///
/// Why the restricted view is exact, not an approximation: the region's
/// live sets satisfy the whole-function dataflow equations with the
/// live-in sets of out-of-region successor blocks substituted as
/// constants (the "frozen boundary").  The boundary stays exact while only
/// this region is edited under the scheduler's legality rules: upward
/// motion cannot cross a reaching definition (flow dependence), so no
/// frozen live-in set changes.  The regions of one wave are block-disjoint,
/// so a view built when a task starts, on a boundary frozen at wave start,
/// answers exactly as one built at wave start would.
/// `tests/region_wave_test.cpp` checks the equivalence against
/// whole-function liveness over the random-program corpus.
class RegionLiveness {
public:
  RegionLiveness() = default;

  /// Captures the boundary of \p R from \p WholeLV and solves the region
  /// equations against the current contents of \p F.  \p WholeLV must be
  /// exact for \p F's out-of-region blocks.
  static RegionLiveness build(const Function &F, const SchedRegion &R,
                              const Liveness &WholeLV);

  /// Re-solves the region equations against the current contents of \p F's
  /// region blocks.  The frozen boundary is reused; the dense register
  /// universe is re-derived from the function's current counters, so
  /// registers created since build() are covered.
  void recompute(const Function &F);

  /// True if \p B is one of the region's real blocks (the only blocks this
  /// view can answer queries for).
  bool ownsBlock(BlockId B) const {
    return B < SlotOf.size() && SlotOf[B] >= 0;
  }

  /// True if \p R is live on exit from region block \p B.
  bool isLiveOut(BlockId B, Reg R) const {
    return LiveOuts.test(slotOf(B), denseIndex(R));
  }

  /// True if \p R is live on entry to region block \p B.
  bool isLiveIn(BlockId B, Reg R) const {
    return LiveIns.test(slotOf(B), denseIndex(R));
  }

private:
  unsigned denseIndex(Reg R) const {
    GIS_ASSERT(R.isValid(), "liveness query on invalid register");
    return ClassBase[static_cast<unsigned>(R.regClass())] + R.index();
  }
  unsigned slotOf(BlockId B) const {
    GIS_ASSERT(ownsBlock(B), "region liveness query outside the region");
    return static_cast<unsigned>(SlotOf[B]);
  }

  std::vector<BlockId> Blocks; ///< region real blocks, layout order
  std::vector<int> SlotOf;     ///< BlockId -> slot, -1 outside
  /// In-region CFG edges between slots (back edges included).
  DiGraph InRegion;
  /// Per slot: union of the frozen live-in sets of out-of-region CFG
  /// successors (loop exits and collapsed child-loop entries), sorted;
  /// slot S's are BoundaryRegs[BoundaryOff[S] .. BoundaryOff[S + 1]).
  /// Stored as Reg values so the set survives universe growth.
  std::vector<unsigned> BoundaryOff;
  std::vector<Reg> BoundaryRegs;

  std::array<unsigned, 3> ClassBase = {0, 0, 0};
  unsigned Universe = 0;
  BitMatrix LiveIns;  ///< one row per slot
  BitMatrix LiveOuts; ///< one row per slot
  /// Working rows of recompute(), one per slot, kept so that a re-solve
  /// reuses their storage: upward-exposed uses, kills, and the boundary in
  /// the current dense indexing.
  BitMatrix UEVars, Kills, BoundaryBits;
  /// One row of working space for the fixpoint.
  std::vector<uint64_t> Scratch;
};

} // namespace gis

#endif // GIS_ANALYSIS_LIVENESS_H
