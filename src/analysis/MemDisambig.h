//===- analysis/MemDisambig.h - Memory disambiguation -----------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory disambiguation for data-dependence construction (paper Section
/// 4.2: two memory-touching instructions depend on each other unless "it is
/// proven that they address different locations").  The prover is
/// deliberately simple and sound:
///
///  - addresses are resolved to (root, offset) descriptors by following
///    chains of single-definition LI / AI / LR instructions whose
///    definitions dominate both accesses;
///  - two accesses with the same root and different offsets are disjoint;
///  - two accesses off the *same base register* are disjoint when their
///    displacements differ and the base provably holds the same value at
///    both accesses (no definition of the base in the region, or both
///    accesses in one block with no intervening redefinition).
///
/// Anything unresolved is treated as aliasing.
///
/// The function-wide inputs (block/position maps, single static
/// definitions, the dominator tree) are a DisambigFacts value that each
/// scheduling phase derives once and passes down (DESIGN.md section 15);
/// without one the disambiguator derives them stand-alone.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_ANALYSIS_MEMDISAMBIG_H
#define GIS_ANALYSIS_MEMDISAMBIG_H

#include "analysis/Dominators.h"
#include "analysis/Region.h"
#include "ir/Function.h"

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

namespace gis {

/// Function-wide facts behind MemDisambiguator's address resolution, a
/// plain value of one scheduling phase: a region wave derives them from
/// the wave-start function next to its liveness, the local pass on entry.
struct DisambigFacts {
  /// Owning block of every instruction (InvalidId for orphans).
  std::vector<BlockId> BlockOf;
  /// Position of every instruction inside its block's list.
  std::vector<unsigned> PosOf;
  /// Single static definition of each register, or InvalidId when the
  /// register has zero or multiple definitions.
  std::unordered_map<uint32_t, InstrId> SingleDef;
  /// Function dominator tree; null when derived without it (the
  /// disambiguator then builds one on its first cross-block query).
  std::unique_ptr<DomTree> Dom;

  /// Derives the facts from \p F.  \p BuildDom also builds the dominator
  /// tree.
  static DisambigFacts build(const Function &F, bool BuildDom = true);

  /// Patches PosOf after the list of block \p B of \p F was reordered.
  /// An intra-block reorder changes only positions: BlockOf, SingleDef
  /// and dominance stay exact.  Under GIS_SLOWPATH_CHECK the patched
  /// facts are compared with a fresh derivation; a divergence is fatal.
  void updatePositions(const Function &F, BlockId B);
};

/// Proves non-aliasing between memory instructions of one region.
class MemDisambiguator {
public:
  /// \p F must have up-to-date CFG edges.  The region scopes the
  /// "no definition of the base register" reasoning.  \p Facts, when
  /// given, are the calling phase's facts of \p F; without them the
  /// disambiguator derives its own.
  MemDisambiguator(const Function &F, const SchedRegion &R,
                   const DisambigFacts *Facts = nullptr);

  /// True if memory instructions \p A and \p B provably access different
  /// locations.  Either instruction may be a load or store; calls are
  /// never disjoint from anything.
  bool provablyDisjoint(InstrId A, InstrId B) const;

private:
  /// A resolved address: offset relative to a root.  Root is either a
  /// constant (IsConst) or the stable value of a register (RootReg).
  struct Address {
    bool IsConst = false;
    Reg RootReg;
    int64_t Offset = 0;
  };

  bool provablyDisjointImpl(InstrId A, InstrId B) const;
  std::optional<Address> resolveAddress(InstrId Access) const;
  std::optional<Address> resolveReg(Reg R, InstrId User, unsigned Depth) const;

  /// True if \p Def (the single definition of some register) dominates the
  /// use site \p User.
  bool defDominatesUse(InstrId Def, InstrId User) const;

  /// The function-wide dominator tree: the facts' one when they carry it,
  /// else built on the first cross-block query (same-block queries, the
  /// common case, use positions only).
  const DomTree &funcDom() const;

  const Function &F;
  const SchedRegion &R;
  /// Stand-alone facts, derived when the caller passes none.
  std::optional<DisambigFacts> OwnFacts;
  const DisambigFacts *Facts;
  mutable std::unique_ptr<DomTree> LazyDom;
  /// Number of definitions of each register inside the region's real
  /// blocks.
  std::unordered_map<uint32_t, unsigned> RegionDefs;
  /// Snapshot of FaultInjector::armed() at construction: keeps the
  /// fault-injection probe off the per-pair hot path in normal runs.
  bool CheckFault = false;
};

} // namespace gis

#endif // GIS_ANALYSIS_MEMDISAMBIG_H
