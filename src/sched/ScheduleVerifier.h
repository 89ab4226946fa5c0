//===- sched/ScheduleVerifier.h - Semantic schedule verifier ----*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A semantic verifier for one global-scheduling region pass: given the
/// function before and after the pass (same CFG, reordered/moved
/// instructions), it mechanically re-checks the paper's legality rules for
/// every inter-block motion:
///
///  - conservation: region blocks hold exactly the same instructions, and
///    blocks outside the region are untouched;
///  - dependence order: every data-dependence edge of the region's DDG
///    (built on the *original* function) still runs forward in the new
///    placement;
///  - motion discipline: motion is upward only, never moves pinned
///    (call/branch) instructions, and never requires duplication
///    (Definition 6 motions are a separate pass);
///  - live-on-exit rule (Section 5.3): a speculatively moved instruction
///    must not kill a register that a bypassed path still reads -- checked
///    as "the (un-renamed) def is live on exit from the target block both
///    before and after the pass";
///  - parallel write-after-read order: a moved write must not be placed
///    ahead of a dependence-unordered moved read of the same register in
///    the target block (the paths are parallel, so the DDG has no edge to
///    order them; the read must keep seeing the value from above).
///
/// This is the CFG/PDG semantic-equivalence contract checked structurally;
/// the interpreter-based differential oracle (interp/DifferentialOracle.h)
/// complements it with end-to-end execution.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SCHED_SCHEDULEVERIFIER_H
#define GIS_SCHED_SCHEDULEVERIFIER_H

#include "analysis/Region.h"
#include "ir/Checkpoint.h"
#include "ir/Function.h"
#include "machine/MachineDescription.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gis {

class PDG;

/// Re-checks every motion of one region scheduling pass.  \p Before is the
/// function as it was when \p R was built; \p After is the transformed
/// function (same blocks and layout, possibly different block contents).
/// Returns human-readable problems; empty means the schedule is legal.
/// \p Prebuilt (optional) is a PDG already built on \p Before for \p R --
/// the scheduler exports the one it scheduled against, sparing the
/// verifier the dominant rebuild cost; verdicts are identical because the
/// PDG is a pure function of (Before, R, MD).
std::vector<std::string> verifyRegionSchedule(const Function &Before,
                                              const Function &After,
                                              const SchedRegion &R,
                                              const MachineDescription &MD,
                                              const PDG *Prebuilt = nullptr);

/// Convenience: true when verifyRegionSchedule reports no problems.
inline bool isScheduleLegal(const Function &Before, const Function &After,
                            const SchedRegion &R,
                            const MachineDescription &MD) {
  return verifyRegionSchedule(Before, After, R, MD).empty();
}

/// Pre-pass state the block-scoped verifier needs in place of a full
/// Before function: the function shape plus one content hash per
/// out-of-region block list.  Captured before the pass runs (in-place
/// scheduling leaves no untouched copy to compare against); the hashes
/// let the scoped verifier re-run the full verifier's
/// "block outside the region changed" sweep at O(instructions) hashing
/// cost instead of an O(function) deep copy.
class ScopedVerifyContext {
public:
  ScopedVerifyContext() = default;

  /// Captures \p F's shape and out-of-region block fingerprints for a
  /// coming pass over region \p R.
  static ScopedVerifyContext capture(const Function &F, const SchedRegion &R);

  unsigned NumBlocks = 0;
  unsigned NumInstrs = 0;
  std::vector<BlockId> Layout;
  /// Per block: is it one of the region's real blocks?
  std::vector<uint8_t> InRegion;
  /// Per block: content hash of its instruction list (0 for region
  /// blocks, which are covered by the RegionSnapshot instead).
  std::vector<uint64_t> OutListHash;
};

/// Per-verification work numbers for the coldpath counters.
struct ScopedVerifyStats {
  unsigned BlocksVerified = 0; ///< region blocks whose list actually changed
  unsigned BlocksTotal = 0;    ///< region blocks overall
};

/// Block-scoped variant of verifyRegionSchedule (DESIGN.md section 15):
/// verifies the same legality rules from a pre-pass capture
/// (\p Ctx + \p BeforeRegion, the first-touch region snapshot the
/// transaction took for rollback and the scheduler noted its renames
/// into) instead of a full Before function, reusing the scheduler's own
/// PDG \p P.  It first checks that the snapshot's view of the region --
/// the captured lists, the noted pool entries, every other entry read
/// from \p After -- fingerprints to the snapshot's manifest; a mismatch
/// (an unnoted rewrite) is reported as a problem, never silently compared.
/// It then skips the work only provably-untouched
/// blocks imply: dependence edges whose endpoints' home blocks kept their
/// exact pre-pass lists, and the liveness re-solves (the Section 5.3
/// rule is decided by same-read witnesses alone -- a shared witness *is*
/// a live-out proof on both sides, so the live-out bit tests are
/// redundant).  Verdicts and diagnostic strings are identical to the
/// full sweep; tests/coldpath_test.cpp fuzzes that equivalence and the
/// GIS_SLOWPATH_CHECK build asserts it on every region transaction.
std::vector<std::string> verifyRegionScheduleScoped(
    const ScopedVerifyContext &Ctx, const RegionSnapshot &BeforeRegion,
    const Function &After, const SchedRegion &R, const MachineDescription &MD,
    const PDG &P, ScopedVerifyStats *Stats = nullptr);

} // namespace gis

#endif // GIS_SCHED_SCHEDULEVERIFIER_H
