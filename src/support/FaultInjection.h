//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the transactional pipeline.  The
/// rollback paths are only trustworthy if they are exercised; this hook
/// corrupts the output of a chosen transform on its Nth occurrence so the
/// verifier/rollback machinery can be tested end to end.
///
/// Armed either programmatically (tests) or with the GIS_FAULT_INJECT
/// environment variable, whose value is "<stage>" or "<stage>:<n>": the
/// stage is one of the pipeline stage names ("prerename", "unroll",
/// "rotate", "region", "local") and n is the 1-based
/// occurrence of that stage to corrupt (default 1).  The fault fires once
/// per arming.
///
/// The persistent-cache I/O layer (persist/PersistIO.h) registers four
/// more stages -- "persist-write", "persist-rename", "persist-read" and
/// "persist-truncate" -- whose fault is an I/O failure (or a torn write)
/// instead of IR corruption, so crash recovery of the disk cache is tested
/// with the same deterministic fail-at-Nth machinery.
///
/// The global scheduler's incremental fast path (DESIGN.md section 14)
/// registers two more: "liveness-delta" empties the target block's
/// live-on-exit set right after a freshen (stale-delta simulation; illegal
/// speculation may slip past the Section 5.3 guard, and the verifier or
/// rollback must catch it), and "heur-delta" zeroes the D/CP arrays after
/// a refresh (priority-only corruption; the schedule may differ but stays
/// legal).  Both set a force-full flag so the next update self-heals.
///
/// The round-two incremental machinery (DESIGN.md section 15) registers
/// two more: "disambig-cache" flips one provablyDisjoint answer of the
/// memory disambiguator (a poisoned cached alias fact; the fabricated
/// independence edge can admit an illegal motion, which the verifier or
/// the interpreter oracle must catch before commit), and "ckpt-delta"
/// drops one record from a delta checkpoint right before rollback (a
/// lost-delta simulation; the restore's manifest check must detect the
/// incomplete rollback and abort rather than continue from a silently
/// half-restored function).
///
/// The superblock phase (DESIGN.md section 16) registers two more:
/// "trace-form" corrupts the function after the (pure-analysis) trace
/// formation transaction via the generic corruption below, proving the
/// phase's rollback discards every formed trace along with the function
/// state; and "tail-dup" is fired *inside* the tail-duplication transform
/// (trace/TailDuplication.cpp), dropping one cloned instruction -- a
/// structurally well-formed but semantically wrong function, the
/// lost-duplicate bug class that only the differential oracle can catch.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SUPPORT_FAULTINJECTION_H
#define GIS_SUPPORT_FAULTINJECTION_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gis {

class Function;
using BlockId = uint32_t;

/// Process-wide fault-injection state.
///
/// Reentrancy contract: the injector is shared global state, the one
/// deliberate exception to the pipeline's "no shared mutable state" rule
/// (see sched/Pipeline.h).  shouldFire/arm/disarm are internally
/// synchronized, so concurrent pipeline runs (CompileEngine workers) are
/// data-race free and the fault still fires exactly once per arming --
/// but *which* concurrent run observes it is scheduling-dependent.  Tests
/// that assert on the faulted function must arm and fire on one thread.
class FaultInjector {
public:
  /// The singleton; on first use it arms itself from GIS_FAULT_INJECT if
  /// the variable is set.
  static FaultInjector &instance();

  /// Arms the injector from a "<stage>[:<n>]" spec; empty disarms.
  /// Re-arming resets the occurrence and fire counters.
  void arm(const std::string &Spec);
  void disarm() { arm(""); }

  bool armed() const {
    std::lock_guard<std::mutex> L(Mu);
    return !Stage.empty();
  }
  std::string stage() const {
    std::lock_guard<std::mutex> L(Mu);
    return Stage;
  }
  unsigned trigger() const {
    std::lock_guard<std::mutex> L(Mu);
    return Trigger;
  }

  /// Call once per occurrence of \p StageName; returns true exactly when
  /// the armed stage's Nth occurrence is reached (one-shot: subsequent
  /// occurrences return false until re-armed).  Occurrences observed from
  /// concurrent threads count in arrival order.
  bool shouldFire(const char *StageName);

  /// Number of times this arming has fired (0 or 1).
  unsigned firedCount() const {
    std::lock_guard<std::mutex> L(Mu);
    return Fired;
  }

private:
  FaultInjector();

  mutable std::mutex Mu;
  std::string Stage;
  unsigned Trigger = 1;
  unsigned Seen = 0;
  unsigned Fired = 0;
};

/// Deterministically corrupts \p F the way a buggy transform would:
/// reverses the instruction list of the first block that ends in a
/// terminator and has at least two instructions (the terminator lands
/// first -- structurally ill-formed), or, failing that, appends a
/// duplicate of the first instruction of the first nonempty block (one
/// instruction in two positions).  Returns false when the function has no
/// corruptible block.
bool corruptFunctionForTest(Function &F);

/// Same corruption strategies, restricted to \p Blocks (one scheduling
/// region's blocks): a "region" fault then damages exactly the region that
/// owns the transaction, so tests can assert sibling regions survive the
/// rollback untouched.  Returns false when no listed block is corruptible.
bool corruptRegionForTest(Function &F, const std::vector<BlockId> &Blocks);

} // namespace gis

#endif // GIS_SUPPORT_FAULTINJECTION_H
