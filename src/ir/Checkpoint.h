//===- ir/Checkpoint.h - Function checkpoint/restore ------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cheap deep snapshots of a Function, the substrate of the transactional
/// scheduling pipeline: every transform runs against a checkpoint, and a
/// failed verification rolls the function back to it bit-for-bit.  A
/// Function is a handful of dense vectors (instruction pool, blocks,
/// layout, register counters), so a full snapshot is one deep copy with no
/// pointer fix-up; the scheduling path takes one only where a reference
/// needs the whole pre-pass function (the differential oracle, the
/// GIS_SLOWPATH_CHECK shadows).  Everywhere else the checkpoints are
/// first-touch: RegionSnapshot narrows the transaction boundary to one
/// scheduling region so the regions of a wave can fail (and roll back) or
/// commit without touching each other's blocks, and DeltaCheckpoint keeps
/// records of exactly the blocks/instructions a whole-function transform
/// mutates.  Both are guarded by a manifest fingerprint, so a lost record
/// is a detected failure, not a silent mis-rollback (DESIGN.md
/// section 15).
///
//===----------------------------------------------------------------------===//

#ifndef GIS_IR_CHECKPOINT_H
#define GIS_IR_CHECKPOINT_H

#include "ir/Function.h"

#include <array>
#include <utility>
#include <vector>

namespace gis {

/// A deep snapshot of one Function.
class FunctionSnapshot {
public:
  /// Captures the complete state of \p F (pool, blocks, layout, registers,
  /// cached CFG edges).
  explicit FunctionSnapshot(const Function &F) : Saved(F) {}

  /// Rolls \p F back to the captured state.  \p F must be the function the
  /// snapshot was taken from (or an equally-shaped one); afterwards
  /// identical(F, function()) holds.
  void restore(Function &F) const { F = Saved; }

  /// The captured state, readable in place (used by the semantic verifier
  /// and the differential oracle as the "original" side).
  const Function &function() const { return Saved; }

private:
  Function Saved;
};

/// A first-touch snapshot of one scheduling region's slice of a Function:
/// the instruction lists of the region's blocks, the register counters, and
/// a manifest fingerprint of those lists plus the pool entries they
/// reference.  No pool entry is copied up front: the only pass that
/// rewrites region pool entries, renaming inside the global scheduler,
/// notes each entry before its first rewrite.  This is the region-local
/// transaction boundary of the region waves (sched/Pipeline.cpp): a failed
/// region rolls back only its own blocks, leaving sibling regions'
/// committed schedules untouched, where the whole-function
/// FunctionSnapshot would discard them.  The same snapshot is the scoped
/// verifier's "before" side (sched/ScheduleVerifier.h), so a missed note
/// is a verifier failure and a fail-stop rollback, never a silent compare
/// of the post-pass state with itself.
class RegionSnapshot {
public:
  /// Captures the lists of \p Blocks in \p F and fingerprints them with
  /// their instructions' pool entries.  Region scheduling never moves
  /// instructions across the region boundary, so these lists, the noted
  /// entries and the register counters (for renaming) are exactly the
  /// state a region transaction can change.
  RegionSnapshot(const Function &F, std::vector<BlockId> Blocks);

  /// Saves the current pool entry of instruction \p I (first touch only).
  /// \p I must be one of the captured region instructions.
  void noteInstr(InstrId I);

  /// Rolls the captured blocks of \p F back to the snapshot, including the
  /// noted pool entries and the register counters, then checks the
  /// manifest; a mismatch (a rewrite nobody noted) is a fatal error.
  /// \p F must not have been mutated outside the captured region since
  /// the snapshot was taken.
  void restore(Function &F) const;

  /// True when the snapshot's view of the pre-pass region -- the captured
  /// lists, the noted pool entries, every other entry read from \p F --
  /// fingerprints to the construction-time manifest.
  bool viewMatchesManifest(const Function &F) const;

  /// Drops one note whose saved entry still differs from \p F, keeping
  /// its first-touch flag set so the loss is not silently repaired.
  /// Returns false when every note is redundant.  Test-only.
  bool dropOneNoteForTest(const Function &F);

  const std::vector<BlockId> &blocks() const { return Blocks; }
  /// Per captured block (parallel to blocks()): its instruction list.
  /// The scoped verifier reads the pre-pass region through these.
  const std::vector<std::vector<InstrId>> &blockInstrs() const {
    return BlockInstrs;
  }
  /// Pre-pass pool entries of the noted (rewritten) instructions.
  const std::vector<std::pair<InstrId, Instruction>> &instrs() const {
    return Instrs;
  }

private:
  /// Fingerprint of the view viewMatchesManifest describes.
  uint64_t viewFingerprint(const Function &F) const;

  std::vector<BlockId> Blocks;
  std::vector<std::vector<InstrId>> BlockInstrs;
  std::vector<std::pair<InstrId, Instruction>> Instrs;
  /// Per pool entry, allocated on the first note: 0 when not noted, else
  /// its position in Instrs plus one (LostNote once dropped by a test).
  std::vector<uint32_t> NoteSlot;
  static constexpr uint32_t LostNote = ~0u;
  const Function *Src = nullptr;
  uint64_t Manifest = 0;
  std::array<unsigned, 3> RegCounts = {0, 0, 0};
};

/// A first-touch delta checkpoint of one Function: instead of copying the
/// whole function up front (FunctionSnapshot), the transform notes each
/// block list / pool entry *before* first mutating it, and rollback
/// re-applies exactly those records.  A CFG transform (unroll, rotate,
/// tail duplication) also notes the layout and the original-order numbers
/// once, since it inserts blocks and renumbers the whole function; the
/// blocks and pool entries it appends need no record, because rollback
/// truncates them.  Construction takes an O(n) allocation-free manifest
/// fingerprint of the full function; restore recomputes it and reports a
/// mismatch, so a transform that mutated state it never noted (a lost
/// delta) is detected fail-stop instead of silently rolling back to a
/// wrong state.  The "ckpt-delta" fault-injection stage drops a record
/// deliberately to prove that containment path fires.
class DeltaCheckpoint {
public:
  /// Captures shape and manifest of \p F.  With \p Armed false the
  /// checkpoint is a no-op shell (notes ignored, no manifest), for a
  /// pipeline run with transactions off, which never rolls back.
  explicit DeltaCheckpoint(const Function &F, bool Armed = true);

  /// Saves the current instruction list of block \p B (first touch only;
  /// blocks appended since construction need none).
  void noteBlock(BlockId B);
  /// Saves the current pool entry of instruction \p I (first touch only;
  /// entries appended since construction need none).
  void noteInstr(InstrId I);
  /// Saves every block list (used before whole-function test corruption,
  /// which rewrites lists only).
  void noteAllBlocks();
  /// Saves the layout and every instruction's original-order number, as
  /// one flat array (first call only).  A CFG transform calls it before
  /// it first creates a block.
  void noteLayout();

  /// True when any delta record has been saved.
  bool hasRecords() const {
    return !SavedBlocks.empty() || !SavedInstrs.empty() || LayoutNoted;
  }
  /// Drops one record whose saved content still differs from the current
  /// function state -- i.e. a record rollback genuinely needs -- keeping
  /// its first-touch flag set so the loss is not silently repaired.
  /// Returns false when every record is redundant.  Test-only.
  bool dropOneRecordForTest();

  /// Rolls \p F back: truncates the blocks and pool entries appended since
  /// construction, re-applies the saved records and register counters,
  /// recomputes the manifest and, when it matches, rebuilds the cached CFG
  /// edges.  Returns false when the restored state does not match the
  /// construction-time manifest (a delta record was lost); the caller
  /// must treat that as fatal.
  bool restore(Function &F) const;

  /// Approximate bytes of state the delta records hold, for the
  /// coldpath.ckpt_bytes counter (what a full FunctionSnapshot would have
  /// copied is the comparison point).
  uint64_t bytesSaved() const;

private:
  static uint64_t manifestOf(const Function &F);

  const Function *Src = nullptr;
  bool Armed = true;
  uint64_t Manifest = 0;
  unsigned NumBlocks = 0;
  unsigned NumInstrs = 0;
  std::array<unsigned, 3> RegCounts = {0, 0, 0};
  /// First-touch flags, allocated on the first note of their kind.
  std::vector<uint8_t> BlockNoted, InstrNoted;
  std::vector<std::pair<BlockId, std::vector<InstrId>>> SavedBlocks;
  std::vector<std::pair<InstrId, Instruction>> SavedInstrs;
  /// noteLayout's record: the layout, then NumInstrs original orders.
  /// LayoutNoted stays set when the record is dropped for a test.
  std::vector<uint32_t> SavedLayout;
  bool LayoutNoted = false;
};

/// Field-by-field equality of two functions: same name, parameters,
/// register counters, layout, block labels and contents, and identical
/// instruction pools (opcode, operands, immediates, branch targets,
/// callees, original order).  This is the "bit-identical" contract that
/// rollback restores.
bool functionsIdentical(const Function &A, const Function &B);

/// True when every block of \p A has the cached CFG edges of the same
/// block of \p B.  functionsIdentical leaves these derived lists out; a
/// full snapshot copies them, a delta rollback rebuilds them.
bool cfgEdgesIdentical(const Function &A, const Function &B);

} // namespace gis

#endif // GIS_IR_CHECKPOINT_H
