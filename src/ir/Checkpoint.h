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
/// layout, register counters), so a snapshot is one deep copy with no
/// pointer fix-up.  RegionSnapshot narrows the transaction boundary to one
/// scheduling region so the regions of a wave can fail (and roll back) or
/// commit without touching each other's blocks.  DeltaCheckpoint narrows
/// it further to first-touch records of exactly the blocks/instructions a
/// transform mutates, guarded by a manifest hash so a lost record is a
/// detected failure, not a silent mis-rollback (DESIGN.md section 15).
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

/// A snapshot of one scheduling region's slice of a Function: the
/// instruction lists of the region's blocks, the pool entries of the
/// instructions those lists reference, and the register counters.  This is
/// the region-local transaction boundary of the region waves
/// (sched/Pipeline.cpp): a failed region rolls back only its own blocks,
/// leaving sibling regions' committed schedules untouched, where the
/// whole-function FunctionSnapshot would discard them.
class RegionSnapshot {
public:
  /// Captures the contents of \p Blocks in \p F.  Region scheduling never
  /// moves instructions across the region boundary, so these lists (plus
  /// the registers counters for renaming) are exactly the state a region
  /// transaction can change.
  RegionSnapshot(const Function &F, std::vector<BlockId> Blocks);

  /// Rolls the captured blocks of \p F back to the snapshot, including the
  /// register counters.  \p F must not have been mutated outside the
  /// captured region since the snapshot was taken.
  void restore(Function &F) const;

  const std::vector<BlockId> &blocks() const { return Blocks; }
  /// Per captured block (parallel to blocks()): its instruction list.
  /// The scoped verifier reads the pre-pass region through these.
  const std::vector<std::vector<InstrId>> &blockInstrs() const {
    return BlockInstrs;
  }
  /// Pool entries of every instruction referenced by the captured lists.
  const std::vector<std::pair<InstrId, Instruction>> &instrs() const {
    return Instrs;
  }

private:
  std::vector<BlockId> Blocks;
  std::vector<std::vector<InstrId>> BlockInstrs;
  std::vector<std::pair<InstrId, Instruction>> Instrs;
  std::array<unsigned, 3> RegCounts = {0, 0, 0};
};

/// A first-touch delta checkpoint of one Function: instead of copying the
/// whole function up front (FunctionSnapshot), the transform notes each
/// block list / pool entry *before* first mutating it, and rollback
/// re-applies exactly those records.  Construction takes an O(n)
/// allocation-free manifest hash of the full function; restore recomputes
/// it and reports a mismatch, so a transform that mutated state it never
/// noted (a lost delta) is detected fail-stop instead of silently
/// rolling back to a wrong state.  The "ckpt-delta" fault-injection stage
/// drops a record deliberately to prove that containment path fires.
class DeltaCheckpoint {
public:
  /// Captures shape and manifest of \p F.  With \p Armed false the
  /// checkpoint is a no-op shell (notes ignored, no manifest): the
  /// `--no-incremental` fallback runs under a FunctionSnapshot instead.
  explicit DeltaCheckpoint(const Function &F, bool Armed = true);

  /// Saves the current instruction list of block \p B (first touch only).
  void noteBlock(BlockId B);
  /// Saves the current pool entry of instruction \p I (first touch only).
  void noteInstr(InstrId I);
  /// Saves every block list (used before whole-function test corruption,
  /// which rewrites lists only).
  void noteAllBlocks();

  bool armed() const { return Armed; }
  /// True when any delta record has been saved.
  bool hasRecords() const {
    return !SavedBlocks.empty() || !SavedInstrs.empty();
  }
  /// Drops one record whose saved content still differs from the current
  /// function state -- i.e. a record rollback genuinely needs -- keeping
  /// its first-touch flag set so the loss is not silently repaired.
  /// Returns false when every record is redundant.  Test-only.
  bool dropOneRecordForTest();

  /// Rolls \p F back by re-applying the saved records and register
  /// counters, then recomputes the manifest.  Returns false when the
  /// restored bytes do not match the construction-time manifest (a delta
  /// record was lost); the caller must treat that as fatal.
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
  std::vector<uint8_t> BlockNoted, InstrNoted;
  std::vector<std::pair<BlockId, std::vector<InstrId>>> SavedBlocks;
  std::vector<std::pair<InstrId, Instruction>> SavedInstrs;
};

/// Field-by-field equality of two functions: same name, parameters,
/// register counters, layout, block labels and contents, and identical
/// instruction pools (opcode, operands, immediates, branch targets,
/// callees, original order).  This is the "bit-identical" contract that
/// rollback restores.
bool functionsIdentical(const Function &A, const Function &B);

} // namespace gis

#endif // GIS_IR_CHECKPOINT_H
