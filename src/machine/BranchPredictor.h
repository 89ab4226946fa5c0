//===- machine/BranchPredictor.h - Branch predictor models ------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Branch predictor models for the timing simulator (DESIGN.md section 16).
/// The paper's machine model charges nothing for control flow, which makes
/// speculation look free and superblock formation look pointless; real
/// superscalar front ends refetch after a mispredicted conditional branch,
/// and that refetch penalty is exactly what superblocks buy back (the hot
/// path becomes one fall-through run of code with fewer taken branches and
/// better-predicted exits).  Three models bracket the design space:
///
///  - AlwaysTaken: the weakest static predictor; a lower bound.
///  - Bimodal2Bit: the classic per-branch two-bit saturating counter table
///    (Smith, ISCA 1981) -- the realistic middle ground.
///  - ProfileOracle: the best *static* per-branch prediction, majority
///    direction from recorded edge profiles -- the upper bound any
///    profile-guided hinting could reach.
///
/// PredictorKind::None disables branch modeling entirely; the simulator's
/// cycle counts are then bit-identical to the pre-predictor model.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_MACHINE_BRANCHPREDICTOR_H
#define GIS_MACHINE_BRANCHPREDICTOR_H

#include "ir/Function.h"
#include "sched/Profile.h"

#include <cstdint>
#include <vector>

namespace gis {

enum class PredictorKind {
  None,          ///< no branch modeling (cycle counts unchanged)
  AlwaysTaken,   ///< static: every conditional branch predicted taken
  Bimodal2Bit,   ///< dynamic: per-branch 2-bit saturating counters
  ProfileOracle, ///< static: per-branch majority from the edge profile
};

struct BranchPredictorOptions {
  PredictorKind Kind = PredictorKind::None;
  /// Refetch penalty in cycles charged after a mispredicted conditional
  /// branch resolves (the next instruction cannot issue earlier).
  unsigned MispredictPenalty = 3;
  /// Bimodal table entries; must be a power of two.
  unsigned BimodalTableSize = 256;
  /// Edge profile for ProfileOracle (borrowed; may be null).  A branch
  /// the profile has no edge weights for is predicted taken and counted
  /// in BranchPredictorStats::OracleFallbacks.
  const ProfileData *Profile = nullptr;
};

struct BranchPredictorStats {
  uint64_t Branches = 0;    ///< conditional branches observed
  uint64_t Mispredicts = 0; ///< wrong predictions among them
  /// ProfileOracle predictions made without edge weights (always taken):
  /// the oracle is an upper bound only where this stays 0.
  uint64_t OracleFallbacks = 0;
};

/// One predictor instance; carries the bimodal table state across a trace.
class BranchPredictor {
public:
  explicit BranchPredictor(const BranchPredictorOptions &Opts);

  bool enabled() const { return Opts.Kind != PredictorKind::None; }

  /// Predicts the conditional branch \p Instr (executed in block \p B of
  /// \p F), compares against the actual direction \p Taken, updates the
  /// predictor state, and returns true on a mispredict.
  bool observe(const Function &F, BlockId B, InstrId Instr, bool Taken);

  const BranchPredictorStats &stats() const { return Stats; }

private:
  BranchPredictorOptions Opts;
  BranchPredictorStats Stats;
  /// 2-bit saturating counters, 0..3; >= 2 predicts taken.  Initialized
  /// weakly taken (2), the conventional cold state.
  std::vector<uint8_t> Table;
};

} // namespace gis

#endif // GIS_MACHINE_BRANCHPREDICTOR_H
