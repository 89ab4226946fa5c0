//===- analysis/LoopInfo.h - Natural loop detection -------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural-loop detection and the loop nesting forest.  The paper schedules
/// "regions": loop bodies (strongly connected components with back edges)
/// and the residual function body; innermost regions first (Section 5.1).
/// Loops are found as natural loops of back edges (the paper assumes
/// reducible control flow, Section 4.1); LoopInfo also reports
/// reducibility so irreducible functions can be skipped.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_ANALYSIS_LOOPINFO_H
#define GIS_ANALYSIS_LOOPINFO_H

#include "analysis/Dominators.h"
#include "ir/Function.h"

namespace gis {

/// One natural loop.
struct Loop {
  BlockId Header = InvalidId;
  std::vector<BlockId> Latches; ///< sources of back edges to the header
  BitSet Blocks;                ///< members, over BlockIds
  int Parent = -1;              ///< index of the enclosing loop, -1 if top
  std::vector<int> Children;    ///< indices of directly nested loops
  unsigned Depth = 1;           ///< 1 for outermost loops

  bool contains(BlockId B) const { return Blocks.test(B); }
  unsigned numBlocks() const { return Blocks.count(); }

  bool operator==(const Loop &) const = default;
};

/// Loop nesting forest of one function.
class LoopInfo {
public:
  /// Computes loops of \p F (CFG edges must be up to date).
  static LoopInfo compute(const Function &F);

  const std::vector<Loop> &loops() const { return Loops; }
  unsigned numLoops() const { return static_cast<unsigned>(Loops.size()); }
  const Loop &loop(unsigned Index) const { return Loops[Index]; }

  /// Index of the innermost loop containing \p B, or -1.
  int innermostLoopOf(BlockId B) const { return InnermostLoop[B]; }

  /// True if every retreating edge is a back edge (target dominates
  /// source), i.e. the CFG is reducible.
  bool isReducible() const { return Reducible; }

  /// Loop indices ordered innermost-first (children before parents), the
  /// scheduling order of paper Section 5.1.
  std::vector<unsigned> innermostFirstOrder() const;

  /// Same loops, nesting, innermost-loop map and reducibility (the
  /// GIS_SLOWPATH_CHECK build compares every LoopInfo the pipeline reuses
  /// with a fresh compute).
  bool operator==(const LoopInfo &) const = default;

private:
  std::vector<Loop> Loops;
  std::vector<int> InnermostLoop;
  bool Reducible = true;
};

} // namespace gis

#endif // GIS_ANALYSIS_LOOPINFO_H
