//===- sched/Heuristics.h - D and CP scheduling heuristics ------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two integer-valued priority functions of paper Section 5.2, both
/// computed locally (over intra-block data dependence edges):
///
///  - D(I), the *delay heuristic*: how many delay slots may occur on a path
///    from I to the end of its block;
///      D(I) = max over intra-block DDG successors J of (D(J) + d(I,J)),
///    0 when I has no successors.
///
///  - CP(I), the *critical path heuristic*: time to finish everything that
///    depends on I within the block, assuming unbounded units;
///      CP(I) = max over successors J of (CP(J) + d(I,J)) + E(I),
///    E(I) when I has no successors.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SCHED_HEURISTICS_H
#define GIS_SCHED_HEURISTICS_H

#include "analysis/DataDeps.h"
#include "ir/Function.h"
#include "machine/MachineDescription.h"

#include <vector>

namespace gis {

/// Per-DDG-node D and CP values for one region.
struct Heuristics {
  std::vector<unsigned> D;  ///< delay heuristic per DDG node
  std::vector<unsigned> CP; ///< critical-path heuristic per DDG node
};

/// Computes D and CP over the intra-block edges of \p DD.  "Block" is the
/// current placement given by \p CurRegionNode (DDG node -> region node),
/// so the values reflect earlier code motions; pass the nodes' original
/// placement for the paper's one-shot computation.
Heuristics computeHeuristics(const Function &F, const DataDeps &DD,
                             const MachineDescription &MD,
                             const std::vector<unsigned> &CurRegionNode);

} // namespace gis

#endif // GIS_SCHED_HEURISTICS_H
