//===- analysis/PDG.h - Program Dependence Graph bundle ---------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Program Dependence Graph of one scheduling region: the control
/// subgraph (CSPDG) plus the instruction-level data dependence graph,
/// with the paper's code-motion classification on top:
///
///  - Definition 4: moving from B to A is *useful* iff A and B are
///    equivalent (A dominates B, B postdominates A);
///  - Definition 5: the motion is *speculative* iff B does not
///    postdominate A;
///  - Definition 6: the motion requires *duplication* iff A does not
///    dominate B;
///  - Definition 7: the motion is n-branch speculative where n is the
///    CSPDG path length from A to B.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_ANALYSIS_PDG_H
#define GIS_ANALYSIS_PDG_H

#include "analysis/ControlDeps.h"
#include "analysis/DataDeps.h"
#include "analysis/Region.h"
#include "machine/MachineDescription.h"

#include <iosfwd>

namespace gis {

/// How a candidate code motion is classified (paper Definitions 4-6).
enum class MotionKind : uint8_t {
  Identity,     ///< same block
  Useful,       ///< blocks are equivalent
  Speculative,  ///< target does not wait for the source's branch outcome
  Duplication,  ///< source executes on paths that bypass the target
  SpecAndDup,   ///< both speculative and duplicating
};

/// Returns a short name for \p K ("useful", "speculative", ...).
const char *motionKindName(MotionKind K);

/// Classification result for a motion from block B up to block A.
struct MotionClass {
  MotionKind Kind;
  /// Number of branches gambled on (Definition 7); 0 for useful motion,
  /// meaningful for speculative motions.
  unsigned SpeculationDegree;
};

/// The PDG of one region.
class PDG {
public:
  /// Builds the full PDG for region \p R of \p F under machine \p MD.
  /// \p Facts (optional) are the calling phase's disambiguation facts of
  /// \p F, shared across its regions (DataDeps::compute).
  static PDG build(const Function &F, const SchedRegion &R,
                   const MachineDescription &MD,
                   const DisambigFacts *Facts = nullptr);

  const SchedRegion &region() const { return *Region; }
  const ControlDeps &controlDeps() const { return *CDeps; }
  const DataDeps &dataDeps() const { return *DDeps; }

  /// Classifies moving an instruction from region node \p From up to
  /// region node \p To (motion is always upward, against control flow).
  MotionClass classifyMotion(unsigned From, unsigned To) const;

  /// The paper's EQUIV(A): region nodes equivalent to \p A and dominated
  /// by \p A, in dominance order.
  std::vector<unsigned> equivSet(unsigned A) const;

  /// Candidate blocks C(A) for 1-branch speculative scheduling (paper
  /// Section 5.1): EQUIV(A), plus the immediate CSPDG successors of A and
  /// of every member of EQUIV(A).  With \p MaxSpecDepth > 1 the CSPDG
  /// successor expansion is iterated (the paper's future-work extension).
  std::vector<unsigned> candidateBlocks(unsigned A,
                                        unsigned MaxSpecDepth) const;

  /// Renders a human-readable dump (CSPDG edges, equivalence classes and
  /// data dependence edges) for debugging and the paper-figure examples.
  void print(const Function &F, std::ostream &OS) const;

private:
  std::shared_ptr<SchedRegion> Region;
  std::shared_ptr<ControlDeps> CDeps;
  std::shared_ptr<DataDeps> DDeps;
};

} // namespace gis

#endif // GIS_ANALYSIS_PDG_H
