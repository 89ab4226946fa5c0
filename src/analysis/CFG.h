//===- analysis/CFG.h - Function CFG adapter --------------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the DiGraph view of a Function's control flow graph.  Node
/// indices equal BlockIds.  Callers must have run Function::recomputeCFG.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_ANALYSIS_CFG_H
#define GIS_ANALYSIS_CFG_H

#include "analysis/Graph.h"
#include "ir/Function.h"

namespace gis {

/// The CFG of \p F as a DiGraph (node index == BlockId).
inline DiGraph buildCFG(const Function &F) {
  size_t NumEdges = 0;
  for (BlockId B = 0; B != F.numBlocks(); ++B)
    NumEdges += F.block(B).succs().size();
  std::vector<GraphEdge> Edges;
  Edges.reserve(NumEdges);
  for (BlockId B = 0; B != F.numBlocks(); ++B)
    for (BlockId S : F.block(B).succs())
      Edges.push_back({B, S});
  return DiGraph(F.numBlocks(), F.entry(), Edges);
}

} // namespace gis

#endif // GIS_ANALYSIS_CFG_H
