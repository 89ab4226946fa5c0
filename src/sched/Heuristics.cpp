//===- sched/Heuristics.cpp - D and CP scheduling heuristics ---------------===//

#include "sched/Heuristics.h"

#include <algorithm>

using namespace gis;

Heuristics gis::computeHeuristics(const Function &F, const DataDeps &DD,
                                  const MachineDescription &MD,
                                  const std::vector<unsigned> &CurRegionNode) {
  unsigned M = DD.numNodes();
  GIS_ASSERT(CurRegionNode.size() == M, "placement vector size mismatch");

  Heuristics H;
  H.D.assign(M, 0);
  H.CP.assign(M, 0);

  // DDG nodes are stored in topological order of the dependence graph
  // (edges go from lower to higher indices), so one reverse sweep computes
  // both functions.
  for (unsigned N = M; N-- > 0;) {
    const DataDeps::Node &Node = DD.ddgNode(N);
    unsigned ExecTime = 1;
    if (!Node.isBarrier())
      ExecTime = MD.execTime(F.instr(Node.Instr).opcode());

    unsigned BestD = 0;
    unsigned BestCP = 0;
    for (unsigned EIdx : DD.succEdges(N)) {
      const DepEdge &E = DD.edges()[EIdx];
      // Local computation: only successors currently in the same block.
      if (CurRegionNode[E.To] != CurRegionNode[N])
        continue;
      BestD = std::max(BestD, H.D[E.To] + E.Delay);
      BestCP = std::max(BestCP, H.CP[E.To] + E.Delay);
    }
    H.D[N] = BestD;
    H.CP[N] = BestCP + ExecTime;
  }
  return H;
}
