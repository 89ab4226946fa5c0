//===- analysis/ControlDeps.cpp - Forward control dependences -------------===//

#include "analysis/ControlDeps.h"

#include <algorithm>
#include <map>
#include <queue>

using namespace gis;

ControlDeps ControlDeps::compute(const SchedRegion &R) {
  ControlDeps CD;
  const DiGraph &G = R.forwardGraph();
  unsigned N = G.numNodes();
  CD.Deps.assign(N, {});
  CD.Succs.assign(N, {});

  CD.Dom = std::make_shared<DomTree>(G);
  CD.PDom = std::make_shared<PostDomTree>(G, R.exitNodes());
  const PostDomTree &PDT = *CD.PDom;

  // Ferrante-Ottenstein-Warren: for every edge (A -> B) where B does not
  // postdominate A, every node on the postdominator-tree path from B up to
  // (exclusive) ipdom(A) is control dependent on (A, label of the edge).
  for (unsigned A = 0; A != N; ++A) {
    NodeRange Succs = G.succs(A);
    for (unsigned Label = 0; Label != Succs.size(); ++Label) {
      unsigned B = Succs[Label];
      if (PDT.postDominates(B, A))
        continue;
      unsigned Stop = PDT.ipdom(A);
      for (unsigned X = B; X != Stop; X = PDT.ipdom(X)) {
        GIS_ASSERT(X != PDT.virtualExit(),
                   "walked past the virtual exit computing control deps");
        CD.Deps[X].push_back(CDep{A, Label});
      }
    }
  }

  for (unsigned X = 0; X != N; ++X) {
    std::sort(CD.Deps[X].begin(), CD.Deps[X].end());
    CD.Deps[X].erase(std::unique(CD.Deps[X].begin(), CD.Deps[X].end()),
                     CD.Deps[X].end());
    for (const CDep &D : CD.Deps[X])
      CD.Succs[D.Controller].push_back(X);
  }
  for (unsigned A = 0; A != N; ++A) {
    std::sort(CD.Succs[A].begin(), CD.Succs[A].end());
    CD.Succs[A].erase(std::unique(CD.Succs[A].begin(), CD.Succs[A].end()),
                      CD.Succs[A].end());
  }

  // Equivalence classes: identical control-dependence sets.
  std::map<std::vector<CDep>, unsigned> ClassIds;
  CD.ClassOf.assign(N, 0);
  for (unsigned X = 0; X != N; ++X) {
    auto [It, Inserted] =
        ClassIds.emplace(CD.Deps[X], static_cast<unsigned>(ClassIds.size()));
    CD.ClassOf[X] = It->second;
    if (Inserted)
      CD.Classes.emplace_back();
    CD.Classes[It->second].push_back(X);
  }
  // Order class members by dominance: dominators first.  Within one class
  // the members are totally ordered by dominance (they lie on one
  // dominator-tree path), so sorting by dominator-tree depth suffices.
  for (std::vector<unsigned> &Members : CD.Classes)
    std::sort(Members.begin(), Members.end(),
              [&](unsigned A, unsigned B) {
                if (CD.Dom->depth(A) != CD.Dom->depth(B))
                  return CD.Dom->depth(A) < CD.Dom->depth(B);
                return A < B;
              });
  return CD;
}

std::optional<unsigned> ControlDeps::specDegree(unsigned A,
                                                unsigned B) const {
  if (A == B)
    return 0;
  // BFS over CSPDG successor edges.
  std::vector<unsigned> Dist(Succs.size(), ~0u);
  std::queue<unsigned> Work;
  Dist[A] = 0;
  Work.push(A);
  while (!Work.empty()) {
    unsigned X = Work.front();
    Work.pop();
    for (unsigned S : Succs[X]) {
      if (Dist[S] != ~0u)
        continue;
      Dist[S] = Dist[X] + 1;
      if (S == B)
        return Dist[S];
      Work.push(S);
    }
  }
  return std::nullopt;
}
