//===- analysis/PDG.cpp - Program Dependence Graph bundle ------------------===//

#include "analysis/PDG.h"

#include "ir/Printer.h"
#include "support/Format.h"

#include <algorithm>
#include <ostream>

using namespace gis;

const char *gis::motionKindName(MotionKind K) {
  switch (K) {
  case MotionKind::Identity:
    return "identity";
  case MotionKind::Useful:
    return "useful";
  case MotionKind::Speculative:
    return "speculative";
  case MotionKind::Duplication:
    return "duplication";
  case MotionKind::SpecAndDup:
    return "speculative+duplication";
  }
  gis_unreachable("invalid motion kind");
}

PDG PDG::build(const Function &F, const SchedRegion &R,
               const MachineDescription &MD, const DisambigFacts *Facts) {
  PDG P;
  P.Region = std::make_shared<SchedRegion>(R);
  P.CDeps = std::make_shared<ControlDeps>(ControlDeps::compute(*P.Region));
  P.DDeps = std::make_shared<DataDeps>(
      DataDeps::compute(F, *P.Region, MD, Facts));
  return P;
}

MotionClass PDG::classifyMotion(unsigned From, unsigned To) const {
  if (From == To)
    return MotionClass{MotionKind::Identity, 0};

  const DomTree &Dom = CDeps->dom();
  const PostDomTree &PDom = CDeps->postDom();
  bool Dominates = Dom.dominates(To, From);
  bool PostDominates = PDom.postDominates(From, To);

  MotionKind Kind;
  if (Dominates && PostDominates)
    Kind = MotionKind::Useful;
  else if (!PostDominates && Dominates)
    Kind = MotionKind::Speculative;
  else if (PostDominates)
    Kind = MotionKind::Duplication;
  else
    Kind = MotionKind::SpecAndDup;

  unsigned Degree = 0;
  if (!PostDominates) {
    auto D = CDeps->specDegree(To, From);
    Degree = D ? *D : ~0u;
  }
  return MotionClass{Kind, Degree};
}

std::vector<unsigned> PDG::equivSet(unsigned A) const {
  std::vector<unsigned> Out;
  const DomTree &Dom = CDeps->dom();
  const PostDomTree &PDom = CDeps->postDom();
  unsigned Class = CDeps->equivClass(A);
  for (unsigned B : CDeps->equivClasses()[Class]) {
    if (B == A)
      continue;
    // Identically-control-dependent is the practical test; confirm the
    // definitional property (Definition 3) for safety.
    if (Dom.strictlyDominates(A, B) && PDom.postDominates(B, A))
      Out.push_back(B);
  }
  return Out;
}

std::vector<unsigned> PDG::candidateBlocks(unsigned A,
                                           unsigned MaxSpecDepth) const {
  // Flat worklist expansion over a membership marker instead of std::set:
  // called once per target block on the cold path, where the per-node
  // red-black tree allocations used to show up.  The returned vector is
  // sorted ascending (and duplicate-free), exactly the order the std::set
  // produced -- the global scheduler's candidate construction iterates it
  // in order and the engine's drop propagation depends on that.
  std::vector<unsigned> Result = equivSet(A);

  if (MaxSpecDepth > 0) {
    // Frontier: A plus its equivalents; expand CSPDG successors
    // MaxSpecDepth times (the paper implements depth 1).  A CSPDG
    // successor that A does not dominate is excluded: moving code up from
    // it would require duplication (Definition 6), which the prototype
    // forbids ("no duplication of code is allowed", Section 5.1).
    const DomTree &Dom = CDeps->dom();
    std::vector<uint8_t> InResult(Region->numNodes(), 0);
    for (unsigned N : Result)
      InResult[N] = 1;
    std::vector<unsigned> Frontier = Result;
    Frontier.push_back(A);
    std::vector<unsigned> Next;
    for (unsigned Depth = 0; Depth != MaxSpecDepth; ++Depth) {
      Next.clear();
      for (unsigned N : Frontier)
        for (unsigned S : CDeps->cspdgSuccs(N))
          if (S != A && !InResult[S] && Dom.strictlyDominates(A, S)) {
            InResult[S] = 1;
            Next.push_back(S);
          }
      Result.insert(Result.end(), Next.begin(), Next.end());
      std::swap(Frontier, Next);
      if (Frontier.empty())
        break;
    }
  }

  std::sort(Result.begin(), Result.end());
  return Result;
}

void PDG::print(const Function &F, std::ostream &OS) const {
  auto NodeName = [&](unsigned N) -> std::string {
    const RegionNode &RN = Region->node(N);
    if (RN.isBlock())
      return F.block(RN.Block).label();
    return formatString("loop#%d", RN.LoopIndex);
  };

  OS << "CSPDG (control dependences):\n";
  for (unsigned N = 0; N != Region->numNodes(); ++N) {
    const std::vector<CDep> &Deps = CDeps->deps(N);
    if (Deps.empty())
      continue;
    OS << "  " << NodeName(N) << " <- ";
    for (size_t K = 0; K != Deps.size(); ++K) {
      if (K)
        OS << ", ";
      OS << NodeName(Deps[K].Controller) << "/edge" << Deps[K].EdgeLabel;
    }
    OS << "\n";
  }

  OS << "equivalence classes:\n";
  for (const std::vector<unsigned> &Class : CDeps->equivClasses()) {
    if (Class.size() < 2)
      continue;
    OS << "  {";
    for (size_t K = 0; K != Class.size(); ++K) {
      if (K)
        OS << ", ";
      OS << NodeName(Class[K]);
    }
    OS << "}\n";
  }

  OS << "data dependences:\n";
  for (const DepEdge &E : DDeps->edges()) {
    const DataDeps::Node &From = DDeps->ddgNode(E.From);
    const DataDeps::Node &To = DDeps->ddgNode(E.To);
    auto Desc = [&](const DataDeps::Node &N) -> std::string {
      if (N.isBarrier())
        return NodeName(N.RegionNode);
      return instructionToString(F, N.Instr);
    };
    OS << "  [" << depKindName(E.Kind) << " d=" << E.Delay << "] "
       << Desc(From) << "  ->  " << Desc(To) << "\n";
  }
}
