//===- tests/analysis_test.cpp - CFG analysis unit tests -------------------===//
//
// Graph utilities, dominators, postdominators, loop detection and liveness.
// The minmax loop from the paper (Figures 2-4) provides ground truth for
// the dominance/equivalence structure.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/Graph.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

using namespace gis;

namespace {

// The whole minmax function: preheader BL0, the paper's loop BL1-BL10,
// exit BL11.
const char *MinmaxFull = R"(
func minmax {
BL0:
  LI r31 = 1000
  L r28 = mem[r31 + 0]
  LR r30 = r28
  LI r29 = 1
BL1:
  L r12 = mem[r31 + 4]
  LU r0, r31 = mem[r31 + 8]
  C cr7 = r12, r0
  BF BL6, cr7, gt
BL2:
  C cr6 = r12, r30
  BF BL4, cr6, gt
BL3:
  LR r30 = r12
BL4:
  C cr7 = r0, r28
  BF BL10, cr7, lt
BL5:
  LR r28 = r0
  B BL10
BL6:
  C cr6 = r0, r30
  BF BL8, cr6, gt
BL7:
  LR r30 = r0
BL8:
  C cr7 = r12, r28
  BF BL10, cr7, lt
BL9:
  LR r28 = r12
BL10:
  AI r29 = r29, 2
  C cr4 = r29, r27
  BT BL1, cr4, lt
BL11:
  CALL print(r28)
  CALL print(r30)
  RET
}
)";

BlockId blockByLabel(const Function &F, const std::string &Label) {
  for (BlockId B = 0; B != F.numBlocks(); ++B)
    if (F.block(B).label() == Label)
      return B;
  ADD_FAILURE() << "no block " << Label;
  return InvalidId;
}

} // namespace

//===----------------------------------------------------------------------===
// DiGraph utilities
//===----------------------------------------------------------------------===

TEST(GraphTest, ReversePostOrderStartsAtEntry) {
  DiGraph G(4, 0, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  std::vector<unsigned> RPO = reversePostOrder(G);
  ASSERT_EQ(RPO.size(), 4u);
  EXPECT_EQ(RPO.front(), 0u);
  EXPECT_EQ(RPO.back(), 3u);
}

TEST(GraphTest, ReachableFrom) {
  DiGraph G(5, 0, {{0, 1}, {1, 2}, {3, 4}}); // 3 -> 4 is disconnected
  BitSet R = reachableFrom(G, 0);
  EXPECT_TRUE(R.test(0));
  EXPECT_TRUE(R.test(2));
  EXPECT_FALSE(R.test(3));
  EXPECT_FALSE(R.test(4));
}

TEST(GraphTest, AcyclicDetection) {
  DiGraph Acyclic(3, 0, {{0, 1}, {1, 2}});
  EXPECT_TRUE(isAcyclic(Acyclic));

  DiGraph Cyclic(3, 0, {{0, 1}, {1, 2}, {2, 1}});
  EXPECT_FALSE(isAcyclic(Cyclic));
}

TEST(GraphTest, TopologicalOrderRespectsEdges) {
  DiGraph G(5, 0, {{0, 2}, {0, 1}, {1, 3}, {2, 3}, {3, 4}});
  std::vector<unsigned> Order = topologicalOrder(G);
  ASSERT_EQ(Order.size(), 5u);
  std::vector<unsigned> Pos(5);
  for (unsigned I = 0; I != Order.size(); ++I)
    Pos[Order[I]] = I;
  for (unsigned N = 0; N != 5; ++N)
    for (unsigned S : G.succs(N))
      EXPECT_LT(Pos[N], Pos[S]);
}

// A graph is built once from its edge list: every row, successors and
// predecessors alike, keeps the list's order (not node order), and a
// repeated edge is dropped with its first occurrence kept.
TEST(GraphTest, DuplicateEdgeKeepsFirstOccurrenceInBothDirections) {
  DiGraph G(4, 0, {{0, 2}, {0, 1}, {2, 3}, {1, 3}, {2, 3}, {0, 2}, {3, 0}});
  auto Row = [](NodeRange R) {
    return std::vector<unsigned>(R.begin(), R.end());
  };
  EXPECT_EQ(Row(G.succs(0)), (std::vector<unsigned>{2, 1}));
  EXPECT_EQ(Row(G.succs(1)), (std::vector<unsigned>{3}));
  EXPECT_EQ(Row(G.succs(2)), (std::vector<unsigned>{3}));
  EXPECT_EQ(Row(G.succs(3)), (std::vector<unsigned>{0}));
  EXPECT_EQ(Row(G.preds(0)), (std::vector<unsigned>{3}));
  EXPECT_EQ(Row(G.preds(1)), (std::vector<unsigned>{0}));
  EXPECT_EQ(Row(G.preds(2)), (std::vector<unsigned>{0}));
  EXPECT_EQ(Row(G.preds(3)), (std::vector<unsigned>{2, 1}));
  EXPECT_TRUE(G.hasEdge(0, 2));
  EXPECT_FALSE(G.hasEdge(2, 0));
}

TEST(GraphTest, AllPairsReachabilityHandlesCycles) {
  DiGraph G(3, 0, {{0, 1}, {1, 2}, {2, 1}}); // cycle 1 <-> 2
  std::vector<BitSet> Reach = allPairsReachability(G);
  EXPECT_TRUE(Reach[0].test(2));
  EXPECT_TRUE(Reach[1].test(1)); // on a cycle through itself
  EXPECT_TRUE(Reach[2].test(1));
  EXPECT_FALSE(Reach[1].test(0));
}

//===----------------------------------------------------------------------===
// Dominators
//===----------------------------------------------------------------------===

TEST(DomTest, Diamond) {
  DiGraph G(4, 0, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  DomTree D(G);
  EXPECT_EQ(D.idom(1), 0u);
  EXPECT_EQ(D.idom(2), 0u);
  EXPECT_EQ(D.idom(3), 0u);
  EXPECT_TRUE(D.dominates(0, 3));
  EXPECT_FALSE(D.dominates(1, 3));
  EXPECT_TRUE(D.dominates(3, 3));
  EXPECT_TRUE(D.strictlyDominates(0, 1));
  EXPECT_FALSE(D.strictlyDominates(0, 0));
}

TEST(DomTest, LoopDoesNotDisturbDominance) {
  // 0 -> 1 -> 2 -> 1 (back edge), 2 -> 3
  DiGraph G(4, 0, {{0, 1}, {1, 2}, {2, 1}, {2, 3}});
  DomTree D(G);
  EXPECT_EQ(D.idom(1), 0u);
  EXPECT_EQ(D.idom(2), 1u);
  EXPECT_EQ(D.idom(3), 2u);
}

TEST(DomTest, UnreachableNodes) {
  DiGraph G(3, 0, {{0, 1}});
  DomTree D(G);
  EXPECT_TRUE(D.isReachable(1));
  EXPECT_FALSE(D.isReachable(2));
  EXPECT_FALSE(D.dominates(0, 2));
}

TEST(PostDomTest, Diamond) {
  DiGraph G(4, 0, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  PostDomTree PD(G);
  EXPECT_TRUE(PD.postDominates(3, 0));
  EXPECT_FALSE(PD.postDominates(1, 0));
  EXPECT_TRUE(PD.postDominates(3, 1));
  // areEquivalent: 0 and 3 are equivalent (0 dom 3, 3 pdom 0).
  DomTree D(G);
  EXPECT_TRUE(areEquivalent(D, PD, 0, 3));
  EXPECT_FALSE(areEquivalent(D, PD, 0, 1));
}

TEST(PostDomTest, ExtraExits) {
  // 0 -> 1 -> 2, and node 1 also leaves the region (extra exit): 2 no
  // longer postdominates 0.
  DiGraph G(3, 0, {{0, 1}, {1, 2}});
  PostDomTree NoExtra(G);
  EXPECT_TRUE(NoExtra.postDominates(2, 0));
  PostDomTree WithExtra(G, {1});
  EXPECT_FALSE(WithExtra.postDominates(2, 0));
  EXPECT_TRUE(WithExtra.postDominates(1, 0));
}

//===----------------------------------------------------------------------===
// Minmax dominance ground truth (paper Figure 3)
//===----------------------------------------------------------------------===

TEST(DomTest, MinmaxGroundTruth) {
  auto M = parseModuleOrDie(MinmaxFull);
  const Function &F = *M->functions()[0];
  DiGraph G = buildCFG(F);
  DomTree D(G);
  PostDomTree PD(G);

  BlockId BL1 = blockByLabel(F, "BL1"), BL2 = blockByLabel(F, "BL2"),
          BL4 = blockByLabel(F, "BL4"), BL5 = blockByLabel(F, "BL5"),
          BL6 = blockByLabel(F, "BL6"), BL8 = blockByLabel(F, "BL8"),
          BL10 = blockByLabel(F, "BL10");

  // BL1 dominates everything in the loop; BL10 postdominates the loop.
  for (BlockId B : {BL2, BL4, BL5, BL6, BL8, BL10})
    EXPECT_TRUE(D.dominates(BL1, B));
  for (BlockId B : {BL1, BL2, BL4, BL5, BL6, BL8})
    EXPECT_TRUE(PD.postDominates(BL10, B));

  // The paper's equivalent pairs (Definition 3): BL1~BL10, BL2~BL4,
  // BL6~BL8.
  EXPECT_TRUE(areEquivalent(D, PD, BL1, BL10));
  EXPECT_TRUE(areEquivalent(D, PD, BL2, BL4));
  EXPECT_TRUE(areEquivalent(D, PD, BL6, BL8));
  // Non-equivalent pairs.
  EXPECT_FALSE(areEquivalent(D, PD, BL1, BL2));
  EXPECT_FALSE(areEquivalent(D, PD, BL2, BL5));
  EXPECT_FALSE(areEquivalent(D, PD, BL2, BL6));
}

//===----------------------------------------------------------------------===
// Loops
//===----------------------------------------------------------------------===

TEST(LoopTest, MinmaxSingleLoop) {
  auto M = parseModuleOrDie(MinmaxFull);
  const Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  ASSERT_EQ(LI.numLoops(), 1u);
  const Loop &L = LI.loop(0);
  EXPECT_EQ(L.Header, blockByLabel(F, "BL1"));
  EXPECT_EQ(L.numBlocks(), 10u);
  EXPECT_EQ(L.Depth, 1u);
  EXPECT_EQ(L.Parent, -1);
  EXPECT_TRUE(LI.isReducible());
  EXPECT_EQ(LI.innermostLoopOf(blockByLabel(F, "BL5")), 0);
  EXPECT_EQ(LI.innermostLoopOf(blockByLabel(F, "BL0")), -1);
  EXPECT_EQ(LI.innermostLoopOf(blockByLabel(F, "BL11")), -1);
}

TEST(LoopTest, NestedLoops) {
  auto M = parseModuleOrDie(R"(
func nest {
B0:
  LI r1 = 0
OUTER:
  LI r2 = 0
INNER:
  AI r2 = r2, 1
  CI cr0 = r2, 10
  BT INNER, cr0, lt
AFTER:
  AI r1 = r1, 1
  CI cr1 = r1, 10
  BT OUTER, cr1, lt
EXIT:
  RET
}
)");
  const Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  ASSERT_EQ(LI.numLoops(), 2u);

  int InnerIdx = LI.innermostLoopOf(blockByLabel(F, "INNER"));
  ASSERT_GE(InnerIdx, 0);
  const Loop &Inner = LI.loop(InnerIdx);
  EXPECT_EQ(Inner.Depth, 2u);
  ASSERT_GE(Inner.Parent, 0);
  const Loop &Outer = LI.loop(Inner.Parent);
  EXPECT_EQ(Outer.Depth, 1u);
  EXPECT_EQ(Outer.Header, blockByLabel(F, "OUTER"));
  EXPECT_EQ(Inner.numBlocks(), 1u);
  EXPECT_EQ(Outer.numBlocks(), 3u);

  // Innermost-first ordering.
  std::vector<unsigned> Order = LI.innermostFirstOrder();
  EXPECT_EQ(static_cast<int>(Order[0]), InnerIdx);
}

TEST(LoopTest, IrreducibleDetected) {
  // Two-entry cycle: B1 <-> B2, entered at both B1 and B2.
  auto M = parseModuleOrDie(R"(
func irr {
B0:
  LI r1 = 0
  CI cr0 = r1, 5
  BT B2, cr0, lt
B1:
  CI cr1 = r1, 7
  BT B2, cr1, lt
B3:
  RET
B2:
  CI cr2 = r1, 9
  BT B1, cr2, lt
B4:
  RET
}
)");
  LoopInfo LI = LoopInfo::compute(*M->functions()[0]);
  EXPECT_FALSE(LI.isReducible());
}

//===----------------------------------------------------------------------===
// Liveness
//===----------------------------------------------------------------------===

TEST(LivenessTest, StraightLine) {
  auto M = parseModuleOrDie(R"(
func f {
B0:
  LI r1 = 1
  CI cr0 = r1, 0
  BT B2, cr0, gt
B1:
  LI r2 = 5
B2:
  AI r3 = r1, 1
  RET r3
}
)");
  const Function &F = *M->functions()[0];
  Liveness LV = Liveness::compute(F);
  BlockId B0 = 0, B1 = 1, B2 = 2;
  // r1 used in B2: live out of B0 and B1.
  EXPECT_TRUE(LV.isLiveOut(B0, Reg::gpr(1)));
  EXPECT_TRUE(LV.isLiveOut(B1, Reg::gpr(1)));
  // r2 defined in B1 but never used: dead.
  EXPECT_FALSE(LV.isLiveOut(B1, Reg::gpr(2)));
  // r3 defined and used within B2 only.
  EXPECT_FALSE(LV.isLiveOut(B2, Reg::gpr(3)));
  EXPECT_FALSE(LV.isLiveIn(B0, Reg::gpr(1)));
  EXPECT_TRUE(LV.isLiveIn(B2, Reg::gpr(1)));
}

TEST(LivenessTest, PaperSection53Example) {
  // The x=5 / x=3 example of Section 5.3: x (r1) is NOT live on exit from
  // B1 originally, so one assignment may move up; after simulating that
  // motion, x becomes live on exit from B1.
  auto M = parseModuleOrDie(R"(
func f {
B1:
  C cr0 = r8, r9
  BF B3, cr0, gt
B2:
  LI r1 = 5
  B B4
B3:
  LI r1 = 3
B4:
  CALL print(r1)
  RET
}
)");
  Function &F = *M->functions()[0];
  Liveness LV = Liveness::compute(F);
  BlockId B1 = blockByLabel(F, "B1");
  EXPECT_FALSE(LV.isLiveOut(B1, Reg::gpr(1)));
  EXPECT_TRUE(LV.isLiveOut(blockByLabel(F, "B2"), Reg::gpr(1)));

  // Simulate moving "LI r1 = 5" from B2 into B1 and recompute.
  BlockId B2 = blockByLabel(F, "B2");
  InstrId Moved = F.block(B2).instrs()[0];
  F.block(B2).instrs().erase(F.block(B2).instrs().begin());
  auto &B1Instrs = F.block(B1).instrs();
  B1Instrs.insert(B1Instrs.begin(), Moved);
  Liveness LV2 = Liveness::compute(F);
  EXPECT_TRUE(LV2.isLiveOut(B1, Reg::gpr(1)));
}

TEST(LivenessTest, LoopCarriedValue) {
  auto M = parseModuleOrDie(MinmaxFull);
  const Function &F = *M->functions()[0];
  Liveness LV = Liveness::compute(F);
  // min (r28) and max (r30) are live out of every loop block (used by the
  // prints after the loop and carried around the loop).
  for (const char *Label : {"BL1", "BL2", "BL5", "BL10"}) {
    BlockId B = blockByLabel(F, Label);
    EXPECT_TRUE(LV.isLiveOut(B, Reg::gpr(28))) << Label;
    EXPECT_TRUE(LV.isLiveOut(B, Reg::gpr(30))) << Label;
  }
  // cr7 is consumed within the loop; not live out of BL10.
  EXPECT_FALSE(LV.isLiveOut(blockByLabel(F, "BL10"), Reg::cr(7)));
  // cr4 is consumed by BL10's branch; not live out of BL11.
  EXPECT_FALSE(LV.isLiveOut(blockByLabel(F, "BL11"), Reg::cr(4)));
}
