//===- tests/property_test.cpp - Randomized property tests -----------------===//
//
// Scheduling must preserve semantics on arbitrary programs: the random
// mini-C generator produces terminating, trap-free programs; original and
// scheduled versions must print the same values, return the same result
// and leave identical memory.  Also brute-force checks of the dominator
// implementation on random graphs, parameterized across scheduling
// configurations and machine widths.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "frontend/CodeGen.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "machine/Timing.h"
#include "sched/Pipeline.h"
#include "support/RNG.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

using namespace gis;

namespace {

struct Observed {
  bool Trapped;
  std::vector<int64_t> Printed;
  int64_t ReturnValue;
  std::vector<std::pair<int64_t, int64_t>> Memory;
  uint64_t Cycles;
};

/// Runs `main` of \p M and captures everything observable plus simulated
/// cycles.
Observed observe(const Module &M) {
  Observed O;
  Interpreter I(M);
  I.enableTrace(true);
  Function *Main = const_cast<Module &>(M).findFunction("main");
  EXPECT_NE(Main, nullptr);
  ExecResult R = I.run(*Main);
  O.Trapped = R.Trapped;
  O.Printed = R.Printed;
  O.ReturnValue = R.ReturnValue;
  for (const auto &[Addr, Val] : I.memory())
    if (Val != 0)
      O.Memory.emplace_back(Addr, Val);
  std::sort(O.Memory.begin(), O.Memory.end());
  TimingSimulator Sim(MachineDescription::rs6k());
  O.Cycles = Sim.simulate(I.trace()).Cycles;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===
// Semantics preservation across random programs
//===----------------------------------------------------------------------===

class ScheduleSemanticsTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(ScheduleSemanticsTest, SchedulingPreservesBehaviour) {
  auto [Seed, Config] = GetParam();
  std::string Source = generateRandomMiniC(Seed);
  CompileResult Base = compileMiniC(Source);
  ASSERT_TRUE(Base.ok()) << Base.Error << "\n" << Source;
  CompileResult Sched = compileMiniC(Source);
  ASSERT_TRUE(Sched.ok());

  PipelineOptions Opts;
  switch (Config) {
  case 0:
    Opts.Level = SchedLevel::Useful;
    Opts.EnableUnroll = false;
    Opts.EnableRotate = false;
    break;
  case 1:
    Opts.Level = SchedLevel::Speculative;
    Opts.EnableUnroll = false;
    Opts.EnableRotate = false;
    break;
  case 2: // the paper's full pipeline
    Opts.Level = SchedLevel::Speculative;
    break;
  case 3: // future-work extension: deeper speculation, all region levels
    Opts.Level = SchedLevel::Speculative;
    Opts.MaxSpecDepth = 3;
    Opts.OnlyTwoInnerLevels = false;
    break;
  case 4: // code duplication by superblock tail duplication (Def. 6)
    Opts.Level = SchedLevel::Speculative;
    Opts.EnableSuperblocks = true;
    break;
  default:
    FAIL();
  }
  scheduleModule(*Sched.M, MachineDescription::rs6k(), Opts);
  ASSERT_TRUE(verifyModule(*Sched.M).empty());

  Observed A = observe(*Base.M);
  Observed B = observe(*Sched.M);
  ASSERT_FALSE(A.Trapped) << Source;
  ASSERT_FALSE(B.Trapped) << Source;
  EXPECT_EQ(A.Printed, B.Printed) << Source;
  EXPECT_EQ(A.ReturnValue, B.ReturnValue) << Source;
  EXPECT_EQ(A.Memory, B.Memory) << Source;
}

INSTANTIATE_TEST_SUITE_P(
    RandomPrograms, ScheduleSemanticsTest,
    ::testing::Combine(::testing::Range<uint64_t>(1, 21),
                       ::testing::Values(0, 1, 2, 3, 4)));

TEST(SchedulePropertyTest, AggregateCyclesDoNotRegress) {
  // Individual programs may occasionally get slower (the heuristics are
  // heuristics), but across many programs scheduling must pay off.
  uint64_t BaseTotal = 0, SchedTotal = 0;
  for (uint64_t Seed = 100; Seed != 120; ++Seed) {
    std::string Source = generateRandomMiniC(Seed);
    CompileResult Base = compileMiniC(Source);
    ASSERT_TRUE(Base.ok()) << Base.Error;
    CompileResult Sched = compileMiniC(Source);
    PipelineOptions Opts;
    scheduleModule(*Sched.M, MachineDescription::rs6k(), Opts);
    BaseTotal += observe(*Base.M).Cycles;
    SchedTotal += observe(*Sched.M).Cycles;
  }
  EXPECT_LE(SchedTotal, BaseTotal);
}

TEST(SchedulePropertyTest, WiderMachinesBenefitMore) {
  // Paper Section 7: "we may expect even bigger payoffs in machines with
  // a larger number of computational units".  Aggregate relative
  // improvement must not shrink when the machine widens.
  double Improvement[2] = {0, 0};
  MachineDescription Narrow = MachineDescription::rs6k();
  MachineDescription Wide = MachineDescription::superscalar(4, 1, 2);
  int Idx = 0;
  for (const MachineDescription &MD : {Narrow, Wide}) {
    uint64_t BaseTotal = 0, SchedTotal = 0;
    for (uint64_t Seed = 200; Seed != 212; ++Seed) {
      std::string Source = generateRandomMiniC(Seed);
      CompileResult Base = compileMiniC(Source);
      ASSERT_TRUE(Base.ok());
      CompileResult Sched = compileMiniC(Source);
      PipelineOptions Opts;
      scheduleModule(*Sched.M, MD, Opts);

      auto CyclesOf = [&](const Module &M) {
        Interpreter I(M);
        I.enableTrace(true);
        I.run(*const_cast<Module &>(M).findFunction("main"));
        TimingSimulator Sim(MD);
        return Sim.simulate(I.trace()).Cycles;
      };
      BaseTotal += CyclesOf(*Base.M);
      SchedTotal += CyclesOf(*Sched.M);
    }
    Improvement[Idx++] =
        1.0 - static_cast<double>(SchedTotal) / static_cast<double>(BaseTotal);
  }
  EXPECT_GE(Improvement[1], Improvement[0] - 0.01);
}

//===----------------------------------------------------------------------===
// Dominators vs. brute force on random graphs
//===----------------------------------------------------------------------===

namespace {

/// Brute-force dominance: A dominates B iff B is unreachable from the
/// entry when A is removed (and both are reachable normally).
bool bruteForceDominates(const DiGraph &G, unsigned A, unsigned B) {
  if (A == B)
    return true;
  // Reachability avoiding A.
  std::vector<uint8_t> Seen(G.numNodes(), 0);
  std::vector<unsigned> Work;
  if (G.entry() != A) {
    Seen[G.entry()] = 1;
    Work.push_back(G.entry());
  }
  while (!Work.empty()) {
    unsigned N = Work.back();
    Work.pop_back();
    for (unsigned S : G.succs(N))
      if (S != A && !Seen[S]) {
        Seen[S] = 1;
        Work.push_back(S);
      }
  }
  return !Seen[B];
}

DiGraph randomGraph(uint64_t Seed) {
  RNG R(Seed);
  unsigned N = 3 + static_cast<unsigned>(R.nextBelow(10));
  std::vector<GraphEdge> Edges;
  // A spine guarantees some reachability; extra random edges add shape
  // (and the odd repeated edge, which the graph drops).
  for (unsigned K = 1; K != N; ++K)
    Edges.push_back({static_cast<unsigned>(R.nextBelow(K)), K});
  unsigned Extra = static_cast<unsigned>(R.nextBelow(2 * N));
  for (unsigned K = 0; K != Extra; ++K) {
    unsigned From = static_cast<unsigned>(R.nextBelow(N));
    Edges.push_back({From, static_cast<unsigned>(R.nextBelow(N))});
  }
  return DiGraph(N, 0, Edges);
}

} // namespace

class DominatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DominatorPropertyTest, MatchesBruteForce) {
  DiGraph G = randomGraph(GetParam());
  DomTree D(G);
  BitSet Reachable = reachableFrom(G, G.entry());
  for (unsigned A = 0; A != G.numNodes(); ++A)
    for (unsigned B = 0; B != G.numNodes(); ++B) {
      if (!Reachable.test(A) || !Reachable.test(B))
        continue;
      EXPECT_EQ(D.dominates(A, B), bruteForceDominates(G, A, B))
          << "A=" << A << " B=" << B << " seed=" << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DominatorPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

//===----------------------------------------------------------------------===
// Random-program generator sanity
//===----------------------------------------------------------------------===

TEST(RandomProgramTest, Deterministic) {
  EXPECT_EQ(generateRandomMiniC(7), generateRandomMiniC(7));
  EXPECT_NE(generateRandomMiniC(7), generateRandomMiniC(8));
}

TEST(RandomProgramTest, AllSeedsCompileAndTerminate) {
  for (uint64_t Seed = 300; Seed != 330; ++Seed) {
    std::string Source = generateRandomMiniC(Seed);
    CompileResult R = compileMiniC(Source);
    ASSERT_TRUE(R.ok()) << R.Error << " line " << R.Line << "\n" << Source;
    Interpreter I(*R.M);
    ExecResult E = I.run(*R.M->findFunction("main"), 5'000'000);
    EXPECT_FALSE(E.Trapped) << E.TrapReason << "\n" << Source;
  }
}
