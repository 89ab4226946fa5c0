//===- tests/coldpath_test.cpp - Incremental fast-path equivalence ---------===//
//
// The contract of the incremental cold path (DESIGN.md section 14) is
// absolute: it must not change a single emitted schedule.  These tests
// enforce it from three directions:
//
//  - a 200-seed fuzz compares the incremental pipeline against
//    --no-incremental bit for bit (printer text and content hash), across
//    scheduling levels and optimizer levels, and checks that every
//    non-coldpath obs counter agrees;
//  - direct property tests pin the incremental region liveness delta
//    against a fresh solve after hand-made instruction motions;
//  - deterministic fault injection corrupts the two new delta stages
//    ("liveness-delta", "heur-delta") and asserts the
//    verifier/rollback/self-heal machinery keeps the final program
//    well-formed and behaviourally identical to the unscheduled one.
//
// The dependence builder, which visits only dependent pairs, is pinned to
// a test-local copy of the all-pairs builder it replaced: same edges in
// the same order, same transitive closure, and -- with the
// "disambig-cache" fault armed -- the same sequence of disambiguator
// questions.
//
// The round-two machinery (DESIGN.md section 15) gets the same treatment:
// a 200-seed differential fuzz cross-checks every cached memory
// disambiguation answer against a stand-alone solve, another pins the
// block-scoped schedule verifier to the whole-function sweep, verdict and
// diagnostics alike (including seeded-illegal schedules), delta-checkpoint
// rollback
// is checked byte-for-byte against the pre-transaction state, and the
// "disambig-cache" / "ckpt-delta" fault stages mirror the containment
// tests above.
//
// Under -DGIS_SLOWPATH_CHECK=ON the scheduler additionally cross-checks
// every liveness freshen, heuristics refresh and per-cycle ready set
// against full recomputation and fatal-errors on divergence; the fuzz
// here then doubles as the pick-by-pick equivalence harness
// (scripts/check.sh builds this configuration for the "perf-equiv"
// label).
//
// Part of the `gis_coldpath_tests` executable (ctest label "perf-equiv").
//
//===----------------------------------------------------------------------===//

#include "analysis/DataDeps.h"
#include "analysis/DisambigCache.h"
#include "analysis/Graph.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/MemDisambig.h"
#include "analysis/PDG.h"
#include "analysis/Region.h"
#include "engine/ScheduleCache.h"
#include "frontend/CodeGen.h"
#include "interp/Interpreter.h"
#include "ir/Checkpoint.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/PassManager.h"
#include "sched/GlobalScheduler.h"
#include "sched/LocalScheduler.h"
#include "sched/Pipeline.h"
#include "sched/PreRenaming.h"
#include "sched/ScheduleVerifier.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

using namespace gis;

namespace {

/// Zeroes the coldpath.* group of \p C: those counters intentionally
/// differ between the incremental and slow paths (that is what they
/// measure), everything else must agree exactly.
obs::CounterSet withoutColdpath(obs::CounterSet C) {
  for (obs::CounterId Id :
       {obs::ColdArenaBytes, obs::ColdDdgNodes, obs::ColdLivenessDelta,
        obs::ColdLivenessFull, obs::ColdHeurBlockRecomputes,
        obs::ColdFastForwards, obs::ColdDisambigCacheHits,
        obs::ColdDisambigCacheMisses, obs::ColdCkptBytes,
        obs::ColdVerifyBlocksScoped, obs::ColdVerifyBlocksTotal})
    C.V[static_cast<unsigned>(Id)] = 0;
  return C;
}

struct Observed {
  bool Trapped = false;
  std::vector<int64_t> Printed;
  int64_t ReturnValue = 0;
};

Observed observe(const Module &M) {
  Observed O;
  Interpreter I(M);
  Function *Main = const_cast<Module &>(M).findFunction("main");
  EXPECT_NE(Main, nullptr);
  ExecResult R = I.run(*Main, 50'000'000);
  O.Trapped = R.Trapped;
  O.Printed = R.Printed;
  O.ReturnValue = R.ReturnValue;
  return O;
}

/// The option matrix one fuzz seed runs under: scheduling level and
/// optimizer level rotate with the seed so the sweep covers -O0/-O2 and
/// useful/speculative without running every combination per seed.
PipelineOptions coldpathOpts(uint64_t Seed) {
  PipelineOptions Opts;
  Opts.Level = (Seed % 2) ? SchedLevel::Speculative : SchedLevel::Useful;
  Opts.Opt.Level = (Seed % 3 == 0) ? 2 : 0;
  Opts.CollectDecisions = true;
  return Opts;
}

//===----------------------------------------------------------------------===
// 200-seed fuzz: the incremental path is bit-identical to --no-incremental
//===----------------------------------------------------------------------===

TEST(ColdpathEquiv, IncrementalMatchesSlowPathOver200Seeds) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    std::string Source = generateRandomMiniC(Seed);
    std::unique_ptr<Module> Fast = compileMiniCOrDie(Source);
    std::unique_ptr<Module> Slow = compileMiniCOrDie(Source);

    PipelineOptions FastOpts = coldpathOpts(Seed);
    PipelineOptions SlowOpts = FastOpts;
    SlowOpts.Incremental = false;

    PipelineStats FS = scheduleModule(*Fast, MachineDescription::rs6k(),
                                      FastOpts);
    PipelineStats SS = scheduleModule(*Slow, MachineDescription::rs6k(),
                                      SlowOpts);

    // Bit-identical output: printer text agrees, and so does the content
    // hash the schedule cache keys on.
    std::string FastText = moduleToString(*Fast);
    std::string SlowText = moduleToString(*Slow);
    ASSERT_EQ(FastText, SlowText) << "seed " << Seed;
    Key128 FH = hashKey128(FastText), SH = hashKey128(SlowText);
    ASSERT_TRUE(FH == SH) << "seed " << Seed;
    ASSERT_TRUE(verifyModule(*Fast).empty()) << "seed " << Seed;

    // Same decisions, same counters -- except the coldpath group, which
    // measures the machinery itself.
    EXPECT_TRUE(withoutColdpath(FS.Counters) == withoutColdpath(SS.Counters))
        << "seed " << Seed;
    EXPECT_EQ(FS.Decisions.size(), SS.Decisions.size()) << "seed " << Seed;
    EXPECT_EQ(FS.Global.UsefulMotions, SS.Global.UsefulMotions)
        << "seed " << Seed;
    EXPECT_EQ(FS.Global.SpeculativeMotions, SS.Global.SpeculativeMotions)
        << "seed " << Seed;
    EXPECT_EQ(FS.Global.Renames, SS.Global.Renames) << "seed " << Seed;
    EXPECT_EQ(FS.VerifierFailures, 0u) << "seed " << Seed;
    EXPECT_EQ(SS.VerifierFailures, 0u) << "seed " << Seed;
  }
}

// The schedule cache shares entries across the toggle (the fingerprint
// deliberately leaves Incremental out), which is only sound because of the
// bit-identity the fuzz above establishes.
TEST(ColdpathEquiv, CacheFingerprintIgnoresIncremental) {
  PipelineOptions A, B;
  B.Incremental = false;
  EXPECT_EQ(fingerprintOptions(A), fingerprintOptions(B));
  B.RunLocalScheduler = false; // any real option still splits entries
  EXPECT_NE(fingerprintOptions(A), fingerprintOptions(B));
}

//===----------------------------------------------------------------------===
// Direct property: the region liveness delta equals a fresh solve
//===----------------------------------------------------------------------===

// Hand-move instructions between the blocks of one region (upward, like
// the scheduler does) and re-solve only the changed blocks; the region
// view must equal a fresh solve of the same region on every seed and
// after every single motion.  A rename that grows the register universe
// must fall back to a full solve, and an update with no change must be a
// no-op.
TEST(ColdpathLiveness, RecomputeBlocksMatchesFullCompute) {
  unsigned Deltas = 0, Renames = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(Seed));
    for (const std::unique_ptr<Function> &FP : M->functions()) {
      Function &F = *FP;
      F.recomputeCFG();
      LoopInfo LI = LoopInfo::compute(F);
      if (!LI.isReducible())
        continue;
      for (int LoopIdx = -1; LoopIdx < static_cast<int>(LI.numLoops());
           ++LoopIdx) {
        SchedRegion R = SchedRegion::build(F, LI, LoopIdx);
        std::vector<BlockId> Blocks;
        for (const RegionNode &N : R.nodes())
          if (N.isBlock())
            Blocks.push_back(N.Block);
        const Liveness WholeLV = Liveness::compute(F);
        RegionLiveness LV = RegionLiveness::build(F, R, WholeLV);
        auto Fresh = [&] { return RegionLiveness::build(F, R, WholeLV); };
        std::string Where = "seed " + std::to_string(Seed) + " func " +
                            std::string(F.name()) + " loop " +
                            std::to_string(LoopIdx);

        // Move the first movable (non-terminator) instruction of each
        // region block to the end of the region block before it, one
        // motion at a time.
        for (size_t K = 1; K < Blocks.size(); ++K) {
          BlockId From = Blocks[K], To = Blocks[K - 1];
          std::vector<InstrId> &Src = F.block(From).instrs();
          if (Src.size() < 2)
            continue; // keep the terminator in place
          InstrId Moved = Src.front();
          if (F.instr(Moved).isTerminator())
            continue;
          Src.erase(Src.begin());
          std::vector<InstrId> &Dst = F.block(To).instrs();
          // Insert before To's terminator when it has one.
          size_t Pos = Dst.size();
          if (!Dst.empty() && F.instr(Dst.back()).isTerminator())
            --Pos;
          Dst.insert(Dst.begin() + static_cast<long>(Pos), Moved);

          RegionLiveness::UpdateResult U = LV.recomputeBlocks(F, {From, To});
          EXPECT_FALSE(U.Full) << Where;
          Deltas += U.BlocksResolved != 0;
          ASSERT_TRUE(LV.sameSetsAs(Fresh()))
              << Where << " move block " << From << " -> " << To;
        }

        // A no-change update is a no-op.
        RegionLiveness::UpdateResult U = LV.recomputeBlocks(F, {Blocks[0]});
        EXPECT_FALSE(U.Full) << Where;
        EXPECT_EQ(U.BlocksResolved, 0u) << Where;
        ASSERT_TRUE(LV.sameSetsAs(Fresh())) << Where;

        // Renaming the first def of the region to a fresh register grows
        // the universe, shifting the dense indexing: a full solve.
        for (BlockId B : Blocks) {
          auto It = std::find_if(
              F.block(B).instrs().begin(), F.block(B).instrs().end(),
              [&](InstrId Id) { return !F.instr(Id).defs().empty(); });
          if (It == F.block(B).instrs().end())
            continue;
          Reg &D = F.instr(*It).defs().front();
          D = F.newReg(D.regClass());
          U = LV.recomputeBlocks(F, {B});
          EXPECT_TRUE(U.Full) << Where;
          ASSERT_TRUE(LV.sameSetsAs(Fresh())) << Where << " rename";
          ++Renames;
          break;
        }
      }
    }
  }
  // The corpus must exercise both paths.
  EXPECT_GE(Deltas, 1000u);
  EXPECT_GE(Renames, 100u);
}

//===----------------------------------------------------------------------===
// The dependent-pair DDG builder against the all-pairs reference
//===----------------------------------------------------------------------===

/// The all-pairs dependence builder DataDeps::compute replaced, kept as the
/// reference: every earlier node is classified against every later one,
/// sources in descending order, with the transitive reduction.  Built on
/// the public SchedRegion, MemDisambiguator and MachineDescription API.
struct ReferenceDDG {
  std::vector<DepEdge> Edges;
  std::vector<BitSet> Ancestors; ///< Ancestors[N]: nodes reaching N
};

ReferenceDDG allPairsDataDeps(const Function &F, const SchedRegion &R,
                              const MachineDescription &MD,
                              DisambigCache *Cache) {
  struct RefNode {
    InstrId Instr;
    unsigned RegionNode;
    std::vector<Reg> Defs, Uses;
    bool TouchesMemory, IsCallOrBarrier;
  };
  std::vector<RefNode> Nodes;
  for (unsigned RN : R.topoOrder()) {
    const RegionNode &Node = R.node(RN);
    if (!Node.isBlock()) {
      Nodes.push_back(
          {InvalidId, RN, Node.SummaryDefs, Node.SummaryUses, true, true});
      continue;
    }
    for (InstrId I : F.block(Node.Block).instrs()) {
      const Instruction &Ins = F.instr(I);
      Nodes.push_back({I, RN,
                       std::vector<Reg>(Ins.defs().begin(), Ins.defs().end()),
                       std::vector<Reg>(Ins.uses().begin(), Ins.uses().end()),
                       Ins.touchesMemory(), Ins.isCall()});
    }
  }

  unsigned M = static_cast<unsigned>(Nodes.size());
  ReferenceDDG Ref;
  Ref.Ancestors.assign(M, BitSet(M));
  std::shared_ptr<const std::vector<BitSet>> ReachShared;
  std::vector<BitSet> ReachLocal;
  if (Cache)
    ReachShared = Cache->reachability(R.forwardGraph());
  else
    ReachLocal = allPairsReachability(R.forwardGraph());
  const std::vector<BitSet> &Reach = Cache ? *ReachShared : ReachLocal;
  MemDisambiguator Disambig(F, R, Cache);

  auto Intersects = [](const std::vector<Reg> &A, const std::vector<Reg> &B) {
    for (Reg X : A)
      for (Reg Y : B)
        if (X == Y)
          return true;
    return false;
  };
  auto MemConflict = [&](const RefNode &A, const RefNode &B) {
    if (!A.TouchesMemory || !B.TouchesMemory)
      return false;
    if (A.IsCallOrBarrier || B.IsCallOrBarrier)
      return true;
    if (F.instr(A.Instr).isLoad() && F.instr(B.Instr).isLoad())
      return false;
    return !Disambig.provablyDisjoint(A.Instr, B.Instr);
  };
  for (unsigned B = 0; B != M; ++B) {
    const RefNode &NB = Nodes[B];
    for (unsigned A = B; A-- > 0;) {
      const RefNode &NA = Nodes[A];
      if (NA.RegionNode != NB.RegionNode &&
          !Reach[NA.RegionNode].test(NB.RegionNode))
        continue;
      if (Ref.Ancestors[B].test(A))
        continue;
      DepKind Kind;
      if (Intersects(NA.Defs, NB.Uses))
        Kind = DepKind::Flow;
      else if (Intersects(NA.Uses, NB.Defs))
        Kind = DepKind::Anti;
      else if (Intersects(NA.Defs, NB.Defs))
        Kind = DepKind::Output;
      else if (MemConflict(NA, NB))
        Kind = DepKind::Memory;
      else
        continue;
      unsigned Delay = 0;
      if (Kind == DepKind::Flow && NA.Instr != InvalidId &&
          NB.Instr != InvalidId)
        Delay = MD.flowDelay(F.instr(NA.Instr).opcode(),
                             F.instr(NB.Instr).opcode());
      Ref.Edges.push_back(DepEdge{A, B, Kind, Delay});
      Ref.Ancestors[B].set(A);
      Ref.Ancestors[B].unionWith(Ref.Ancestors[A]);
    }
  }
  return Ref;
}

/// Asserts that DataDeps::compute equals the reference on region \p R:
/// the edge list element by element, in order, and depends() for every
/// ordered pair of nodes.
void expectSameDDG(const DataDeps &DD, const ReferenceDDG &Ref,
                   const std::string &Tag) {
  ASSERT_EQ(DD.numNodes(), Ref.Ancestors.size()) << Tag;
  ASSERT_EQ(DD.edges().size(), Ref.Edges.size()) << Tag;
  for (size_t K = 0; K != Ref.Edges.size(); ++K) {
    const DepEdge &E = DD.edges()[K], &X = Ref.Edges[K];
    ASSERT_TRUE(E.From == X.From && E.To == X.To && E.Kind == X.Kind &&
                E.Delay == X.Delay)
        << Tag << " edge " << K << ": " << E.From << "->" << E.To << " "
        << depKindName(E.Kind) << "/" << E.Delay << " vs " << X.From << "->"
        << X.To << " " << depKindName(X.Kind) << "/" << X.Delay;
  }
  for (unsigned B = 0; B != DD.numNodes(); ++B)
    for (unsigned A = 0; A != DD.numNodes(); ++A)
      if (DD.depends(A, B) != Ref.Ancestors[B].test(A))
        FAIL() << Tag << " depends(" << A << ", " << B << ") differs";
}

/// Every region the pipeline builds over \p F's current state: each loop
/// and the top level (reducible functions), and each single block.
std::vector<SchedRegion> pipelineRegions(const Function &F) {
  std::vector<SchedRegion> Regions;
  LoopInfo LI = LoopInfo::compute(F);
  if (LI.isReducible())
    for (int Id = -1; Id < static_cast<int>(LI.numLoops()); ++Id)
      Regions.push_back(SchedRegion::build(F, LI, Id));
  for (BlockId B : F.layout())
    Regions.push_back(SchedRegion::buildSingleBlock(F, B));
  return Regions;
}

// Over the 200-seed corpus at -O0 and -O2 (every fourth seed also after
// scheduling, which adds unrolled, rotated and renamed shapes), with and
// without a shared DisambigCache: both builders agree on every region.
// Then each builder runs with the Nth provablyDisjoint answer flipped,
// N = 1..4; they can only still agree if they ask the disambiguator the
// same questions in the same order.
TEST(ColdpathDDG, DependentPairBuilderMatchesAllPairsReference) {
  const MachineDescription MD = MachineDescription::rs6k();
  unsigned Regions = 0, Edges = 0, FaultsFired = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    for (unsigned OptLevel : {0u, 2u}) {
      std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(Seed));
      // Every fourth seed is checked again after scheduling.
      for (int Scheduled = 0; Scheduled != (Seed % 4 == 0 ? 2 : 1);
           ++Scheduled) {
        if (Scheduled) {
          PipelineOptions Opts;
          Opts.Opt.Level = OptLevel;
          scheduleModule(*M, MD, Opts);
        }
        for (const std::unique_ptr<Function> &FP : M->functions()) {
          Function &F = *FP;
          F.recomputeCFG();
          if (!Scheduled && OptLevel != 0) {
            opt::OptOptions OptOpts;
            OptOpts.Level = OptLevel;
            opt::runOptPasses(F, MD, OptOpts, TransactionConfig(), nullptr);
          }
          std::string Where = "seed " + std::to_string(Seed) + " -O" +
                              std::to_string(OptLevel) +
                              (Scheduled ? " scheduled " : " ") + F.name();
          DisambigCache Cache;
          std::vector<SchedRegion> Rs = pipelineRegions(F);
          for (size_t RI = 0; RI != Rs.size(); ++RI) {
            const SchedRegion &R = Rs[RI];
            std::string Tag = Where + " region " + std::to_string(RI);
            for (DisambigCache *C : {static_cast<DisambigCache *>(nullptr),
                                     &Cache}) {
              std::string CTag = Tag + (C ? " cached" : " uncached");
              DataDeps DD = DataDeps::compute(F, R, MD, C);
              expectSameDDG(DD, allPairsDataDeps(F, R, MD, C), CTag);
              ++Regions;
              Edges += static_cast<unsigned>(DD.edges().size());
              // Past the reference's last question nothing fires; one
              // such arming still checks the builder asks no more.
              for (unsigned N = 1, RefFired = 1; N <= 4 && RefFired; ++N) {
                std::string Arm = "disambig-cache:" + std::to_string(N);
                FaultInjector::instance().arm(Arm);
                ReferenceDDG Ref = allPairsDataDeps(F, R, MD, C);
                RefFired = FaultInjector::instance().firedCount();
                FaultInjector::instance().arm(Arm);
                DataDeps Faulted = DataDeps::compute(F, R, MD, C);
                unsigned Fired = FaultInjector::instance().firedCount();
                FaultInjector::instance().disarm();
                ASSERT_EQ(Fired, RefFired) << CTag << " " << Arm;
                FaultsFired += Fired;
                expectSameDDG(Faulted, Ref, CTag + " " + Arm);
              }
            }
          }
        }
      }
    }
  }
  // The corpus must exercise the builders and the armed disambiguator.
  EXPECT_GE(Regions, 10000u);
  EXPECT_GE(Edges, 100000u);
  EXPECT_GE(FaultsFired, 1000u);
}

//===----------------------------------------------------------------------===
// GIS_SLOWPATH_CHECK: pick-by-pick cross-checking
//===----------------------------------------------------------------------===

// In a -DGIS_SLOWPATH_CHECK=ON build the scheduler fatal-errors on the
// first divergence between the incremental state and a full recompute, so
// merely completing this sweep is the assertion.  In a normal build the
// hooks are compiled out and the test records itself as skipped.
TEST(ColdpathSlowpathCheck, CrosscheckedSweepCompletes) {
#ifndef GIS_SLOWPATH_CHECK
  GTEST_SKIP() << "built without -DGIS_SLOWPATH_CHECK=ON";
#else
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(Seed));
    PipelineOptions Opts = coldpathOpts(Seed);
    PipelineStats Stats = scheduleModule(*M, MachineDescription::rs6k(), Opts);
    ASSERT_TRUE(verifyModule(*M).empty()) << "seed " << Seed;
    EXPECT_EQ(Stats.VerifierFailures, 0u) << "seed " << Seed;
  }
#endif
}

//===----------------------------------------------------------------------===
// Fault injection at the delta-update stages
//===----------------------------------------------------------------------===

class ColdpathFaultTest : public ::testing::Test {
protected:
  void TearDown() override { FaultInjector::instance().disarm(); }
};

// "liveness-delta" empties the target block's live-on-exit set right
// after a freshen: the Section 5.3 guard may wave through an illegal
// speculation.  Whatever escapes must be stopped by the semantic
// verifier/oracle and rolled back, and the force-full flag must self-heal
// the analysis -- so every run, faulted or not, ends with well-formed IR
// and unchanged behaviour.
TEST_F(ColdpathFaultTest, LivenessDeltaCorruptionNeverEscapes) {
  unsigned Fired = 0;
  for (uint64_t Seed = 1; Seed <= 40 && Fired == 0; ++Seed) {
    std::string Source = generateRandomMiniC(Seed);
    std::unique_ptr<Module> Base = compileMiniCOrDie(Source);
    std::unique_ptr<Module> Sched = compileMiniCOrDie(Source);

    PipelineOptions Opts;
    Opts.Level = SchedLevel::Speculative;
    Opts.EnableOracle = true; // differential execution inside the pipeline
    Opts.OracleMaxSteps = 200'000;
    FaultInjector::instance().arm("liveness-delta");
    scheduleModule(*Sched, MachineDescription::rs6k(), Opts);
    Fired += FaultInjector::instance().firedCount();
    FaultInjector::instance().disarm();

    ASSERT_TRUE(verifyModule(*Sched).empty()) << "seed " << Seed;
    Observed A = observe(*Base);
    if (A.Trapped)
      continue; // step-budget long-runner; oracle covered it in-pipeline
    Observed B = observe(*Sched);
    ASSERT_FALSE(B.Trapped) << "seed " << Seed;
    EXPECT_EQ(A.Printed, B.Printed) << "seed " << Seed;
    EXPECT_EQ(A.ReturnValue, B.ReturnValue) << "seed " << Seed;
  }
  // The stage must be reachable in the seed range (speculative picks with
  // live-on-exit checks happen on many of these programs).
  EXPECT_GE(Fired, 1u) << "liveness-delta fault never fired";
}

// "heur-delta" zeroes D/CP after a refresh: a priority-only corruption.
// The resulting schedule may differ from the clean one but stays legal,
// so no verifier may fire and behaviour is preserved -- the oracle-clean
// robustness property of the priority heuristics.
TEST_F(ColdpathFaultTest, HeurDeltaCorruptionKeepsScheduleLegal) {
  unsigned Fired = 0;
  for (uint64_t Seed = 1; Seed <= 20 && Fired == 0; ++Seed) {
    std::string Source = generateRandomMiniC(Seed);
    std::unique_ptr<Module> Base = compileMiniCOrDie(Source);
    std::unique_ptr<Module> Sched = compileMiniCOrDie(Source);

    PipelineOptions Opts;
    Opts.Level = SchedLevel::Speculative;
    Opts.EnableOracle = true;
    Opts.OracleMaxSteps = 200'000;
    FaultInjector::instance().arm("heur-delta");
    PipelineStats Stats =
        scheduleModule(*Sched, MachineDescription::rs6k(), Opts);
    Fired += FaultInjector::instance().firedCount();
    FaultInjector::instance().disarm();

    ASSERT_TRUE(verifyModule(*Sched).empty()) << "seed " << Seed;
    if (FaultInjector::instance().firedCount() > 0 || Fired > 0) {
      EXPECT_EQ(Stats.OracleMismatches, 0u) << "seed " << Seed;
      EXPECT_EQ(Stats.VerifierFailures, 0u) << "seed " << Seed;
    }
    Observed A = observe(*Base);
    if (A.Trapped)
      continue;
    Observed B = observe(*Sched);
    ASSERT_FALSE(B.Trapped) << "seed " << Seed;
    EXPECT_EQ(A.Printed, B.Printed) << "seed " << Seed;
    EXPECT_EQ(A.ReturnValue, B.ReturnValue) << "seed " << Seed;
  }
  EXPECT_GE(Fired, 1u) << "heur-delta fault never fired";
}

//===----------------------------------------------------------------------===
// Cached memory disambiguation: every cached answer equals a fresh solve
//===----------------------------------------------------------------------===

/// The region's real blocks in topological order (the block set a region
/// transaction may touch).
std::vector<BlockId> regionRealBlocks(const SchedRegion &R) {
  std::vector<BlockId> Blocks;
  for (unsigned N : R.topoOrder())
    if (R.node(N).isBlock())
      Blocks.push_back(R.node(N).Block);
  return Blocks;
}

/// The loop regions of \p LI plus the top-level region id.
std::vector<int> allRegionIds(const LoopInfo &LI) {
  std::vector<int> Ids;
  for (unsigned L = 0; L != LI.numLoops(); ++L)
    Ids.push_back(static_cast<int>(L));
  Ids.push_back(-1);
  return Ids;
}

/// Memory-touching instructions of the region, capped: the pairwise
/// comparison below is quadratic.
std::vector<InstrId> regionMemInstrs(const Function &F, const SchedRegion &R,
                                     size_t Cap) {
  std::vector<InstrId> Mem;
  for (BlockId B : regionRealBlocks(R))
    for (InstrId Id : F.block(B).instrs())
      if (F.instr(Id).touchesMemory() && Mem.size() < Cap)
        Mem.push_back(Id);
  return Mem;
}

/// Asserts that the cache-backed disambiguator and reachability closure
/// agree with stand-alone solves on the current function state.
void expectDisambigAgrees(const Function &F, const SchedRegion &R,
                          DisambigCache &Cache, const std::string &Tag) {
  MemDisambiguator Cached(F, R, &Cache);
  MemDisambiguator Fresh(F, R, nullptr);
  std::vector<InstrId> Mem = regionMemInstrs(F, R, 24);
  for (size_t I = 0; I < Mem.size(); ++I)
    for (size_t J = I + 1; J < Mem.size(); ++J)
      ASSERT_EQ(Cached.provablyDisjoint(Mem[I], Mem[J]),
                Fresh.provablyDisjoint(Mem[I], Mem[J]))
          << Tag << " pair " << Mem[I] << "," << Mem[J];

  std::shared_ptr<const std::vector<BitSet>> CR =
      Cache.reachability(R.forwardGraph());
  std::vector<BitSet> FR = allPairsReachability(R.forwardGraph());
  ASSERT_EQ(CR->size(), FR.size()) << Tag;
  for (size_t N = 0; N != FR.size(); ++N)
    ASSERT_TRUE((*CR)[N] == FR[N]) << Tag << " node " << N;
}

// Differential property over the random corpus: a DisambigCache shared
// across all regions of a function (the pipeline's usage) never changes a
// provablyDisjoint answer or a reachability bit, before or after code
// motion.  Both invalidation paths are exercised: an intra-block reorder
// repaired with notePosChanged, and a cross-block move repaired with a
// full epoch bump (noteFunctionChanged).
TEST(ColdpathDisambig, CachedAnswersMatchFreshSolveOver200Seeds) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(Seed));
    for (const std::unique_ptr<Function> &FP : M->functions()) {
      Function &F = *FP;
      F.recomputeCFG();
      LoopInfo LI = LoopInfo::compute(F);
      if (!LI.isReducible())
        continue;
      std::string Tag = "seed " + std::to_string(Seed);

      DisambigCache Cache;
      for (int Id : allRegionIds(LI))
        expectDisambigAgrees(F, SchedRegion::build(F, LI, Id), Cache, Tag);

      // Intra-block reorder: rotate the first block with two or more
      // non-terminator instructions, then patch positions in place.
      for (BlockId B : F.layout()) {
        std::vector<InstrId> &List = F.block(B).instrs();
        size_t Last = List.size();
        if (Last && F.instr(List.back()).isTerminator())
          --Last;
        if (Last < 2)
          continue;
        std::rotate(List.begin(), List.begin() + 1,
                    List.begin() + static_cast<long>(Last));
        Cache.notePosChanged(F, B);
        break;
      }
      for (int Id : allRegionIds(LI))
        expectDisambigAgrees(F, SchedRegion::build(F, LI, Id), Cache,
                             Tag + " after reorder");

      // Cross-block motion (upward, like the scheduler): BlockOf and the
      // single-def map go stale, so only the epoch bump recovers.
      const std::vector<BlockId> &Layout = F.layout();
      bool Moved = false;
      for (size_t K = 1; K < Layout.size() && !Moved; ++K) {
        std::vector<InstrId> &Src = F.block(Layout[K]).instrs();
        if (Src.size() < 2 || F.instr(Src.front()).isTerminator())
          continue;
        InstrId Inst = Src.front();
        Src.erase(Src.begin());
        std::vector<InstrId> &Dst = F.block(Layout[K - 1]).instrs();
        size_t Pos = Dst.size();
        if (!Dst.empty() && F.instr(Dst.back()).isTerminator())
          --Pos;
        Dst.insert(Dst.begin() + static_cast<long>(Pos), Inst);
        Moved = true;
      }
      if (!Moved)
        continue;
      Cache.noteFunctionChanged();
      for (int Id : allRegionIds(LI))
        expectDisambigAgrees(F, SchedRegion::build(F, LI, Id), Cache,
                             Tag + " after move");
    }
  }
}

//===----------------------------------------------------------------------===
// Block-scoped verification: verdicts identical to the whole-function sweep
//===----------------------------------------------------------------------===

// Runs the real global scheduler region by region and verifies every pass
// twice -- full sweep from a deep Before copy, scoped sweep from the
// capture + region snapshot the pipeline keeps -- and demands identical
// problem lists.  Every third seed additionally corrupts the scheduled
// region so the reject path (including diagnostic text) is compared, not
// just clean accepts.
TEST(ColdpathScopedVerify, VerdictsMatchFullVerifierOver200Seeds) {
  const MachineDescription MD = MachineDescription::rs6k();
  unsigned Corrupted = 0, Rejected = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(Seed));
    for (const std::unique_ptr<Function> &FP : M->functions()) {
      Function &F = *FP;
      F.recomputeCFG();
      F.renumberOriginalOrder();
      LoopInfo LI = LoopInfo::compute(F);
      if (!LI.isReducible())
        continue;

      GlobalSchedOptions GOpts;
      GOpts.Level = (Seed % 2) ? SchedLevel::Speculative : SchedLevel::Useful;
      DisambigCache Cache;
      GOpts.Cache = &Cache;

      for (int Id : allRegionIds(LI)) {
        SchedRegion R = SchedRegion::build(F, LI, Id);
        if (R.numInstrs() > 256)
          continue;
        const Function Before = F;
        ScopedVerifyContext VCtx = ScopedVerifyContext::capture(F, R);
        RegionSnapshot Snap(F, regionRealBlocks(R));
        Cache.noteFunctionChanged(); // same discipline as a region wave

        GlobalScheduler GS(MD, GOpts);
        Status S;
        PDG P;
        GS.scheduleRegion(F, R, &S, nullptr, {}, &P);
        if (!S.isOk()) {
          F = Before;
          continue;
        }
        if (Seed % 3 == 0 && corruptRegionForTest(F, Snap.blocks()))
          ++Corrupted;

        std::vector<std::string> Full = verifyRegionSchedule(Before, F, R, MD);
        ScopedVerifyStats VS;
        std::vector<std::string> Scoped =
            verifyRegionScheduleScoped(VCtx, Snap, F, R, MD, P, &VS);
        ASSERT_EQ(Full, Scoped)
            << "seed " << Seed << " region " << Id << " of " << F.name();
        EXPECT_LE(VS.BlocksVerified, VS.BlocksTotal);
        if (!Full.empty())
          ++Rejected;
        F = Before; // next region starts from the unscheduled function
      }
    }
  }
  // The reject path must actually have been compared.
  EXPECT_GE(Corrupted, 1u);
  EXPECT_GE(Rejected, 1u);
}

//===----------------------------------------------------------------------===
// Delta checkpoints: rollback restores the pre-transaction bytes
//===----------------------------------------------------------------------===

// Direct unit property: run the two delta-checkpointed serial transforms
// (pre-renaming, local scheduling) under one DeltaCheckpoint, roll back,
// and compare against a deep pre-transaction copy -- field identity,
// printer text and content hash.
TEST(ColdpathCheckpoint, DeltaRestoreIsByteIdenticalToPreTransaction) {
  for (uint64_t Seed : {2u, 5u, 9u, 14u}) {
    std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(Seed));
    for (const std::unique_ptr<Function> &FP : M->functions()) {
      Function &F = *FP;
      F.recomputeCFG();
      const Function Ref = F;
      const std::string RefText = functionToString(F);

      DeltaCheckpoint Ck(F);
      preRenameLocals(F, &Ck);
      scheduleLocal(F, MachineDescription::rs6k(), {}, /*Incremental=*/true,
                    /*Cache=*/nullptr, &Ck);
      ASSERT_TRUE(Ck.restore(F)) << "seed " << Seed << " " << F.name();

      EXPECT_TRUE(functionsIdentical(F, Ref))
          << "seed " << Seed << " " << F.name();
      const std::string Text = functionToString(F);
      EXPECT_EQ(Text, RefText) << "seed " << Seed << " " << F.name();
      EXPECT_TRUE(hashKey128(Text) == hashKey128(RefText))
          << "seed " << Seed << " " << F.name();
    }
  }
}

// End to end through the pipeline: force the delta-checkpointed "local"
// transaction to roll back in the incremental run and the full-snapshot
// "local" transaction in the --no-incremental run.  The full snapshot
// restores the pre-transaction bytes by construction, so byte-identical
// outputs prove the delta rollback does too -- under exactly the region
// waves the checkpoint shares the pipeline with.
TEST_F(ColdpathFaultTest, DeltaRollbackMatchesSnapshotRollbackAcrossJobs) {
  for (uint64_t Seed : {1u, 4u, 9u, 16u}) {
    std::string Source = generateRandomMiniC(Seed);
    std::unique_ptr<Module> Inc = compileMiniCOrDie(Source);
    std::unique_ptr<Module> Ref = compileMiniCOrDie(Source);

    PipelineOptions IOpts;
    IOpts.Level = SchedLevel::Speculative;
    PipelineOptions ROpts = IOpts;
    ROpts.Incremental = false;

    // The local pass runs once per function, after every region wave, so
    // the first "local" occurrence is the same transaction in both runs.
    FaultInjector::instance().arm("local:1");
    PipelineStats IS = scheduleModule(*Inc, MachineDescription::rs6k(), IOpts);
    unsigned FiredInc = FaultInjector::instance().firedCount();
    FaultInjector::instance().arm("local:1");
    PipelineStats RS = scheduleModule(*Ref, MachineDescription::rs6k(), ROpts);
    unsigned FiredRef = FaultInjector::instance().firedCount();
    FaultInjector::instance().disarm();

    std::string Tag = "seed " + std::to_string(Seed);
    EXPECT_EQ(FiredInc, FiredRef) << Tag;
    EXPECT_EQ(IS.FaultsInjected, RS.FaultsInjected) << Tag;
    if (IS.FaultsInjected) {
      EXPECT_GE(IS.TransformsRolledBack, 1u) << Tag;
      EXPECT_GE(RS.TransformsRolledBack, 1u) << Tag;
    }
    ASSERT_TRUE(verifyModule(*Inc).empty()) << Tag;
    std::string A = moduleToString(*Inc), B = moduleToString(*Ref);
    ASSERT_EQ(A, B) << Tag;
    ASSERT_TRUE(hashKey128(A) == hashKey128(B)) << Tag;
    EXPECT_GE(FiredInc, 1u) << Tag << ": local fault never fired";
  }
}

//===----------------------------------------------------------------------===
// Fault injection at the round-two stages
//===----------------------------------------------------------------------===

// "disambig-cache" flips one provablyDisjoint answer: a fabricated
// independence edge that can admit an illegal motion past the dependence
// builder.  The corrupted fact also poisons the PDG the verifier reuses,
// so containment falls to the in-pipeline differential oracle -- whatever
// escapes must be rolled back, and every run ends with well-formed IR and
// unchanged behaviour.
TEST_F(ColdpathFaultTest, DisambigCacheCorruptionNeverEscapes) {
  unsigned Fired = 0;
  for (uint64_t Seed = 1; Seed <= 40 && Fired == 0; ++Seed) {
    std::string Source = generateRandomMiniC(Seed);
    std::unique_ptr<Module> Base = compileMiniCOrDie(Source);
    std::unique_ptr<Module> Sched = compileMiniCOrDie(Source);

    PipelineOptions Opts;
    Opts.Level = SchedLevel::Speculative;
    Opts.EnableOracle = true; // differential execution inside the pipeline
    Opts.OracleMaxSteps = 200'000;
    FaultInjector::instance().arm("disambig-cache");
    scheduleModule(*Sched, MachineDescription::rs6k(), Opts);
    Fired += FaultInjector::instance().firedCount();
    FaultInjector::instance().disarm();

    ASSERT_TRUE(verifyModule(*Sched).empty()) << "seed " << Seed;
    Observed A = observe(*Base);
    if (A.Trapped)
      continue; // step-budget long-runner; oracle covered it in-pipeline
    Observed B = observe(*Sched);
    ASSERT_FALSE(B.Trapped) << "seed " << Seed;
    EXPECT_EQ(A.Printed, B.Printed) << "seed " << Seed;
    EXPECT_EQ(A.ReturnValue, B.ReturnValue) << "seed " << Seed;
  }
  EXPECT_GE(Fired, 1u) << "disambig-cache fault never fired";
}

// "ckpt-delta" drops a record rollback genuinely needs and then forces
// that rollback: the restore's manifest check must detect the incomplete
// rollback and abort rather than continue from a half-restored function.
// Fail-stop is the containment here, so this is a death test.
TEST_F(ColdpathFaultTest, CkptDeltaLostRecordIsFailStop) {
  EXPECT_DEATH(
      {
        for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
          std::unique_ptr<Module> M =
              compileMiniCOrDie(generateRandomMiniC(Seed));
          // Re-arm per module: a drop attempt can find only redundant
          // records and burn the arming without dying.
          FaultInjector::instance().arm("ckpt-delta");
          PipelineOptions Opts;
          Opts.Level = SchedLevel::Speculative;
          scheduleModule(*M, MachineDescription::rs6k(), Opts);
          FaultInjector::instance().disarm();
        }
      },
      "delta checkpoint integrity check failed");
}

} // namespace
