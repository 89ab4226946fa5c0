//===- tests/coldpath_test.cpp - Cold-path mechanism tests ----------------===//
//
// The cold path (DESIGN.md sections 14-15) must not change a single
// emitted schedule.  A golden table pins every schedule of a fixed corpus
// to a committed hash, and each mechanism that stands between a full
// recomputation and the result has its own direct test:
//
//  - the dependence builder, which visits only dependent pairs, is pinned
//    to a test-local copy of the all-pairs builder it replaced: same edges
//    in the same order, same transitive closure, and -- with the
//    "disambig-cache" fault armed -- the same sequence of disambiguator
//    questions;
//  - a 200-seed differential fuzz cross-checks every memory
//    disambiguation answer read from a phase's shared facts against a
//    stand-alone solve;
//  - another pins the block-scoped schedule verifier to the whole-function
//    sweep, verdict and diagnostics alike (including seeded-illegal
//    schedules);
//  - delta-checkpoint rollback -- the CFG transforms' included -- is
//    checked byte for byte against the pre-transaction state and against
//    a full-snapshot rollback, region-snapshot rollback against the
//    pre-pass function, a lost record or note must be fail-stop, and the
//    "disambig-cache" / "ckpt-delta" fault stages must be contained.
//
// Under -DGIS_SLOWPATH_CHECK=ON the pipeline additionally cross-checks
// every per-cycle ready list and fast-forward of the list scheduler
// against a full scan, the local pass's patched disambiguation facts
// against a fresh derivation after every reorder, every scoped verdict
// against the full verifier, every delta rollback against a full
// snapshot and every reused LoopInfo against a fresh compute,
// fatal-erroring on divergence;
// scripts/check.sh builds this configuration for the "perf-equiv" label,
// so the golden table then also runs with every cross-check on.
//
// Part of the `gis_coldpath_tests` executable (ctest label "perf-equiv").
//
//===----------------------------------------------------------------------===//

#include "analysis/DataDeps.h"
#include "analysis/Graph.h"
#include "analysis/LoopInfo.h"
#include "analysis/MemDisambig.h"
#include "analysis/PDG.h"
#include "analysis/Region.h"
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
#include "sched/Rotate.h"
#include "sched/ScheduleVerifier.h"
#include "sched/Unroll.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Hashing.h"
#include "trace/TailDuplication.h"
#include "trace/TraceFormation.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

using namespace gis;

namespace {

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

//===----------------------------------------------------------------------===
// Golden schedules: every emitted schedule pinned to a committed hash
//===----------------------------------------------------------------------===

/// One line of the golden table: the corpus item and its configuration,
/// hashKey128 of the printed module after scheduleModule, and the
/// compile's rollback count.
std::string goldenLine(const std::string &Item, const std::string &Source,
                       SchedLevel Level, unsigned OptLevel, bool Superblocks) {
  std::unique_ptr<Module> M = compileMiniCOrDie(Source);
  PipelineOptions Opts;
  Opts.Level = Level;
  Opts.Opt.Level = OptLevel;
  Opts.EnableSuperblocks = Superblocks;
  PipelineStats Stats = scheduleModule(*M, MachineDescription::rs6k(), Opts);
  Key128 K = hashKey128(moduleToString(*M));
  return formatString(
      "%s %s -O%u superblocks=%s %016llx%016llx %u", Item.c_str(),
      Level == SchedLevel::Useful ? "useful" : "speculative", OptLevel,
      Superblocks ? "on" : "off", static_cast<unsigned long long>(K.Hi),
      static_cast<unsigned long long>(K.Lo),
      Stats.RegionsRolledBack + Stats.TransformsRolledBack);
}

// generateRandomMiniC seeds 1-200 and the specLikeWorkloads() kernels, each
// under {useful, speculative} x {-O0, -O2} x superblocks {off, on}, must
// print exactly as tests/data/golden_schedules.txt records.  On a mismatch
// the test names the first differing line and writes the whole actual
// table to golden_schedules.txt beside the test binary; a change that
// means to alter schedules regenerates the golden file by copying that
// one over it.
TEST(ColdpathGolden, SchedulesMatchCommittedHashes) {
  std::vector<std::pair<std::string, std::string>> Corpus;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed)
    Corpus.emplace_back("seed" + std::to_string(Seed),
                        generateRandomMiniC(Seed));
  for (const Workload &W : specLikeWorkloads())
    Corpus.emplace_back(W.Name, W.Source);

  std::vector<std::string> Actual;
  for (const auto &[Item, Source] : Corpus)
    for (SchedLevel Level : {SchedLevel::Useful, SchedLevel::Speculative})
      for (unsigned OptLevel : {0u, 2u})
        for (bool Superblocks : {false, true})
          Actual.push_back(
              goldenLine(Item, Source, Level, OptLevel, Superblocks));

  std::vector<std::string> Expected;
  std::ifstream In(GIS_TEST_DATA_DIR "/golden_schedules.txt");
  for (std::string Line; std::getline(In, Line);)
    Expected.push_back(Line);
  if (Actual == Expected)
    return;

  const std::string OutPath = GIS_TEST_BINARY_DIR "/golden_schedules.txt";
  std::ofstream Out(OutPath);
  for (const std::string &Line : Actual)
    Out << Line << '\n';
  size_t K = 0;
  while (K < Actual.size() && K < Expected.size() && Actual[K] == Expected[K])
    ++K;
  FAIL() << "golden schedules differ at line " << K + 1 << ":\n  expected: "
         << (K < Expected.size() ? Expected[K] : "<end of file>")
         << "\n  actual:   "
         << (K < Actual.size() ? Actual[K] : "<end of table>")
         << "\nthe whole actual table is in " << OutPath;
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
                              const DisambigFacts *Facts) {
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
  const std::vector<BitSet> Reach = allPairsReachability(R.forwardGraph());
  MemDisambiguator Disambig(F, R, Facts);

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
// scheduling, which adds unrolled, rotated and renamed shapes), with
// stand-alone facts and with one DisambigFacts shared across the
// function's regions (a phase's usage): both builders agree on every
// region.
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
          const DisambigFacts Facts = DisambigFacts::build(F);
          std::vector<SchedRegion> Rs = pipelineRegions(F);
          for (size_t RI = 0; RI != Rs.size(); ++RI) {
            const SchedRegion &R = Rs[RI];
            std::string Tag = Where + " region " + std::to_string(RI);
            for (const DisambigFacts *C :
                 {static_cast<const DisambigFacts *>(nullptr), &Facts}) {
              std::string CTag = Tag + (C ? " phase facts" : " stand-alone");
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

// In a -DGIS_SLOWPATH_CHECK=ON build the pipeline fatal-errors on the
// first divergence between a cold-path mechanism and its reference, so
// merely completing this sweep is the assertion.  In a normal build the
// hooks are compiled out and the test records itself as skipped.
TEST(ColdpathSlowpathCheck, CrosscheckedSweepCompletes) {
#ifndef GIS_SLOWPATH_CHECK
  GTEST_SKIP() << "built without -DGIS_SLOWPATH_CHECK=ON";
#else
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(Seed));
    // Scheduling and optimizer levels rotate with the seed, covering
    // useful/speculative and -O0/-O2 without every combination per seed.
    PipelineOptions Opts;
    Opts.Level = (Seed % 2) ? SchedLevel::Speculative : SchedLevel::Useful;
    Opts.Opt.Level = (Seed % 3 == 0) ? 2 : 0;
    Opts.CollectDecisions = true;
    PipelineStats Stats = scheduleModule(*M, MachineDescription::rs6k(), Opts);
    ASSERT_TRUE(verifyModule(*M).empty()) << "seed " << Seed;
    EXPECT_EQ(Stats.VerifierFailures, 0u) << "seed " << Seed;
  }
#endif
}

//===----------------------------------------------------------------------===
// Phase disambiguation facts: every answer equals a stand-alone solve
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

/// Asserts that a disambiguator reading the phase facts \p Facts answers
/// every pair of the region's memory instructions like one that derives
/// its own facts from the current function state.
void expectDisambigAgrees(const Function &F, const SchedRegion &R,
                          const DisambigFacts &Facts, const std::string &Tag) {
  MemDisambiguator Phase(F, R, &Facts);
  MemDisambiguator Fresh(F, R, nullptr);
  std::vector<InstrId> Mem = regionMemInstrs(F, R, 24);
  for (size_t I = 0; I < Mem.size(); ++I)
    for (size_t J = I + 1; J < Mem.size(); ++J)
      ASSERT_EQ(Phase.provablyDisjoint(Mem[I], Mem[J]),
                Fresh.provablyDisjoint(Mem[I], Mem[J]))
          << Tag << " pair " << Mem[I] << "," << Mem[J];
}

// Differential property over the random corpus: facts derived once per
// function and shared across all its regions (a phase's usage) answer
// every provablyDisjoint question like a stand-alone solve -- at the
// start, after an intra-block reorder patched with updatePositions (the
// local pass), and after a cross-block move with the facts derived again
// (the next region wave).
TEST(ColdpathDisambig, PhaseFactsMatchStandAloneSolveOver200Seeds) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(Seed));
    for (const std::unique_ptr<Function> &FP : M->functions()) {
      Function &F = *FP;
      F.recomputeCFG();
      LoopInfo LI = LoopInfo::compute(F);
      if (!LI.isReducible())
        continue;
      std::string Tag = "seed " + std::to_string(Seed);

      DisambigFacts Facts = DisambigFacts::build(F);
      for (int Id : allRegionIds(LI))
        expectDisambigAgrees(F, SchedRegion::build(F, LI, Id), Facts, Tag);

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
        Facts.updatePositions(F, B);
        break;
      }
      for (int Id : allRegionIds(LI))
        expectDisambigAgrees(F, SchedRegion::build(F, LI, Id), Facts,
                             Tag + " after reorder");

      // Cross-block motion (upward, like the scheduler): BlockOf and PosOf
      // go stale, so the next phase derives its facts again.
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
      Facts = DisambigFacts::build(F);
      for (int Id : allRegionIds(LI))
        expectDisambigAgrees(F, SchedRegion::build(F, LI, Id), Facts,
                             Tag + " after move");
    }
  }
}

//===----------------------------------------------------------------------===
// Block-scoped verification: verdicts identical to the whole-function sweep
//===----------------------------------------------------------------------===

// Runs the real global scheduler region by region and verifies every pass
// twice -- full sweep from a deep Before copy, scoped sweep from the
// capture + region snapshot the pipeline keeps, which the scheduler notes
// its renames into exactly as in the pipeline -- and demands identical
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

      for (int Id : allRegionIds(LI)) {
        SchedRegion R = SchedRegion::build(F, LI, Id);
        if (R.numInstrs() > 256)
          continue;
        const Function Before = F;
        ScopedVerifyContext VCtx = ScopedVerifyContext::capture(F, R);
        RegionSnapshot Snap(F, regionRealBlocks(R));
        // Facts of the unscheduled function, as a region wave derives them.
        const DisambigFacts Facts = DisambigFacts::build(F);

        GlobalScheduler GS(MD, GOpts);
        Status S;
        PDG P;
        GS.scheduleRegion(F, R, &S, nullptr, &Facts, {}, &P, &Snap);
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

// Direct unit property: run every delta-checkpointed serial transform --
// pre-renaming, local scheduling, and the three CFG transforms (unroll,
// rotate, tail duplication), which append blocks and pool entries and
// renumber the function -- under one DeltaCheckpoint, roll back, and
// compare against a deep pre-transaction copy: field identity, CFG edges,
// printer text and content hash.  The pipeline's "tail-dup" fault drops a
// clone that only the differential oracle catches, and an oracle run takes
// the full-snapshot path, so this is tail duplication's delta-rollback
// coverage.
TEST(ColdpathCheckpoint, DeltaRestoreIsByteIdenticalToPreTransaction) {
  const MachineDescription MD = MachineDescription::rs6k();
  unsigned Unrolled = 0, Rotated = 0, TailDuplicated = 0;
  for (uint64_t Seed : {2u, 5u, 9u, 14u}) {
    std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(Seed));
    for (const std::unique_ptr<Function> &FP : M->functions()) {
      Function &F = *FP;
      F.recomputeCFG();
      const Function Ref = F;
      const std::string RefText = functionToString(F);
      const std::string Tag = "seed " + std::to_string(Seed) + " " + F.name();

      DeltaCheckpoint Ck(F);
      preRenameLocals(F, &Ck);
      scheduleLocal(F, MD, {}, &Ck);
      LoopInfo LI = LoopInfo::compute(F);
      for (unsigned L = 0; L != LI.numLoops(); ++L)
        if (canUnrollOnce(F, LI, L)) {
          ASSERT_TRUE(unrollLoopOnce(F, LI, L, nullptr, &Ck)) << Tag;
          ++Unrolled;
          break;
        }
      LI = LoopInfo::compute(F);
      for (unsigned L = 0; L != LI.numLoops(); ++L)
        if (canRotateLoop(F, LI, L)) {
          ASSERT_TRUE(rotateLoop(F, LI, L, nullptr, &Ck)) << Tag;
          ++Rotated;
          break;
        }
      LI = LoopInfo::compute(F);
      unsigned Budget = 1000;
      for (SuperblockTrace &T : formTraces(F, LI, TraceFormationOptions()))
        TailDuplicated += duplicateTails(F, T, Budget, &Ck).ClonedBlocks != 0;
      ASSERT_TRUE(Ck.restore(F)) << Tag;

      EXPECT_TRUE(functionsIdentical(F, Ref)) << Tag;
      EXPECT_TRUE(cfgEdgesIdentical(F, Ref)) << Tag;
      const std::string Text = functionToString(F);
      EXPECT_EQ(Text, RefText) << Tag;
      EXPECT_TRUE(hashKey128(Text) == hashKey128(RefText)) << Tag;
    }
  }
  // Each CFG transform must have grown some function, or its rollback was
  // never exercised.
  EXPECT_GE(Unrolled, 1u);
  EXPECT_GE(Rotated, 1u);
  EXPECT_GE(TailDuplicated, 1u);
}

//===----------------------------------------------------------------------===
// First-touch region snapshots: rollback restores the pre-pass bytes
//===----------------------------------------------------------------------===

/// The region-snapshot corpus: the paper's Figure 2 module, whose
/// speculative schedule renames a condition register (the paper's
/// Figure 6), then generateRandomMiniC seeds 1-40, which on their own
/// rename in none of their 615 regions.
std::vector<std::unique_ptr<Module>> regionSnapshotCorpus() {
  std::vector<std::unique_ptr<Module>> Corpus;
  Corpus.push_back(minmaxFigure2Module());
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    Corpus.push_back(compileMiniCOrDie(generateRandomMiniC(Seed)));
  return Corpus;
}

// Schedules every region of the corpus speculatively under a first-touch
// RegionSnapshot, restores it, and demands the pre-pass function back,
// field for field.  Renaming is the one rewrite of pool entries a region
// pass makes, so at least one region must have renamed, or the notes the
// scheduler takes were never exercised.
TEST(ColdpathRegionSnapshot, RestoreAfterSpeculativeScheduleIsIdentical) {
  const MachineDescription MD = MachineDescription::rs6k();
  GlobalSchedOptions GOpts;
  GOpts.Level = SchedLevel::Speculative;
  unsigned Regions = 0, Renamed = 0, ModuleNo = 0;
  for (const std::unique_ptr<Module> &M : regionSnapshotCorpus()) {
    ++ModuleNo;
    for (const std::unique_ptr<Function> &FP : M->functions()) {
      Function &F = *FP;
      F.recomputeCFG();
      F.renumberOriginalOrder();
      LoopInfo LI = LoopInfo::compute(F);
      if (!LI.isReducible())
        continue;
      for (int Id : allRegionIds(LI)) {
        const std::string Tag = "module " + std::to_string(ModuleNo) + " " +
                                F.name() + " region " + std::to_string(Id);
        SchedRegion R = SchedRegion::build(F, LI, Id);
        const Function Before = F;
        RegionSnapshot Snap(F, regionRealBlocks(R));
        Status S;
        GlobalSchedStats GS = GlobalScheduler(MD, GOpts).scheduleRegion(
            F, R, &S, nullptr, nullptr, {}, nullptr, &Snap);
        ++Regions;
        Renamed += GS.Renames != 0;
        EXPECT_TRUE(Snap.viewMatchesManifest(F)) << Tag;
        Snap.restore(F);
        ASSERT_TRUE(functionsIdentical(F, Before)) << Tag;
      }
    }
  }
  EXPECT_GE(Regions, 40u);
  EXPECT_GE(Renamed, 1u) << "no region renamed: the notes went untested";
}

class ColdpathFaultTest : public ::testing::Test {
protected:
  void TearDown() override { FaultInjector::instance().disarm(); }
};

// End to end through the pipeline: force a delta-checkpointed transaction
// to roll back in a default run, and the same transaction to roll back
// from a full snapshot in a reference run with the differential oracle on
// (an oracle-checked transaction needs the whole pre-body function, so
// runFunctionTransactionDelta delegates to the full-snapshot path;
// sched/Transaction.h).  The stages cover the local pass and the CFG
// transforms whose rollback must also drop appended blocks: the first
// unroll, the first rotation, and -- with superblocks on -- trace
// formation.  The seeds are oracle-clean (TransactionalOracleTest), so the
// oracle changes nothing else.  The full snapshot restores the
// pre-transaction bytes by construction, so byte-identical outputs prove
// the delta rollback does too -- under exactly the region waves the
// checkpoint shares the pipeline with.
TEST_F(ColdpathFaultTest, DeltaRollbackMatchesSnapshotRollbackAcrossJobs) {
  struct Case {
    const char *Fault;
    bool Superblocks;
  };
  for (const Case &C : {Case{"local:1", false}, Case{"unroll:1", false},
                        Case{"rotate:1", false}, Case{"trace-form:1", true}}) {
    for (uint64_t Seed : {1u, 4u, 9u, 16u}) {
      std::string Source = generateRandomMiniC(Seed);
      std::unique_ptr<Module> Delta = compileMiniCOrDie(Source);
      std::unique_ptr<Module> Snap = compileMiniCOrDie(Source);

      PipelineOptions DOpts;
      DOpts.Level = SchedLevel::Speculative;
      DOpts.EnableSuperblocks = C.Superblocks;
      PipelineOptions SOpts = DOpts;
      SOpts.EnableOracle = true;
      SOpts.OracleMaxSteps = 200'000;

      // Every stage here runs in a fixed order per function, so the first
      // occurrence is the same transaction in both runs.
      FaultInjector::instance().arm(C.Fault);
      PipelineStats DS =
          scheduleModule(*Delta, MachineDescription::rs6k(), DOpts);
      unsigned FiredDelta = FaultInjector::instance().firedCount();
      FaultInjector::instance().arm(C.Fault);
      PipelineStats SS =
          scheduleModule(*Snap, MachineDescription::rs6k(), SOpts);
      unsigned FiredSnap = FaultInjector::instance().firedCount();
      FaultInjector::instance().disarm();

      std::string Tag = std::string(C.Fault) + " seed " + std::to_string(Seed);
      EXPECT_EQ(FiredDelta, FiredSnap) << Tag;
      EXPECT_EQ(DS.FaultsInjected, SS.FaultsInjected) << Tag;
      if (DS.FaultsInjected) {
        EXPECT_GE(DS.TransformsRolledBack, 1u) << Tag;
        EXPECT_GE(SS.TransformsRolledBack, 1u) << Tag;
      }
      ASSERT_TRUE(verifyModule(*Delta).empty()) << Tag;
      std::string A = moduleToString(*Delta), B = moduleToString(*Snap);
      ASSERT_EQ(A, B) << Tag;
      ASSERT_TRUE(hashKey128(A) == hashKey128(B)) << Tag;
      EXPECT_GE(FiredDelta, 1u) << Tag << ": fault never fired";
    }
  }
}

//===----------------------------------------------------------------------===
// Fault injection at the disambiguation and delta-checkpoint stages
//===----------------------------------------------------------------------===

// "disambig-cache" (the stage keeps the name of the cache the
// disambiguation facts once lived in) flips one provablyDisjoint answer:
// a fabricated independence edge that can admit an illegal motion past
// the dependence builder.  The corrupted fact also poisons the PDG the
// verifier reuses, so containment falls to the in-pipeline differential
// oracle -- whatever escapes must be rolled back, and every run ends with
// well-formed IR and unchanged behaviour.
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

// The region snapshot's counterpart of the lost record below: schedule a
// region that renames under a first-touch RegionSnapshot, then drop a note
// the rollback needs.  The scoped verifier must reject the pass (its
// before-view no longer fingerprints to the manifest, so it cannot
// compare the post-pass state with itself), and the rollback must abort
// rather than continue from a half-restored region.
TEST_F(ColdpathFaultTest, RegionSnapshotLostNoteIsFailStop) {
  const MachineDescription MD = MachineDescription::rs6k();
  GlobalSchedOptions GOpts;
  GOpts.Level = SchedLevel::Speculative;
  for (const std::unique_ptr<Module> &M : regionSnapshotCorpus()) {
    for (const std::unique_ptr<Function> &FP : M->functions()) {
      Function &F = *FP;
      F.recomputeCFG();
      F.renumberOriginalOrder();
      LoopInfo LI = LoopInfo::compute(F);
      if (!LI.isReducible())
        continue;
      for (int Id : allRegionIds(LI)) {
        SchedRegion R = SchedRegion::build(F, LI, Id);
        const Function Before = F;
        ScopedVerifyContext VCtx = ScopedVerifyContext::capture(F, R);
        RegionSnapshot Snap(F, regionRealBlocks(R));
        Status S;
        PDG P;
        GlobalScheduler(MD, GOpts).scheduleRegion(F, R, &S, nullptr, nullptr,
                                                  {}, &P, &Snap);
        if (!S.isOk() || !Snap.dropOneNoteForTest(F)) {
          F = Before;
          continue;
        }
        std::vector<std::string> Problems =
            verifyRegionScheduleScoped(VCtx, Snap, F, R, MD, P);
        ASSERT_FALSE(Problems.empty());
        EXPECT_NE(Problems.front().find("manifest"), std::string::npos)
            << Problems.front();
        EXPECT_DEATH(Snap.restore(F),
                     "region snapshot integrity check failed");
        return;
      }
    }
  }
  FAIL() << "no region renamed, so no note could be lost";
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
