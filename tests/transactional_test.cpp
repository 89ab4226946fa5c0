//===- tests/transactional_test.cpp - Transactional pipeline tests ---------===//
//
// End-to-end tests of the failure model: random programs run through the
// full pipeline with the differential oracle checking every transaction;
// deterministic fault injection corrupts each stage in turn and the
// pipeline must never abort, never emit ill-formed IR, and roll the
// function back bit-identically to its checkpoint.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "analysis/Region.h"
#include "frontend/CodeGen.h"
#include "interp/DifferentialOracle.h"
#include "interp/Interpreter.h"
#include "ir/Checkpoint.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "sched/Pipeline.h"
#include "support/FaultInjection.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

using namespace gis;

namespace {

struct Observed {
  bool Trapped;
  std::string TrapReason;
  std::vector<int64_t> Printed;
  int64_t ReturnValue;
  std::vector<std::pair<int64_t, int64_t>> Memory;
};

/// Runs `main` of \p M and captures everything observable.  The generous
/// step budget accommodates the occasional long-running random program.
Observed observe(const Module &M) {
  Observed O;
  Interpreter I(M);
  Function *Main = const_cast<Module &>(M).findFunction("main");
  EXPECT_NE(Main, nullptr);
  ExecResult R = I.run(*Main, 50'000'000);
  O.TrapReason = R.TrapReason;
  O.Trapped = R.Trapped;
  O.Printed = R.Printed;
  O.ReturnValue = R.ReturnValue;
  for (const auto &[Addr, Val] : I.memory())
    if (Val != 0)
      O.Memory.emplace_back(Addr, Val);
  std::sort(O.Memory.begin(), O.Memory.end());
  return O;
}

/// The pipeline configurations the fuzz tests cover: local-only, useful,
/// the paper's full speculative pipeline, and the deep-speculation
/// extension.
PipelineOptions configOpts(int Config) {
  PipelineOptions Opts;
  switch (Config) {
  case 0:
    Opts.Level = SchedLevel::None;
    break;
  case 1:
    Opts.Level = SchedLevel::Useful;
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
  default:
    ADD_FAILURE();
  }
  return Opts;
}

std::string diagDump(const PipelineStats &Stats) {
  std::string Out;
  for (const Diagnostic &D : Stats.Diags)
    Out += D.str() + "\n";
  return Out;
}

void expectSameBehaviour(const Module &Base, const Module &Sched,
                         const std::string &Source) {
  Observed A = observe(Base);
  if (A.Trapped && A.TrapReason == "step budget exhausted")
    return; // pathological long-runner; the in-pipeline oracle covered it
  Observed B = observe(Sched);
  ASSERT_FALSE(A.Trapped) << Source;
  ASSERT_FALSE(B.Trapped) << Source;
  EXPECT_EQ(A.Printed, B.Printed) << Source;
  EXPECT_EQ(A.ReturnValue, B.ReturnValue) << Source;
  EXPECT_EQ(A.Memory, B.Memory) << Source;
}

} // namespace

//===----------------------------------------------------------------------===
// Oracle fuzz: every transaction of every config differentially executed
//===----------------------------------------------------------------------===

class TransactionalOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

// 50 seeds x 4 configs = 200 random programs.  With the oracle enabled the
// pipeline differentially executes the function after every transform; a
// single mismatch (or a verifier false positive, visible as a rollback
// without an injected fault) fails the test.
TEST_P(TransactionalOracleTest, NoMismatchesAndNoSpuriousRollbacks) {
  auto [Seed, Config] = GetParam();
  std::string Source = generateRandomMiniC(Seed);
  CompileResult Base = compileMiniC(Source);
  ASSERT_TRUE(Base.ok()) << Base.Error << "\n" << Source;
  CompileResult Sched = compileMiniC(Source);
  ASSERT_TRUE(Sched.ok());

  PipelineOptions Opts = configOpts(Config);
  Opts.EnableOracle = true;
  Opts.OracleMaxSteps = 200'000;
  PipelineStats Stats =
      scheduleModule(*Sched.M, MachineDescription::rs6k(), Opts);

  EXPECT_EQ(Stats.OracleMismatches, 0u) << diagDump(Stats) << Source;
  EXPECT_EQ(Stats.VerifierFailures, 0u) << diagDump(Stats) << Source;
  EXPECT_EQ(Stats.EngineFailures, 0u) << diagDump(Stats) << Source;
  EXPECT_EQ(Stats.RegionsRolledBack + Stats.TransformsRolledBack, 0u)
      << diagDump(Stats) << Source;
  ASSERT_TRUE(verifyModule(*Sched.M).empty()) << Source;
  expectSameBehaviour(*Base.M, *Sched.M, Source);
}

INSTANTIATE_TEST_SUITE_P(
    RandomPrograms, TransactionalOracleTest,
    ::testing::Combine(::testing::Range<uint64_t>(1, 51),
                       ::testing::Values(0, 1, 2, 3)));

//===----------------------------------------------------------------------===
// Fault injection: corrupt each stage in turn
//===----------------------------------------------------------------------===

class FaultMatrixTest : public ::testing::TestWithParam<const char *> {
protected:
  void TearDown() override { FaultInjector::instance().disarm(); }
};

// For each pipeline stage, scan seeds until the armed fault fires (the
// stage must occur in at least one of the programs).  Every run -- faulted
// or not -- must leave well-formed IR with unchanged behaviour, and a
// fired fault must be caught by a verifier and rolled back.  The
// register-allocation stages run only with allocation on, so they turn it
// on; their fault hits the first function's allocation or post-allocation
// reschedule, whose rollback must leave that function exactly as a run
// without that step prints it: symbolic registers after "regalloc",
// allocated but not rescheduled after "postalloc".
TEST_P(FaultMatrixTest, CorruptionIsCaughtAndRolledBack) {
  const std::string Stage = GetParam();
  const bool RegAlloc = Stage == "regalloc" || Stage == "postalloc";
  unsigned TotalFaults = 0;
  for (uint64_t Seed = 1; Seed <= 40 && TotalFaults == 0; ++Seed) {
    std::string Source = generateRandomMiniC(Seed);
    CompileResult Base = compileMiniC(Source);
    ASSERT_TRUE(Base.ok()) << Base.Error;
    CompileResult Sched = compileMiniC(Source);
    ASSERT_TRUE(Sched.ok());

    PipelineOptions Opts;
    Opts.Level = SchedLevel::Speculative;
    Opts.AllocateRegisters = RegAlloc;
    FaultInjector::instance().arm(Stage);
    PipelineStats Stats =
        scheduleModule(*Sched.M, MachineDescription::rs6k(), Opts);
    FaultInjector::instance().disarm();

    ASSERT_TRUE(verifyModule(*Sched.M).empty())
        << "stage " << Stage << " seed " << Seed;
    if (Stats.FaultsInjected > 0) {
      EXPECT_EQ(Stats.FaultsInjected, 1u);
      EXPECT_GE(Stats.VerifierFailures, 1u) << diagDump(Stats);
      EXPECT_GE(Stats.RegionsRolledBack + Stats.TransformsRolledBack, 1u)
          << diagDump(Stats);
      EXPECT_FALSE(Stats.Diags.empty());
      TotalFaults += Stats.FaultsInjected;
    }
    if (RegAlloc && Stats.FaultsInjected > 0) {
      EXPECT_EQ(Stats.RegAllocFailures, Stage == "regalloc" ? 1u : 0u)
          << diagDump(Stats);
      CompileResult Ref = compileMiniC(Source);
      ASSERT_TRUE(Ref.ok());
      PipelineOptions RefOpts = Opts;
      if (Stage == "regalloc")
        RefOpts.AllocateRegisters = false;
      else
        RefOpts.RescheduleAfterAlloc = false;
      scheduleModule(*Ref.M, MachineDescription::rs6k(), RefOpts);
      EXPECT_EQ(functionToString(*Sched.M->functions().front()),
                functionToString(*Ref.M->functions().front()))
          << "stage " << Stage << " seed " << Seed;
    }
    expectSameBehaviour(*Base.M, *Sched.M, Source);
  }
  // The stage must have been reachable somewhere in the seed range,
  // otherwise this test exercises nothing.
  EXPECT_GE(TotalFaults, 1u) << "stage " << Stage << " never ran";
}

INSTANTIATE_TEST_SUITE_P(Stages, FaultMatrixTest,
                         ::testing::Values("prerename", "unroll", "region",
                                           "rotate", "local", "regalloc",
                                           "postalloc"));

// A fault in a region-scheduling transaction specifically bumps the
// region rollback counter.
TEST(FaultInjectionTest, RegionFaultIncrementsRegionRollback) {
  std::string Source = generateRandomMiniC(2);
  CompileResult Base = compileMiniC(Source);
  ASSERT_TRUE(Base.ok());
  CompileResult Sched = compileMiniC(Source);
  ASSERT_TRUE(Sched.ok());

  PipelineOptions Opts;
  FaultInjector::instance().arm("region");
  PipelineStats Stats =
      scheduleModule(*Sched.M, MachineDescription::rs6k(), Opts);
  FaultInjector::instance().disarm();

  ASSERT_EQ(Stats.FaultsInjected, 1u);
  EXPECT_GE(Stats.RegionsRolledBack, 1u) << diagDump(Stats);
  EXPECT_EQ(Stats.TransformsRolledBack, 0u) << diagDump(Stats);
  ASSERT_TRUE(verifyModule(*Sched.M).empty());
  expectSameBehaviour(*Base.M, *Sched.M, Source);
}

//===----------------------------------------------------------------------===
// Rollback restores the checkpoint bit-identically
//===----------------------------------------------------------------------===

TEST(RollbackTest, RestoreIsBitIdentical) {
  std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(3));
  Function &F = *M->functions()[0];
  F.recomputeCFG();
  F.renumberOriginalOrder();

  FunctionSnapshot Snap(F);
  ASSERT_TRUE(corruptFunctionForTest(F));
  EXPECT_FALSE(functionsIdentical(F, Snap.function()));
  Snap.restore(F);
  EXPECT_TRUE(functionsIdentical(F, Snap.function()));
}

// With global scheduling and pre-renaming off, "local" is the only
// transaction; corrupting it must leave the first function exactly as the
// checkpoint had it -- i.e. identical to a never-scheduled compile.
TEST(RollbackTest, PipelineRollbackLeavesFunctionUntouched) {
  std::string Source = generateRandomMiniC(5);
  std::unique_ptr<Module> Ref = compileMiniCOrDie(Source);
  std::unique_ptr<Module> M = compileMiniCOrDie(Source);

  PipelineOptions Opts;
  Opts.Level = SchedLevel::None;
  Opts.EnablePreRenaming = false;
  FaultInjector::instance().arm("local");
  PipelineStats Stats = scheduleModule(*M, MachineDescription::rs6k(), Opts);
  FaultInjector::instance().disarm();

  ASSERT_EQ(Stats.FaultsInjected, 1u);
  EXPECT_EQ(Stats.TransformsRolledBack, 1u) << diagDump(Stats);

  // The fault fired in the first function's only transaction; rollback
  // must restore the pre-pipeline state (modulo the pipeline's initial
  // CFG/order normalization, applied to the reference too).
  Function &RefF = *Ref->functions()[0];
  RefF.recomputeCFG();
  RefF.renumberOriginalOrder();
  EXPECT_TRUE(functionsIdentical(*M->functions()[0], RefF));
}

//===----------------------------------------------------------------------===
// Unit tests: fault injector and differential oracle
//===----------------------------------------------------------------------===

TEST(FaultInjectorTest, NthOccurrenceOneShot) {
  FaultInjector &FI = FaultInjector::instance();
  FI.arm("region:2");
  EXPECT_TRUE(FI.armed());
  EXPECT_EQ(FI.trigger(), 2u);
  EXPECT_FALSE(FI.shouldFire("region")); // occurrence 1
  EXPECT_FALSE(FI.shouldFire("local"));  // different stage never fires
  EXPECT_TRUE(FI.shouldFire("region"));  // occurrence 2
  EXPECT_FALSE(FI.shouldFire("region")); // one-shot
  EXPECT_EQ(FI.firedCount(), 1u);
  FI.disarm();
  EXPECT_FALSE(FI.armed());
  EXPECT_FALSE(FI.shouldFire("region"));
}

TEST(DifferentialOracleTest, MatchesIdenticalFunctions) {
  const char *Text = R"(
func f {
BL0:
  LI r1 = 41
  CALL print(r1)
  RET
}
)";
  std::unique_ptr<Module> A = parseModuleOrDie(Text);
  std::unique_ptr<Module> B = parseModuleOrDie(Text);
  OracleReport Rep = runDifferentialOracle(*A, *A->functions()[0],
                                           *B->functions()[0]);
  EXPECT_EQ(Rep.Verdict, OracleVerdict::Match) << Rep.Detail;
}

//===----------------------------------------------------------------------===
// Region-local rollback (region waves)
//===----------------------------------------------------------------------===

namespace {

/// A function with two independent inner loops -- two sibling regions in
/// one wave of the region dependence forest.
const char *TwoLoopSource = R"(
  int main() {
    int a = 0; int b = 0; int i = 0; int j = 0;
    while (i < 9) { a = a + i * 2; i = i + 1; }
    while (j < 9) { b = b + j * 3; j = j + 1; }
    print(a); print(b);
    return a + b;
  }
)";

/// A function with four independent inner loops -- four sibling regions
/// in one wave.
const char *FourLoopSource = R"(
  int main() {
    int a = 0; int b = 0; int c = 0; int d = 0;
    int i = 0; int j = 0; int k = 0; int l = 0;
    while (i < 9) { a = a + i * 2; i = i + 1; }
    while (j < 9) { b = b + j * 3; j = j + 1; }
    while (k < 9) { c = c + k * 5; k = k + 1; }
    while (l < 9) { d = d + l * 7; l = l + 1; }
    print(a); print(b); print(c); print(d);
    return a + b + c + d;
  }
)";

/// The real-block set of loop \p LoopIdx of \p F.
std::vector<BlockId> loopBlocks(const Function &F, int LoopIdx) {
  LoopInfo LI = LoopInfo::compute(F);
  SchedRegion R = SchedRegion::build(F, LI, LoopIdx);
  std::vector<BlockId> Blocks;
  for (const RegionNode &N : R.nodes())
    if (N.isBlock())
      Blocks.push_back(N.Block);
  return Blocks;
}

} // namespace

// A RegionSnapshot restores exactly the blocks it captured: corruption
// inside the region is undone; a sibling region's state is not touched.
TEST(RollbackTest, RegionSnapshotRestoresOnlyItsRegion) {
  std::unique_ptr<Module> M = compileMiniCOrDie(TwoLoopSource);
  Function &F = *M->functions()[0];
  F.recomputeCFG();
  F.renumberOriginalOrder();
  std::vector<BlockId> Loop0 = loopBlocks(F, 0);
  std::vector<BlockId> Loop1 = loopBlocks(F, 1);
  ASSERT_FALSE(Loop0.empty());
  ASSERT_FALSE(Loop1.empty());

  FunctionSnapshot Orig(F);
  RegionSnapshot Snap(F, Loop0);

  // Corrupt the snapshotted region; restore must be bit-identical.
  ASSERT_TRUE(corruptRegionForTest(F, Loop0));
  EXPECT_FALSE(functionsIdentical(F, Orig.function()));
  Snap.restore(F);
  EXPECT_TRUE(functionsIdentical(F, Orig.function()));

  // Corrupt a *sibling* region; restoring the loop-0 snapshot must leave
  // the sibling's damage in place (region-local, not whole-function).
  ASSERT_TRUE(corruptRegionForTest(F, Loop1));
  Snap.restore(F);
  EXPECT_FALSE(functionsIdentical(F, Orig.function()));
}

// A fault injected into the first task of a wave rolls back only that
// region, in place: its blocks, pool entries and the register counters
// return to their pre-wave state, so the remaining tasks commit exactly
// what they would have committed as a wave of their own.  The parameter
// is the number of region jobs (tasks) in the wave; with one, the
// rollback leaves the function as it was.  The block-scoped verifier
// checks every task of the wave, so a clean run counts every region's
// blocks.
class RegionFaultTest : public ::testing::TestWithParam<unsigned> {
protected:
  void TearDown() override { FaultInjector::instance().disarm(); }
};

TEST_P(RegionFaultTest, FaultRollsBackOnlyFaultedRegion) {
  const unsigned RegionJobs = GetParam();
  std::unique_ptr<Module> M = compileMiniCOrDie(FourLoopSource);
  Function &Pre = *M->functions()[0];
  Pre.recomputeCFG();
  Pre.renumberOriginalOrder();
  const LoopInfo LI = LoopInfo::compute(Pre);
  ASSERT_EQ(LI.numLoops(), 4u);
  // Loops First..RegionJobs-1 as one wave, built on F.
  auto Wave = [&](const Function &F, unsigned First) {
    std::vector<SchedRegion> Regions;
    for (unsigned L = First; L < RegionJobs; ++L)
      Regions.push_back(SchedRegion::build(F, LI, static_cast<int>(L)));
    return Regions;
  };
  const MachineDescription MD = MachineDescription::rs6k();
  const PipelineOptions Opts;
  const std::vector<BlockId> Loop0 = loopBlocks(Pre, 0);
  size_t WaveBlocks = 0;
  for (unsigned L = 0; L < RegionJobs; ++L)
    WaveBlocks += loopBlocks(Pre, static_cast<int>(L)).size();

  // A clean run must move code, or the rollback below proves nothing.
  Function Clean = Pre;
  PipelineStats CS = scheduleRegionWave(Clean, MD, Opts, Wave(Clean, 0));
  EXPECT_EQ(CS.RegionsRolledBack, 0u) << diagDump(CS);
  EXPECT_EQ(CS.Global.RegionsScheduled, RegionJobs);
  EXPECT_EQ(CS.Counters.get(obs::ColdVerifyBlocksTotal), WaveBlocks);
  ASSERT_FALSE(functionsIdentical(Clean, Pre));

  // The reference: the wave without its first region, scheduled from the
  // pre-wave function.  It too must move code when it is not empty.
  Function Rest = Pre;
  if (RegionJobs > 1) {
    PipelineStats RS = scheduleRegionWave(Rest, MD, Opts, Wave(Rest, 1));
    ASSERT_EQ(RS.RegionsRolledBack, 0u) << diagDump(RS);
    ASSERT_FALSE(functionsIdentical(Rest, Pre));
  }

  Function Faulted = Pre;
  FaultInjector::instance().arm("region");
  PipelineStats FS = scheduleRegionWave(Faulted, MD, Opts, Wave(Faulted, 0));
  FaultInjector::instance().disarm();

  ASSERT_EQ(FS.FaultsInjected, 1u);
  EXPECT_EQ(FS.RegionsRolledBack, 1u) << diagDump(FS);
  EXPECT_GE(FS.VerifierFailures, 1u) << diagDump(FS);
  EXPECT_EQ(FS.TransactionsRun, RegionJobs);
  EXPECT_EQ(FS.RegionWaves, 1u);
  EXPECT_EQ(FS.Global.RegionsScheduled, RegionJobs - 1);
  for (BlockId B : Loop0)
    EXPECT_EQ(Faulted.block(B).instrs(), Pre.block(B).instrs())
        << "block " << Pre.block(B).label();
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    EXPECT_EQ(Faulted.numRegs(C), Rest.numRegs(C));
  EXPECT_TRUE(functionsIdentical(Faulted, Rest));
  EXPECT_TRUE(verifyFunction(Faulted).empty());
}

INSTANTIATE_TEST_SUITE_P(RegionJobs, RegionFaultTest,
                         ::testing::Values(1u, 4u));

TEST(DifferentialOracleTest, FlagsChangedObservableValue) {
  std::unique_ptr<Module> A = parseModuleOrDie(R"(
func f {
BL0:
  LI r1 = 41
  CALL print(r1)
  RET
}
)");
  std::unique_ptr<Module> B = parseModuleOrDie(R"(
func f {
BL0:
  LI r1 = 42
  CALL print(r1)
  RET
}
)");
  OracleReport Rep = runDifferentialOracle(*A, *A->functions()[0],
                                           *B->functions()[0]);
  EXPECT_EQ(Rep.Verdict, OracleVerdict::Mismatch);
  EXPECT_FALSE(Rep.Detail.empty());
}
