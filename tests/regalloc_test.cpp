//===- tests/regalloc_test.cpp - Register allocation tests -----------------===//
//
// The finite-register backend (src/regalloc/): live-interval construction,
// the linear-scan allocator with spilling, the schedule -> allocate ->
// reschedule pipeline flow, and the schedule-cache fingerprints that keep
// allocated code from leaking across register-file configurations.
//
// Labelled "regalloc" (tests/CMakeLists.txt); scripts/check.sh runs the
// label under both ASan and TSan.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"
#include "engine/CompileEngine.h"
#include "frontend/CodeGen.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "regalloc/LinearScan.h"
#include "regalloc/LiveIntervals.h"
#include "sched/Pipeline.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace gis;

namespace {

struct Observed {
  bool Trapped;
  std::string TrapReason;
  std::vector<int64_t> Printed;
  int64_t ReturnValue;
  std::vector<std::pair<int64_t, int64_t>> Memory;
};

/// Runs `main` of \p M and captures everything observable (spill slots are
/// interpreter-private, so allocated code must leave Memory untouched).
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

void expectSameBehaviour(const Module &Base, const Module &Alloc,
                         const std::string &Source) {
  Observed A = observe(Base);
  if (A.Trapped && A.TrapReason == "step budget exhausted")
    return; // pathological long-runner; the in-pipeline oracle covered it
  Observed B = observe(Alloc);
  ASSERT_FALSE(A.Trapped) << Source;
  ASSERT_FALSE(B.Trapped) << Source;
  EXPECT_EQ(A.Printed, B.Printed) << Source;
  EXPECT_EQ(A.ReturnValue, B.ReturnValue) << Source;
  EXPECT_EQ(A.Memory, B.Memory) << Source;
}

/// Every register of every function must be a physical index below the
/// machine's file size -- the allocator's whole contract.
void expectPhysical(const Module &M, const MachineDescription &MD) {
  for (const auto &F : M.functions()) {
    auto Check = [&](Reg R) {
      ASSERT_TRUE(R.isValid());
      EXPECT_LT(R.index(), MD.numRegs(R.regClass())) << F->name();
    };
    for (Reg P : F->params())
      Check(P);
    for (BlockId B : F->layout())
      for (InstrId Id : F->block(B).instrs()) {
        for (Reg D : F->instr(Id).defs())
          Check(D);
        for (Reg U : F->instr(Id).uses())
          Check(U);
      }
  }
}

/// The pipeline configurations of the transactional fuzz suite, here each
/// additionally run through allocation + post-allocation rescheduling.
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
  case 2:
    Opts.Level = SchedLevel::Speculative;
    break;
  case 3:
    Opts.Level = SchedLevel::Speculative;
    Opts.MaxSpecDepth = 3;
    Opts.OnlyTwoInnerLevels = false;
    break;
  default:
    ADD_FAILURE();
  }
  Opts.AllocateRegisters = true;
  return Opts;
}

std::string diagDump(const PipelineStats &Stats) {
  std::string Out;
  for (const Diagnostic &D : Stats.Diags)
    Out += D.str() + "\n";
  return Out;
}

/// Ten simultaneously-live scalars: allocates cleanly at RS/6000 sizes
/// and forces heavy spilling on shrunken GPR files (never a rollback --
/// no parameters, trivial CR pressure).
const char *ManyLiveSource = R"(
  int main() {
    int a = 1; int b = 2; int c = 3; int d = 4;
    int e = 5; int f = 6; int g = 7; int h = 8;
    int i = 0;
    int s = 0;
    while (i < 10) {
      s = s + a + b + c + d + e + f + g + h;
      i = i + 1;
    }
    print(s);
    return s - a - h;
  }
)";

} // namespace

//===----------------------------------------------------------------------===
// Oracle fuzz: schedule -> allocate -> reschedule at RS/6000 sizes
//===----------------------------------------------------------------------===

class RegAllocOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

// 50 seeds x 4 configs = 200 random programs through the full pipeline
// with allocation on, differentially executed after every transaction
// (including "regalloc" and "postalloc").  At RS/6000 register-file sizes
// allocation must always succeed, and the allocated module must be fully
// physical and behave identically.
TEST_P(RegAllocOracleTest, AllocatedCodeBehavesIdentically) {
  auto [Seed, Config] = GetParam();
  std::string Source = generateRandomMiniC(Seed);
  CompileResult Base = compileMiniC(Source);
  ASSERT_TRUE(Base.ok()) << Base.Error << "\n" << Source;
  CompileResult Alloc = compileMiniC(Source);
  ASSERT_TRUE(Alloc.ok());

  MachineDescription MD = MachineDescription::rs6k();
  PipelineOptions Opts = configOpts(Config);
  Opts.EnableOracle = true;
  Opts.OracleMaxSteps = 200'000;
  PipelineStats Stats = scheduleModule(*Alloc.M, MD, Opts);

  EXPECT_EQ(Stats.OracleMismatches, 0u) << diagDump(Stats) << Source;
  EXPECT_EQ(Stats.VerifierFailures, 0u) << diagDump(Stats) << Source;
  // GPRs and FPRs spill, so their allocation never fails at these sizes.
  // Condition registers cannot spill (LinearScan.h): when the pressure-
  // oblivious scheduler leaves more than 8 CRs live -- rare but real --
  // the allocation must roll back cleanly to symbolic registers, which the
  // behaviour check below still covers.
  bool CrOverflow = Stats.PressurePeak[2] > MD.numRegs(RegClass::CR);
  if (!CrOverflow) {
    EXPECT_EQ(Stats.EngineFailures, 0u) << diagDump(Stats) << Source;
    EXPECT_EQ(Stats.RegAllocFailures, 0u) << diagDump(Stats) << Source;
    EXPECT_EQ(Stats.RegionsRolledBack + Stats.TransformsRolledBack, 0u)
        << diagDump(Stats) << Source;
  }
  ASSERT_TRUE(verifyModule(*Alloc.M).empty()) << Source;
  if (Stats.RegAllocFailures == 0)
    expectPhysical(*Alloc.M, MD);
  expectSameBehaviour(*Base.M, *Alloc.M, Source);
}

INSTANTIATE_TEST_SUITE_P(
    RandomPrograms, RegAllocOracleTest,
    ::testing::Combine(::testing::Range<uint64_t>(1, 51),
                       ::testing::Values(0, 1, 2, 3)));

//===----------------------------------------------------------------------===
// Tiny register files: spilling under pressure stays behaviour-preserving
//===----------------------------------------------------------------------===

class RegAllocSmallFileTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, unsigned>> {};

// Shrunken GPR files force spill code through real programs.  A program
// the allocator cannot handle (e.g. more spilled parameters than scratch
// registers) must roll back cleanly; either way behaviour is unchanged.
TEST_P(RegAllocSmallFileTest, SpillingPreservesBehaviour) {
  auto [Seed, Gprs] = GetParam();
  std::string Source = generateRandomMiniC(Seed);
  CompileResult Base = compileMiniC(Source);
  ASSERT_TRUE(Base.ok()) << Base.Error << "\n" << Source;
  CompileResult Alloc = compileMiniC(Source);
  ASSERT_TRUE(Alloc.ok());

  MachineDescription MD = MachineDescription::rs6k();
  MD.setNumRegs(RegClass::GPR, Gprs);
  PipelineOptions Opts;
  Opts.AllocateRegisters = true;
  Opts.EnableOracle = true;
  Opts.OracleMaxSteps = 200'000;
  PipelineStats Stats = scheduleModule(*Alloc.M, MD, Opts);

  EXPECT_EQ(Stats.OracleMismatches, 0u) << diagDump(Stats) << Source;
  EXPECT_EQ(Stats.VerifierFailures, 0u) << diagDump(Stats) << Source;
  ASSERT_TRUE(verifyModule(*Alloc.M).empty()) << Source;
  if (Stats.RegAllocFailures == 0)
    expectPhysical(*Alloc.M, MD);
  expectSameBehaviour(*Base.M, *Alloc.M, Source);
}

INSTANTIATE_TEST_SUITE_P(
    ShrunkenFiles, RegAllocSmallFileTest,
    ::testing::Combine(::testing::Range<uint64_t>(1, 13),
                       ::testing::Values(8u, 6u, 4u)));

//===----------------------------------------------------------------------===
// Forced spill: 4 GPRs (2 allocatable + 2 scratch)
//===----------------------------------------------------------------------===

TEST(RegAllocTest, FourGprsForceSpills) {
  const char *Source = ManyLiveSource;
  CompileResult Base = compileMiniC(Source);
  ASSERT_TRUE(Base.ok()) << Base.Error;
  CompileResult Alloc = compileMiniC(Source);
  ASSERT_TRUE(Alloc.ok());

  MachineDescription MD = MachineDescription::rs6k();
  MD.setNumRegs(RegClass::GPR, 4);
  PipelineOptions Opts;
  Opts.AllocateRegisters = true;
  Opts.EnableOracle = true;
  PipelineStats Stats = scheduleModule(*Alloc.M, MD, Opts);

  EXPECT_EQ(Stats.RegAllocFailures, 0u) << diagDump(Stats);
  EXPECT_GT(Stats.RegAlloc.IntervalsSpilled, 0u);
  EXPECT_GT(Stats.RegAlloc.SpillStores, 0u);
  EXPECT_GT(Stats.RegAlloc.SpillReloads, 0u);
  EXPECT_GT(Stats.RegAlloc.SpillSlots, 0u);
  ASSERT_TRUE(verifyModule(*Alloc.M).empty());
  expectPhysical(*Alloc.M, MD);
  expectSameBehaviour(*Base.M, *Alloc.M, Source);
}

// Ample registers must produce zero spill code -- the E1 kernel relies on
// this (EXPERIMENTS.md E10: the staircase is unchanged with --regalloc).
TEST(RegAllocTest, AmpleRegistersSpillNothing) {
  std::string Source = generateRandomMiniC(7);
  CompileResult Alloc = compileMiniC(Source);
  ASSERT_TRUE(Alloc.ok());
  PipelineOptions Opts;
  Opts.AllocateRegisters = true;
  PipelineStats Stats =
      scheduleModule(*Alloc.M, MachineDescription::rs6k(), Opts);
  EXPECT_EQ(Stats.RegAllocFailures, 0u) << diagDump(Stats);
  EXPECT_GT(Stats.RegAlloc.IntervalsBuilt, 0u);
  EXPECT_EQ(Stats.RegAlloc.IntervalsSpilled, 0u);
  EXPECT_EQ(Stats.RegAlloc.SpillStores, 0u);
  EXPECT_EQ(Stats.RegAlloc.SpillReloads, 0u);
}

//===----------------------------------------------------------------------===
// Live intervals vs liveness: the over-approximation property
//===----------------------------------------------------------------------===

// An interval must cover every def and use of its register and the whole
// span of every block the register is live into or out of.  Consequently
// two simultaneously-live registers always have overlapping intervals --
// the soundness property the allocator's conflict test rests on.
TEST(LiveIntervalsTest, IntervalsCoverLiveness) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    std::string Source = generateRandomMiniC(Seed);
    CompileResult R = compileMiniC(Source);
    ASSERT_TRUE(R.ok()) << R.Error;
    PipelineOptions Opts; // schedule first: intervals of *scheduled* code
    scheduleModule(*R.M, MachineDescription::rs6k(), Opts);

    for (const auto &F : R.M->functions()) {
      F->recomputeCFG();
      LiveIntervals LIV = LiveIntervals::build(*F);
      for (Reg P : F->params()) {
        const LiveInterval *IV = LIV.intervalFor(P);
        ASSERT_NE(IV, nullptr);
        EXPECT_TRUE(IV->covers(0)) << F->name();
      }
      for (BlockId B : F->layout())
        for (InstrId Id : F->block(B).instrs()) {
          uint32_t Pos = LIV.positionOf(Id);
          const Instruction &I = F->instr(Id);
          for (Reg D : I.defs()) {
            const LiveInterval *IV = LIV.intervalFor(D);
            ASSERT_NE(IV, nullptr);
            EXPECT_TRUE(IV->covers(Pos)) << F->name();
          }
          for (Reg U : I.uses()) {
            const LiveInterval *IV = LIV.intervalFor(U);
            ASSERT_NE(IV, nullptr);
            EXPECT_TRUE(IV->covers(Pos)) << F->name();
          }
        }
      Liveness LV = Liveness::compute(*F);
      for (BlockId B : F->layout()) {
        auto [First, Last] = LIV.blockSpan(B);
        std::vector<Reg> In = LV.liveInRegs(B);
        for (Reg R2 : In) {
          const LiveInterval *IV = LIV.intervalFor(R2);
          ASSERT_NE(IV, nullptr);
          EXPECT_TRUE(IV->covers(First)) << F->name();
        }
        for (Reg R2 : LV.liveOutRegs(B)) {
          const LiveInterval *IV = LIV.intervalFor(R2);
          ASSERT_NE(IV, nullptr);
          EXPECT_TRUE(IV->covers(Last)) << F->name();
        }
        // Pairwise: simultaneously live => overlapping intervals.
        for (size_t X = 0; X != In.size(); ++X)
          for (size_t Y = X + 1; Y != In.size(); ++Y)
            EXPECT_TRUE(LIV.intervalFor(In[X])->overlaps(
                *LIV.intervalFor(In[Y])))
                << F->name();
      }
    }
  }
}

//===----------------------------------------------------------------------===
// Schedule-cache fingerprints: allocator settings partition the cache
//===----------------------------------------------------------------------===

TEST(RegAllocCacheTest, RegisterFilesChangeTheMachineFingerprint) {
  MachineDescription A = MachineDescription::rs6k();
  MachineDescription B = MachineDescription::rs6k();
  EXPECT_EQ(fingerprintMachine(A), fingerprintMachine(B));
  B.setNumRegs(RegClass::GPR, 8);
  EXPECT_NE(fingerprintMachine(A), fingerprintMachine(B));
  B = MachineDescription::rs6k();
  B.setNumRegs(RegClass::FPR, 16);
  EXPECT_NE(fingerprintMachine(A), fingerprintMachine(B));
  B = MachineDescription::rs6k();
  B.setNumRegs(RegClass::CR, 4);
  EXPECT_NE(fingerprintMachine(A), fingerprintMachine(B));
}

TEST(RegAllocCacheTest, AllocatorFlagsChangeTheOptionsFingerprint) {
  PipelineOptions A, B;
  EXPECT_EQ(fingerprintOptions(A), fingerprintOptions(B));
  B.AllocateRegisters = true;
  EXPECT_NE(fingerprintOptions(A), fingerprintOptions(B));
  A.AllocateRegisters = true;
  EXPECT_EQ(fingerprintOptions(A), fingerprintOptions(B));
  B.RescheduleAfterAlloc = false;
  EXPECT_NE(fingerprintOptions(A), fingerprintOptions(B));
}

// The regression the fingerprints exist for: a cache shared between two
// engines whose machines differ only in register-file size must never
// serve one configuration's schedule to the other -- a 32-GPR schedule
// replayed at 8 GPRs would silently undo the allocation.
TEST(RegAllocCacheTest, SharedCacheNeverCrossesRegisterLimits) {
  std::string Source = ManyLiveSource;
  PipelineOptions Opts;
  Opts.AllocateRegisters = true;

  ScheduleCache Shared;
  EngineOptions EOpts;
  EOpts.Jobs = 1;
  EOpts.SharedCache = &Shared;

  MachineDescription Wide = MachineDescription::rs6k();
  CompileResult M1 = compileMiniC(Source);
  ASSERT_TRUE(M1.ok());
  CompileEngine E1(Wide, Opts, EOpts);
  EngineReport R1 =
      E1.compileBatch({BatchItem{M1.M.get(), "wide"}});
  EXPECT_EQ(R1.CacheHits, 0u);

  MachineDescription Narrow = MachineDescription::rs6k();
  Narrow.setNumRegs(RegClass::GPR, 8);
  CompileResult M2 = compileMiniC(Source);
  ASSERT_TRUE(M2.ok());
  CompileEngine E2(Narrow, Opts, EOpts);
  EngineReport R2 =
      E2.compileBatch({BatchItem{M2.M.get(), "narrow"}});
  EXPECT_EQ(R2.CacheHits, 0u); // same IR + options, different machine
  expectPhysical(*M2.M, Narrow);

  // Same machine, allocation toggled: again no sharing.
  PipelineOptions NoAlloc;
  CompileResult M3 = compileMiniC(Source);
  ASSERT_TRUE(M3.ok());
  CompileEngine E3(Wide, NoAlloc, EOpts);
  EngineReport R3 =
      E3.compileBatch({BatchItem{M3.M.get(), "noalloc"}});
  EXPECT_EQ(R3.CacheHits, 0u);

  // And a true hit still works: identical machine + options replay.
  CompileResult M4 = compileMiniC(Source);
  ASSERT_TRUE(M4.ok());
  CompileEngine E4(Wide, Opts, EOpts);
  EngineReport R4 =
      E4.compileBatch({BatchItem{M4.M.get(), "replay"}});
  EXPECT_EQ(R4.CacheMisses, 0u);
  expectPhysical(*M4.M, Wide);
}
