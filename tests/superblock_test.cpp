//===- tests/superblock_test.cpp - Superblock formation & pricing ----------===//
//
// The src/trace/ subsystem and the branch-predictor-aware timing model:
// trace formation picks mutual-most-likely chains (static branch-not-taken
// without a profile) and never swallows loop headers or the entry; tail
// duplication makes a chain single-entry within its clone budget or
// truncates it; the pipeline's superblock phase survives 200-seed
// differential-oracle fuzzing at every -O x scheduling level combination,
// contains injected "trace-form" and "tail-dup" faults, and splits the
// schedule-cache fingerprint on every superblock knob.  The timing
// simulator's predictor keeps cycle counts bit-identical when off and
// prices mispredictions sensibly when on (profile-oracle never worse than
// always-taken; bimodal learns a biased branch).
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "engine/ScheduleCache.h"
#include "frontend/CodeGen.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/Timing.h"
#include "sched/Pipeline.h"
#include "support/FaultInjection.h"
#include "trace/TailDuplication.h"
#include "trace/TraceFormation.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace gis;

namespace {

BlockId blockByLabel(const Function &F, const std::string &Label) {
  for (BlockId B = 0; B != F.numBlocks(); ++B)
    if (F.block(B).label() == Label)
      return B;
  ADD_FAILURE() << "no block " << Label;
  return InvalidId;
}

/// Parses, recomputes the CFG and renumbers -- the state the trace
/// subsystem expects (and the pipeline guarantees).
std::unique_ptr<Module> parseReady(const char *Text) {
  auto M = parseModuleOrDie(Text);
  for (const auto &FPtr : M->functions()) {
    FPtr->recomputeCFG();
    FPtr->renumberOriginalOrder();
  }
  return M;
}

/// Everything observable about one run of `main`.
struct Observed {
  bool Trapped = false;
  std::vector<int64_t> Printed;
  int64_t ReturnValue = 0;
  std::vector<std::pair<int64_t, int64_t>> Memory;
};

Observed observe(const Module &M) {
  Observed O;
  Interpreter I(M);
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
  return O;
}

void expectSameBehaviour(const Module &A, const Module &B,
                         const std::string &Context) {
  Observed OA = observe(A);
  Observed OB = observe(B);
  ASSERT_FALSE(OA.Trapped) << Context;
  ASSERT_FALSE(OB.Trapped) << Context;
  EXPECT_EQ(OA.Printed, OB.Printed) << Context;
  EXPECT_EQ(OA.ReturnValue, OB.ReturnValue) << Context;
  EXPECT_EQ(OA.Memory, OB.Memory) << Context;
}

/// Generator sizing for tests that *interpret* the random programs: the
/// default sizing can exceed the interpreter's step budget (nested
/// near-max-trip loops), which has nothing to do with scheduling.
RandomProgramOptions smallPrograms() {
  RandomProgramOptions RP;
  RP.MaxStmtsPerFunction = 10;
  RP.NumHelpers = 1;
  RP.MaxLoopTrip = 6;
  return RP;
}

/// A diamond: E conditionally branches to X, else falls into A; both
/// arms meet at J.  The branch is never taken at run time (r1 == r1),
/// so the executed path is E -> A -> J.
const char *DiamondIR = R"(
func f {
E:
  LI r1 = 1
  C cr0 = r1, r1
  BT X, cr0, lt
A:
  AI r1 = r1, 1
  B J
X:
  AI r1 = r1, 2
J:
  RET r1
}
)";

} // namespace

//===----------------------------------------------------------------------===
// Trace formation
//===----------------------------------------------------------------------===

TEST(TraceFormationTest, StaticHeuristicFollowsFallThrough) {
  auto M = parseReady(DiamondIR);
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);

  TraceFormationOptions Opts; // no profile: static branch-not-taken
  std::vector<SuperblockTrace> Traces = formTraces(F, LI, Opts);

  // The entry chain follows the fall-through E -> A and stops at the
  // join (A is not J's sole predecessor and does not fall through).
  ASSERT_GE(Traces.size(), 1u);
  EXPECT_EQ(Traces[0].Blocks,
            (std::vector<BlockId>{blockByLabel(F, "E"), blockByLabel(F, "A")}));
  EXPECT_TRUE(Traces[0].singleEntry());
}

TEST(TraceFormationTest, MutualMostLikelySelectsHotEdge) {
  auto M = parseReady(DiamondIR);
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  const BlockId E = blockByLabel(F, "E"), A = blockByLabel(F, "A"),
                X = blockByLabel(F, "X"), J = blockByLabel(F, "J");

  // A profile claiming the taken arm is hot: E -> X -> J carries 90% of
  // the flow.  Mutual-most-likely must pick the taken edge over the
  // static fall-through.
  ProfileData Profile;
  Profile.record(F, [&] {
    std::vector<uint64_t> C(F.numBlocks(), 0);
    C[E] = 100;
    C[X] = 90;
    C[A] = 10;
    C[J] = 100;
    return C;
  }());
  Profile.recordEdges(F, {{Interpreter::edgeKey(E, X), 90},
                          {Interpreter::edgeKey(E, A), 10},
                          {Interpreter::edgeKey(X, J), 90},
                          {Interpreter::edgeKey(A, J), 10}});

  TraceFormationOptions Opts;
  Opts.Profile = &Profile;
  std::vector<SuperblockTrace> Traces = formTraces(F, LI, Opts);

  ASSERT_GE(Traces.size(), 1u);
  EXPECT_EQ(Traces[0].Blocks, (std::vector<BlockId>{E, X, J}));
  // J is also reachable from A: a side entrance at chain position 2.
  EXPECT_EQ(Traces[0].SideEntrances, (std::vector<unsigned>{2}));
  EXPECT_FALSE(Traces[0].singleEntry());
}

TEST(TraceFormationTest, LoopHeadersAndEntryNeverMidChain) {
  auto M = parseReady(R"(
func g {
E:
  LI r1 = 0
  LI r2 = 10
H:
  C cr0 = r1, r2
  BF EXIT, cr0, lt
BODY:
  AI r1 = r1, 1
  B H
EXIT:
  RET r1
}
)");
  Function &F = *M->functions()[0];
  LoopInfo LI = LoopInfo::compute(F);
  ASSERT_TRUE(LI.isReducible());
  const BlockId H = blockByLabel(F, "H"), BODY = blockByLabel(F, "BODY");

  TraceFormationOptions Opts;
  std::vector<SuperblockTrace> Traces = formTraces(F, LI, Opts);

  // E -> H is rejected (H is a header); the loop's own chain H -> BODY
  // is the only trace.  Headers may lead a chain but never sit mid-chain,
  // and the function entry appears in no chain at position >= 1.
  ASSERT_EQ(Traces.size(), 1u);
  EXPECT_EQ(Traces[0].Blocks, (std::vector<BlockId>{H, BODY}));
  for (const SuperblockTrace &T : Traces)
    for (unsigned K = 1; K != T.Blocks.size(); ++K) {
      EXPECT_NE(T.Blocks[K], F.entry());
      bool IsHeader = false;
      for (unsigned L = 0; L != LI.numLoops(); ++L)
        IsHeader |= LI.loop(L).Header == T.Blocks[K];
      EXPECT_FALSE(IsHeader) << "header mid-chain at " << K;
    }
}

TEST(TraceFormationTest, FindFirstSideEntrance) {
  auto M = parseReady(DiamondIR);
  Function &F = *M->functions()[0];
  const BlockId E = blockByLabel(F, "E"), A = blockByLabel(F, "A"),
                X = blockByLabel(F, "X"), J = blockByLabel(F, "J");
  EXPECT_EQ(findFirstSideEntrance(F, {E, A}), -1);
  EXPECT_EQ(findFirstSideEntrance(F, {E, X, J}), 2);
  EXPECT_EQ(findFirstSideEntrance(F, {X, J}), 1); // J entered from A too
}

//===----------------------------------------------------------------------===
// Tail duplication
//===----------------------------------------------------------------------===

TEST(TailDuplicationTest, MakesTraceSingleEntry) {
  auto M = parseReady(DiamondIR);
  auto Ref = parseReady(DiamondIR);
  Function &F = *M->functions()[0];
  const BlockId E = blockByLabel(F, "E"), X = blockByLabel(F, "X"),
                J = blockByLabel(F, "J");

  SuperblockTrace T;
  T.Blocks = {E, X, J};
  unsigned Budget = 64;
  TailDuplicationStats S = duplicateTails(F, T, Budget);

  EXPECT_EQ(S.ClonedBlocks, 1u);
  EXPECT_EQ(S.ClonedInstrs, 1u); // J holds a single RET
  EXPECT_EQ(Budget, 63u);
  EXPECT_EQ(T.Blocks, (std::vector<BlockId>{E, X, J}));
  EXPECT_TRUE(T.singleEntry());
  EXPECT_EQ(findFirstSideEntrance(F, T.Blocks), -1);
  EXPECT_TRUE(verifyModule(*M).empty());

  // The executed path ran through the duplicated tail's source region;
  // behaviour must be untouched.
  Interpreter IA(*Ref), IB(*M);
  ExecResult RA = IA.run(*Ref->functions()[0]);
  ExecResult RB = IB.run(F);
  ASSERT_FALSE(RA.Trapped);
  ASSERT_FALSE(RB.Trapped);
  EXPECT_EQ(RA.ReturnValue, RB.ReturnValue);
}

TEST(TailDuplicationTest, BudgetTruncatesInsteadOfCloning) {
  auto M = parseReady(DiamondIR);
  Function &F = *M->functions()[0];
  const BlockId E = blockByLabel(F, "E"), X = blockByLabel(F, "X"),
                J = blockByLabel(F, "J");
  std::string Before = moduleToString(*M);

  SuperblockTrace T;
  T.Blocks = {E, X, J};
  unsigned Budget = 0; // the one-instruction tail is already unaffordable
  TailDuplicationStats S = duplicateTails(F, T, Budget);

  EXPECT_EQ(S.TracesTruncated, 1u);
  EXPECT_EQ(S.ClonedInstrs, 0u);
  EXPECT_EQ(S.ClonedBlocks, 0u);
  EXPECT_EQ(T.Blocks, (std::vector<BlockId>{E, X})); // cut at the entrance
  EXPECT_TRUE(T.singleEntry());
  EXPECT_EQ(moduleToString(*M), Before); // the function is untouched
}

TEST(TailDuplicationTest, NoOpOnSingleEntryTrace) {
  auto M = parseReady(DiamondIR);
  Function &F = *M->functions()[0];
  std::string Before = moduleToString(*M);

  SuperblockTrace T;
  T.Blocks = {blockByLabel(F, "E"), blockByLabel(F, "A")};
  unsigned Budget = 8;
  TailDuplicationStats S = duplicateTails(F, T, Budget);

  EXPECT_EQ(S.ClonedBlocks, 0u);
  EXPECT_EQ(Budget, 8u);
  EXPECT_EQ(moduleToString(*M), Before);
}

// Property: over random programs, cloned instructions never exceed the
// per-function budget, the result verifies, and behaviour is preserved.
TEST(TailDuplicationTest, GrowthStaysUnderBudgetOnRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    std::string Source = generateRandomMiniC(Seed, smallPrograms());
    auto Base = compileMiniCOrDie(Source);
    auto M = compileMiniCOrDie(Source);

    for (const auto &FPtr : M->functions()) {
      Function &F = *FPtr;
      F.recomputeCFG();
      F.renumberOriginalOrder();
      LoopInfo LI = LoopInfo::compute(F);
      if (!LI.isReducible())
        continue;

      const unsigned Cap = 32;
      unsigned Budget = Cap;
      unsigned Cloned = 0;
      TraceFormationOptions Opts;
      for (SuperblockTrace T : formTraces(F, LI, Opts)) {
        TailDuplicationStats S = duplicateTails(F, T, Budget);
        Cloned += S.ClonedInstrs;
        EXPECT_EQ(findFirstSideEntrance(F, T.Blocks), -1)
            << "seed " << Seed << " fn " << F.name();
      }
      EXPECT_LE(Cloned, Cap) << "seed " << Seed << " fn " << F.name();
      EXPECT_EQ(Cloned, Cap - Budget);
    }
    ASSERT_TRUE(verifyModule(*M).empty()) << "seed " << Seed;
    expectSameBehaviour(*Base, *M, "seed " + std::to_string(Seed));
  }
}

//===----------------------------------------------------------------------===
// Pipeline integration
//===----------------------------------------------------------------------===

TEST(SuperblockPipelineTest, SchedulesSuperblocksOnBranchyLoop) {
  auto M = compileMiniCOrDie(R"(
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 50; i = i + 1) {
    if (i % 4 == 0) s = s + 2;
    s = s + 1;
  }
  print(s);
  return s;
}
)");
  PipelineOptions Opts;
  Opts.EnableSuperblocks = true;
  PipelineStats Stats = scheduleModule(*M, MachineDescription::rs6k(), Opts);

  EXPECT_GE(Stats.TracesFormed, 1u);
  EXPECT_GE(Stats.TraceBlocks, 2u);
  EXPECT_EQ(Stats.TransformsRolledBack + Stats.RegionsRolledBack, 0u);
  EXPECT_TRUE(verifyModule(*M).empty());
}

namespace {

/// 200 random programs through the full pipeline with superblocks on,
/// every function checked by the execution oracle.
void fuzzSuperblocks(unsigned OptLevel, SchedLevel Level) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    std::string Source = generateRandomMiniC(Seed, smallPrograms());
    auto M = compileMiniCOrDie(Source);

    PipelineOptions Opts;
    Opts.Opt.Level = OptLevel;
    Opts.Level = Level;
    Opts.EnableSuperblocks = true;
    Opts.EnableOracle = true;
    PipelineStats Stats = scheduleModule(*M, MachineDescription::rs6k(), Opts);

    ASSERT_EQ(Stats.OracleMismatches, 0u)
        << "-O" << OptLevel << " seed " << Seed << "\n" << Source;
    ASSERT_EQ(Stats.VerifierFailures, 0u)
        << "-O" << OptLevel << " seed " << Seed;
    ASSERT_EQ(Stats.RegionsRolledBack + Stats.TransformsRolledBack, 0u)
        << "-O" << OptLevel << " seed " << Seed;
    ASSERT_TRUE(verifyModule(*M).empty())
        << "-O" << OptLevel << " seed " << Seed;
  }
}

} // namespace

TEST(SuperblockFuzzTest, O0UsefulIsOracleClean) {
  fuzzSuperblocks(0, SchedLevel::Useful);
}
TEST(SuperblockFuzzTest, O0SpeculativeIsOracleClean) {
  fuzzSuperblocks(0, SchedLevel::Speculative);
}
TEST(SuperblockFuzzTest, O2UsefulIsOracleClean) {
  fuzzSuperblocks(2, SchedLevel::Useful);
}
TEST(SuperblockFuzzTest, O2SpeculativeIsOracleClean) {
  fuzzSuperblocks(2, SchedLevel::Speculative);
}

//===----------------------------------------------------------------------===
// Fault injection: trace formation and tail duplication
//===----------------------------------------------------------------------===

class SuperblockFaultTest : public ::testing::TestWithParam<const char *> {
protected:
  void TearDown() override { FaultInjector::instance().disarm(); }
};

// Arm the stage and compile random programs until the fault fires; the
// final module must always behave like the unscheduled original -- either
// the rollback restored it ("trace-form" corruption is structural, the
// verifier catches it) or the oracle proved the mutation harmless before
// commit ("tail-dup" drops a cloned instruction, the lost-duplicate bug
// class only the differential oracle can see).
TEST_P(SuperblockFaultTest, CorruptionIsContained) {
  const char *Stage = GetParam();
  unsigned TotalFaults = 0;
  for (uint64_t Seed = 1; Seed <= 30 && TotalFaults == 0; ++Seed) {
    std::string Source = generateRandomMiniC(Seed, smallPrograms());
    auto Base = compileMiniCOrDie(Source);
    auto Sched = compileMiniCOrDie(Source);

    PipelineOptions Opts;
    Opts.EnableSuperblocks = true;
    Opts.EnableOracle = true;
    FaultInjector::instance().arm(Stage);
    PipelineStats Stats =
        scheduleModule(*Sched, MachineDescription::rs6k(), Opts);
    FaultInjector::instance().disarm();

    ASSERT_TRUE(verifyModule(*Sched).empty())
        << "stage " << Stage << " seed " << Seed;
    if (Stats.FaultsInjected > 0) {
      EXPECT_EQ(Stats.FaultsInjected, 1u);
      TotalFaults += Stats.FaultsInjected;
      if (std::string(Stage) == "trace-form") {
        // Generic corruption is structurally ill-formed: the verifier
        // must have caught it and the transform must have rolled back.
        EXPECT_GE(Stats.VerifierFailures, 1u);
        EXPECT_GE(Stats.TransformsRolledBack, 1u);
        EXPECT_FALSE(Stats.Diags.empty());
      }
    }
    expectSameBehaviour(*Base, *Sched, std::string("stage ") + Stage +
                                           " seed " + std::to_string(Seed));
  }
  EXPECT_GE(TotalFaults, 1u) << "stage " << Stage << " never fired";
}

INSTANTIATE_TEST_SUITE_P(Stages, SuperblockFaultTest,
                         ::testing::Values("trace-form", "tail-dup"));

//===----------------------------------------------------------------------===
// Cache isolation: every superblock knob is in the fingerprint
//===----------------------------------------------------------------------===

TEST(SuperblockCacheTest, KnobsSplitTheOptionsFingerprint) {
  PipelineOptions Base;
  PipelineOptions Sb = Base;
  Sb.EnableSuperblocks = true;
  PipelineOptions Shorter = Sb;
  Shorter.TraceMaxBlocks = 4;
  PipelineOptions Tighter = Sb;
  Tighter.TraceDupBudget = 16;

  const uint64_t FBase = fingerprintOptions(Base);
  const uint64_t FSb = fingerprintOptions(Sb);
  const uint64_t FShorter = fingerprintOptions(Shorter);
  const uint64_t FTighter = fingerprintOptions(Tighter);

  EXPECT_EQ(FBase, fingerprintOptions(Base)); // deterministic
  EXPECT_NE(FBase, FSb);
  EXPECT_NE(FSb, FShorter);
  EXPECT_NE(FSb, FTighter);
  EXPECT_NE(FShorter, FTighter);
}

//===----------------------------------------------------------------------===
// Branch-predictor-aware timing
//===----------------------------------------------------------------------===

namespace {

/// Interprets `main` with tracing on and returns the dynamic trace.
std::vector<TraceEntry> traceOf(const Module &M, Interpreter &I) {
  I.enableTrace(true);
  Function *Main = const_cast<Module &>(M).findFunction("main");
  EXPECT_NE(Main, nullptr);
  ExecResult R = I.run(*Main);
  EXPECT_FALSE(R.Trapped) << R.TrapReason;
  return I.trace();
}

const char *BiasedLoopSource = R"(
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 200; i = i + 1) s = s + i;
  return s;
}
)";

} // namespace

TEST(BranchPredictorTest, NoneKeepsCyclesBitIdentical) {
  auto M = compileMiniCOrDie(BiasedLoopSource);
  Interpreter I(*M);
  std::vector<TraceEntry> Trace = traceOf(*M, I);

  TimingSimulator Plain(MachineDescription::rs6k());
  TimingResult A = Plain.simulate(Trace);

  TimingSimulator WithNone(MachineDescription::rs6k());
  BranchPredictorOptions O; // Kind == None
  WithNone.setPredictor(O);
  TimingResult B = WithNone.simulate(Trace);

  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(B.Branches, 0u);
  EXPECT_EQ(B.Mispredicts, 0u);
  EXPECT_EQ(B.BranchStallCycles, 0u);
}

TEST(BranchPredictorTest, OracleNeverWorseThanAlwaysTaken) {
  // A branchy program: the profile-oracle predictor picks each branch's
  // majority direction, so per branch its misses are min(taken, fall) --
  // never more than always-taken's.
  auto M = compileMiniCOrDie(R"(
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 100; i = i + 1) {
    if (i % 8 == 0) s = s + 3;
    else s = s + 1;
  }
  print(s);
  return s;
}
)");
  Interpreter I(*M);
  std::vector<TraceEntry> Trace = traceOf(*M, I);
  ProfileData Profile;
  Function *Main = M->findFunction("main");
  Profile.record(*Main, I.blockCounts());
  Profile.recordEdges(*Main, I.edgeCounts());

  auto Run = [&](PredictorKind K) {
    TimingSimulator Sim(MachineDescription::rs6k());
    BranchPredictorOptions O;
    O.Kind = K;
    O.Profile = &Profile;
    Sim.setPredictor(O);
    return Sim.simulate(Trace);
  };

  TimingResult Taken = Run(PredictorKind::AlwaysTaken);
  TimingResult Bimodal = Run(PredictorKind::Bimodal2Bit);
  TimingResult Oracle = Run(PredictorKind::ProfileOracle);

  EXPECT_GT(Taken.Branches, 0u);
  EXPECT_EQ(Taken.Branches, Bimodal.Branches);
  EXPECT_EQ(Taken.Branches, Oracle.Branches);
  EXPECT_LE(Oracle.Mispredicts, Taken.Mispredicts);
  // Stalls only ever add cycles on top of the interlock-only machine.
  TimingSimulator Plain(MachineDescription::rs6k());
  uint64_t BaseCycles = Plain.simulate(Trace).Cycles;
  for (const TimingResult &R : {Taken, Bimodal, Oracle})
    EXPECT_GE(R.Cycles, BaseCycles);
}

TEST(BranchPredictorTest, BimodalLearnsABiasedBranch) {
  auto M = compileMiniCOrDie(BiasedLoopSource);
  Interpreter I(*M);
  std::vector<TraceEntry> Trace = traceOf(*M, I);

  TimingSimulator Sim(MachineDescription::rs6k());
  BranchPredictorOptions O;
  O.Kind = PredictorKind::Bimodal2Bit;
  Sim.setPredictor(O);
  TimingResult T = Sim.simulate(Trace);

  // The loop-back branch goes the same way ~200 times; after warm-up the
  // 2-bit counters predict it every time.
  EXPECT_GE(T.Branches, 200u);
  EXPECT_LE(T.Mispredicts, T.Branches / 10);
  EXPECT_EQ(T.BranchStallCycles > 0, T.Mispredicts > 0);
}
