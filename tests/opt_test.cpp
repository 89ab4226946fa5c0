//===- tests/opt_test.cpp - Mid-end optimizer tests ------------------------===//
//
// The src/opt/ subsystem: each pass does its documented rewrites and
// nothing else; the pass manager runs every pass under the pipeline's
// checkpoint/verify/rollback transaction; an injected fault in any pass
// is caught and rolled back; random programs survive every -O level
// oracle-clean; and the -O level is provably part of the cache
// fingerprint, so -O0 and -O2 entries never collide in a shared memory
// or disk cache.
//
//===----------------------------------------------------------------------===//

#include "engine/CompileEngine.h"
#include "engine/ScheduleCache.h"
#include "frontend/CodeGen.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/DeadCodeElim.h"
#include "opt/Pass.h"
#include "opt/PassManager.h"
#include "opt/Peephole.h"
#include "opt/StrengthReduce.h"
#include "opt/ValueNumbering.h"
#include "persist/DiskCache.h"
#include "persist/PersistIO.h"
#include "sched/Pipeline.h"
#include "sched/Transaction.h"
#include "support/FaultInjection.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>

using namespace gis;

namespace {

/// A self-deleting temporary directory under the test's working directory.
struct TempDir {
  std::string Path;
  explicit TempDir(const char *Tag) {
    std::string Template = std::string(Tag) + "-XXXXXX";
    std::vector<char> Buf(Template.begin(), Template.end());
    Buf.push_back('\0');
    const char *P = ::mkdtemp(Buf.data());
    EXPECT_NE(P, nullptr);
    Path = P ? P : Template;
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

std::unique_ptr<Module> parseOrDie(const char *Text) {
  ParseResult R = parseModule(Text);
  EXPECT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(verifyModule(*R.M).empty());
  return std::move(R.M);
}

/// Runs \p F with \p Args bound to its parameters; expects no trap.
int64_t runFn(const Module &M, Function &F,
              const std::vector<int64_t> &Args) {
  EXPECT_EQ(F.params().size(), Args.size());
  Interpreter I(M);
  for (size_t K = 0; K != Args.size(); ++K)
    I.setReg(F.params()[K], Args[K]);
  ExecResult R = I.run(F);
  EXPECT_FALSE(R.Trapped) << R.TrapReason;
  return R.ReturnValue;
}

unsigned countOpcode(const Function &F, Opcode O) {
  unsigned N = 0;
  for (BlockId B : F.layout())
    for (InstrId Id : F.block(B).instrs())
      if (F.instr(Id).opcode() == O)
        ++N;
  return N;
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

} // namespace

//===----------------------------------------------------------------------===
// Individual passes
//===----------------------------------------------------------------------===

TEST(PeepholeTest, FoldsConstantsAndAlgebraicIdentities) {
  auto M = parseOrDie(R"(
func f(r0) {
entry:
  LI r1 = 6
  LI r2 = 7
  MUL r3 = r1, r2
  AI r4 = r0, 0
  S r5 = r4, r4
  A r6 = r3, r5
  A r7 = r6, r0
  RET r7
}
)");
  Function &F = *M->functions()[0];
  int64_t Before = runFn(*M, F, {100});

  unsigned Rewrites = opt::runPeephole(F);
  EXPECT_GE(Rewrites, 4u); // MUL fold, AI->LR, S x,x -> LI 0, A +0 fold
  EXPECT_TRUE(verifyModule(*M).empty());
  EXPECT_EQ(countOpcode(F, Opcode::MUL), 0u);
  EXPECT_EQ(runFn(*M, F, {100}), Before);
}

TEST(PeepholeTest, CompareAgainstConstantBecomesImmediateForm) {
  auto M = parseOrDie(R"(
func f(r0) {
entry:
  LI r1 = 5
  C cr0 = r0, r1
  BT take, cr0, lt
fall:
  LI r2 = 0
  RET r2
take:
  LI r3 = 1
  RET r3
}
)");
  Function &F = *M->functions()[0];
  EXPECT_GE(opt::runPeephole(F), 1u);
  EXPECT_TRUE(verifyModule(*M).empty());
  EXPECT_EQ(countOpcode(F, Opcode::C), 0u);
  EXPECT_EQ(countOpcode(F, Opcode::CI), 1u);
  EXPECT_EQ(runFn(*M, F, {3}), 1);  // 3 < 5
  EXPECT_EQ(runFn(*M, F, {9}), 0);  // 9 >= 5
}

TEST(StrengthReduceTest, MulByConstantBecomesShifts) {
  auto M = parseOrDie(R"(
func f(r0) {
entry:
  LI r1 = 8
  MUL r2 = r0, r1
  LI r3 = 9
  MUL r4 = r0, r3
  LI r5 = 7
  MUL r6 = r0, r5
  A r7 = r2, r4
  A r8 = r7, r6
  RET r8
}
)");
  Function &F = *M->functions()[0];
  int64_t Before = runFn(*M, F, {11});

  unsigned Reduced =
      opt::runStrengthReduce(F, MachineDescription::rs6k());
  EXPECT_EQ(Reduced, 3u); // x*8 -> SL; x*9 -> SL+A; x*7 -> SL-S
  EXPECT_TRUE(verifyModule(*M).empty());
  EXPECT_EQ(countOpcode(F, Opcode::MUL), 0u);
  EXPECT_GE(countOpcode(F, Opcode::SL), 3u);
  EXPECT_EQ(runFn(*M, F, {11}), Before);
  // Negative values exercise the wrapping-arithmetic path.
  EXPECT_EQ(runFn(*M, F, {-13}), -13 * (8 + 9 + 7));
}

TEST(StrengthReduceTest, ArithmeticShiftRightIsNotUsedForDivision) {
  // SR is an *arithmetic* shift; for negative operands it rounds toward
  // negative infinity where DIV truncates toward zero, so division by a
  // power of two must survive strength reduction untouched.
  auto M = parseOrDie(R"(
func f(r0) {
entry:
  LI r1 = 4
  DIV r2 = r0, r1
  RET r2
}
)");
  Function &F = *M->functions()[0];
  EXPECT_EQ(opt::runStrengthReduce(F, MachineDescription::rs6k()), 0u);
  EXPECT_EQ(countOpcode(F, Opcode::DIV), 1u);
  EXPECT_EQ(runFn(*M, F, {-7}), -1); // truncating: -7/4 == -1, not -2
}

TEST(ValueNumberingTest, DominatedRecomputationIsForwarded) {
  auto M = parseOrDie(R"(
func f(r0, r1) {
entry:
  A r2 = r0, r1
  A r3 = r0, r1
  MUL r4 = r2, r3
  RET r4
}
)");
  Function &F = *M->functions()[0];
  F.recomputeCFG();
  int64_t Before = runFn(*M, F, {3, 4});

  EXPECT_EQ(opt::runValueNumbering(F), 1u);
  EXPECT_TRUE(verifyModule(*M).empty());
  EXPECT_EQ(countOpcode(F, Opcode::A), 1u);
  EXPECT_EQ(runFn(*M, F, {3, 4}), Before);
}

TEST(ValueNumberingTest, MultiDefRegistersAreNotNumbered) {
  // r2 is defined twice, so `A r2 = r0, r0` names no stable value; the
  // later recomputation must not be forwarded to it.
  auto M = parseOrDie(R"(
func f(r0) {
entry:
  A r2 = r0, r0
  LI r2 = 1
  A r3 = r0, r0
  A r4 = r2, r3
  RET r4
}
)");
  Function &F = *M->functions()[0];
  F.recomputeCFG();
  EXPECT_EQ(opt::runValueNumbering(F), 0u);
  EXPECT_EQ(runFn(*M, F, {10}), 21); // 1 + (10+10)
}

TEST(DeadCodeTest, RemovesDeadButKeepsTrappingAndObservable) {
  auto M = parseOrDie(R"(
func f(r0) {
entry:
  MUL r1 = r0, r0
  LI r2 = 5
  DIV r3 = r0, r2
  A r4 = r0, r0
  RET r4
}
)");
  Function &F = *M->functions()[0];
  F.recomputeCFG();
  int64_t Before = runFn(*M, F, {9});

  unsigned Removed = opt::runDeadCodeElim(F);
  // The MUL is dead; the DIV is dead too but can trap, so it stays (and
  // keeps its LI operand live).
  EXPECT_EQ(Removed, 1u);
  EXPECT_TRUE(verifyModule(*M).empty());
  EXPECT_EQ(countOpcode(F, Opcode::MUL), 0u);
  EXPECT_EQ(countOpcode(F, Opcode::DIV), 1u);
  EXPECT_EQ(countOpcode(F, Opcode::LI), 1u);
  EXPECT_EQ(runFn(*M, F, {9}), Before);
}

TEST(DeadCodeTest, CascadesThroughDeadChains) {
  auto M = parseOrDie(R"(
func f(r0) {
entry:
  A r1 = r0, r0
  A r2 = r1, r1
  A r3 = r2, r2
  RET r0
}
)");
  Function &F = *M->functions()[0];
  F.recomputeCFG();
  EXPECT_EQ(opt::runDeadCodeElim(F), 3u);
  EXPECT_EQ(countOpcode(F, Opcode::A), 0u);
}

//===----------------------------------------------------------------------===
// Pass manager: levels, forcing, transactions
//===----------------------------------------------------------------------===

TEST(OptOptionsTest, LevelsEnableDocumentedPasses) {
  opt::OptOptions O0;
  EXPECT_FALSE(O0.anyEnabled());

  opt::OptOptions O1;
  O1.Level = 1;
  EXPECT_TRUE(O1.enabled(opt::PassId::Peephole));
  EXPECT_TRUE(O1.enabled(opt::PassId::DeadCode));
  EXPECT_FALSE(O1.enabled(opt::PassId::StrengthReduce));
  EXPECT_FALSE(O1.enabled(opt::PassId::ValueNumbering));

  opt::OptOptions O2;
  O2.Level = 2;
  for (opt::PassId P : opt::passPipeline())
    EXPECT_TRUE(O2.enabled(P));

  // Forcing overrides the level in both directions.
  opt::OptOptions Forced;
  Forced.force(opt::PassId::ValueNumbering, true);
  EXPECT_TRUE(Forced.enabled(opt::PassId::ValueNumbering));
  EXPECT_TRUE(Forced.anyEnabled());
  Forced.Level = 2;
  Forced.force(opt::PassId::Peephole, false);
  EXPECT_FALSE(Forced.enabled(opt::PassId::Peephole));
}

TEST(PassManagerTest, RunsEveryPassTransactionallyAndReportsWork) {
  const char *Source = R"(
int f(int a, int b) {
  int x = a * 8;
  int y = a * 8;
  int dead = b * 7;
  int z = x + y + b * 1;
  return z - 0;
}
)";
  auto M = compileMiniCOrDie(Source);
  Function &F = *M->functions()[0];
  F.recomputeCFG();
  F.renumberOriginalOrder();
  int64_t Before = runFn(*M, F, {3, 5});
  unsigned InstrsBefore = 0;
  for (BlockId B : F.layout())
    InstrsBefore += F.block(B).instrs().size();

  opt::OptOptions Opts;
  Opts.Level = 2;
  TransactionConfig Tx;
  obs::CounterSet Counters;
  opt::OptRunReport R = opt::runOptPasses(
      F, MachineDescription::rs6k(), Opts, Tx, &Counters);

  EXPECT_EQ(R.Opt.PassesRun, opt::NumOptPasses);
  EXPECT_EQ(R.TransactionsRun, opt::NumOptPasses);
  EXPECT_EQ(R.TransformsRolledBack, 0u);
  EXPECT_EQ(R.VerifierFailures, 0u);
  EXPECT_GE(R.Opt.PeepholeRewrites, 1u);
  EXPECT_GE(R.Opt.StrengthReduced, 1u);
  EXPECT_GE(R.Opt.ValuesNumbered, 1u);
  EXPECT_GE(R.Opt.DeadRemoved, 1u);
  EXPECT_EQ(R.Opt.PassTimes.size(), opt::NumOptPasses);
  EXPECT_EQ(Counters.get(obs::Rollbacks), 0u);

  EXPECT_TRUE(verifyModule(*M).empty());
  unsigned InstrsAfter = 0;
  for (BlockId B : F.layout())
    InstrsAfter += F.block(B).instrs().size();
  EXPECT_LT(InstrsAfter, InstrsBefore);
  EXPECT_EQ(runFn(*M, F, {3, 5}), Before);
}

TEST(PassManagerTest, PipelineIntegrationRunsPassesBeforeScheduling) {
  std::string Source = generateRandomMiniC(7);
  auto Base = compileMiniCOrDie(Source);
  auto Sched = compileMiniCOrDie(Source);

  PipelineOptions Opts;
  Opts.Opt.Level = 2;
  PipelineStats Stats =
      scheduleModule(*Sched, MachineDescription::rs6k(), Opts);

  EXPECT_GE(Stats.Opt.PassesRun, opt::NumOptPasses); // >= 1 function
  EXPECT_EQ(Stats.TransformsRolledBack, 0u);
  EXPECT_EQ(Stats.VerifierFailures, 0u);
  EXPECT_TRUE(verifyModule(*Sched).empty());
  expectSameBehaviour(*Base, *Sched, Source);
}

//===----------------------------------------------------------------------===
// Fault injection: corrupt each pass in turn
//===----------------------------------------------------------------------===

class OptFaultMatrixTest : public ::testing::TestWithParam<const char *> {
protected:
  void TearDown() override { FaultInjector::instance().disarm(); }
};

// For each optimizer pass, arm its fault stage and compile random
// programs until the fault fires.  The corruption must be caught by the
// structural verifier, rolled back, diagnosed -- and the final program
// must still behave exactly like the unoptimized original.
TEST_P(OptFaultMatrixTest, CorruptionIsCaughtAndRolledBack) {
  const char *Stage = GetParam();
  unsigned TotalFaults = 0;
  for (uint64_t Seed = 1; Seed <= 10 && TotalFaults == 0; ++Seed) {
    std::string Source = generateRandomMiniC(Seed);
    auto Base = compileMiniCOrDie(Source);
    auto Sched = compileMiniCOrDie(Source);

    PipelineOptions Opts;
    Opts.Opt.Level = 2;
    FaultInjector::instance().arm(Stage);
    PipelineStats Stats =
        scheduleModule(*Sched, MachineDescription::rs6k(), Opts);
    FaultInjector::instance().disarm();

    ASSERT_TRUE(verifyModule(*Sched).empty())
        << "stage " << Stage << " seed " << Seed;
    if (Stats.FaultsInjected > 0) {
      EXPECT_EQ(Stats.FaultsInjected, 1u);
      EXPECT_GE(Stats.VerifierFailures, 1u);
      EXPECT_GE(Stats.TransformsRolledBack, 1u);
      EXPECT_FALSE(Stats.Diags.empty());
      TotalFaults += Stats.FaultsInjected;
    }
    expectSameBehaviour(*Base, *Sched, Source);
  }
  EXPECT_GE(TotalFaults, 1u) << "stage " << Stage << " never ran";
}

INSTANTIATE_TEST_SUITE_P(Passes, OptFaultMatrixTest,
                         ::testing::Values("opt-peephole", "opt-strength",
                                           "opt-gvn", "opt-dce"));

// A rolled-back pass must leave the function exactly as the previous pass
// committed it: with only DCE enabled and its transaction faulted, the
// result is bit-identical to a run with the optimizer off.
TEST(OptFaultInjectionTest, RollbackLeavesPreviousCommitIntact) {
  // A single function, so the one-shot fault hits its only DCE
  // transaction and nothing else in the module is optimized.
  std::string Source = R"(
int main() {
  int a = 5;
  int dead = a * 3;
  int x = a + 2;
  print(x);
  return x;
}
)";
  auto Ref = compileMiniCOrDie(Source);
  auto M = compileMiniCOrDie(Source);

  PipelineOptions Opts;
  Opts.Opt.force(opt::PassId::DeadCode, true);
  FaultInjector::instance().arm("opt-dce");
  PipelineStats Stats = scheduleModule(*M, MachineDescription::rs6k(), Opts);
  FaultInjector::instance().disarm();
  ASSERT_EQ(Stats.FaultsInjected, 1u);
  EXPECT_GE(Stats.TransformsRolledBack, 1u);

  PipelineOptions RefOpts;
  scheduleModule(*Ref, MachineDescription::rs6k(), RefOpts);
  EXPECT_EQ(moduleToString(*M), moduleToString(*Ref));
}

//===----------------------------------------------------------------------===
// Differential-oracle fuzzing across -O levels
//===----------------------------------------------------------------------===

namespace {

/// 200 random programs through the full pipeline at one -O level, every
/// function checked by the execution oracle.  Programs are kept small so
/// the suite stays fast under TSan.
void fuzzAtLevel(unsigned Level) {
  RandomProgramOptions RP;
  RP.MaxStmtsPerFunction = 10;
  RP.NumHelpers = 1;
  RP.MaxLoopTrip = 6;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    std::string Source = generateRandomMiniC(Seed, RP);
    auto M = compileMiniCOrDie(Source);

    PipelineOptions Opts;
    Opts.Opt.Level = Level;
    Opts.EnableOracle = true;
    PipelineStats Stats =
        scheduleModule(*M, MachineDescription::rs6k(), Opts);

    ASSERT_EQ(Stats.OracleMismatches, 0u)
        << "-O" << Level << " seed " << Seed << "\n" << Source;
    ASSERT_EQ(Stats.VerifierFailures, 0u)
        << "-O" << Level << " seed " << Seed;
    ASSERT_EQ(Stats.RegionsRolledBack + Stats.TransformsRolledBack, 0u)
        << "-O" << Level << " seed " << Seed;
    ASSERT_TRUE(verifyModule(*M).empty())
        << "-O" << Level << " seed " << Seed;
  }
}

} // namespace

TEST(OptOracleFuzzTest, O0IsOracleClean) { fuzzAtLevel(0); }
TEST(OptOracleFuzzTest, O1IsOracleClean) { fuzzAtLevel(1); }
TEST(OptOracleFuzzTest, O2IsOracleClean) { fuzzAtLevel(2); }

//===----------------------------------------------------------------------===
// Cache isolation: the -O level is part of the fingerprint
//===----------------------------------------------------------------------===

TEST(OptCacheKeyTest, ResolvedEnablementIsFingerprinted) {
  PipelineOptions O0, O1, O2;
  O1.Opt.Level = 1;
  O2.Opt.Level = 2;
  EXPECT_NE(fingerprintOptions(O0), fingerprintOptions(O1));
  EXPECT_NE(fingerprintOptions(O0), fingerprintOptions(O2));
  EXPECT_NE(fingerprintOptions(O1), fingerprintOptions(O2));

  // The *resolved* pipeline is hashed, not the raw level: -O0 with every
  // pass forced on runs exactly the -O2 pipeline and shares its entries.
  PipelineOptions Forced;
  for (opt::PassId P : opt::passPipeline())
    Forced.Opt.force(P, true);
  EXPECT_EQ(fingerprintOptions(Forced), fingerprintOptions(O2));
}

TEST(OptCacheKeyTest, SharedTiersNeverServeAcrossLevels) {
  TempDir D("gis-opt-cache");
  const char *Source = R"(
int main() {
  int a = 6;
  int x = a * 8;
  int y = a * 8;
  print(x + y);
  return x;
}
)";
  ScheduleCache Shared(256);

  auto compileAt = [&](unsigned Level) {
    auto M = compileMiniCOrDie(Source);
    PipelineOptions P;
    P.Opt.Level = Level;
    EngineOptions E;
    E.Jobs = 1;
    E.SharedCache = &Shared;
    E.CacheDir = D.Path;
    CompileEngine Engine(MachineDescription::rs6k(), P, E);
    EngineReport R = Engine.compile(*M);
    return std::make_pair(moduleToString(*M), R);
  };

  // Cold at -O0, then -O2 over the same shared memory cache and the same
  // disk directory: the -O2 run must miss both tiers.
  auto [Text0, Cold0] = compileAt(0);
  EXPECT_EQ(Cold0.CacheHits, 0u);
  auto [Text2, Cold2] = compileAt(2);
  EXPECT_EQ(Cold2.CacheHits, 0u);
  EXPECT_EQ(Cold2.DiskHits, 0u);
  EXPECT_NE(Text0, Text2); // the optimizer visibly changed the code

  // Warm repeats at each level hit and replay their own entry.
  auto [Warm0Text, Warm0] = compileAt(0);
  EXPECT_EQ(Warm0.CacheHits, 1u);
  EXPECT_EQ(Warm0Text, Text0);
  auto [Warm2Text, Warm2] = compileAt(2);
  EXPECT_EQ(Warm2.CacheHits, 1u);
  EXPECT_EQ(Warm2Text, Text2);

  // A fresh process (empty memory tier) over the same directory still
  // resolves each level to its own disk entry.
  ScheduleCache Fresh(256);
  auto M = compileMiniCOrDie(Source);
  PipelineOptions P2;
  P2.Opt.Level = 2;
  EngineOptions E;
  E.Jobs = 1;
  E.SharedCache = &Fresh;
  E.CacheDir = D.Path;
  CompileEngine Engine(MachineDescription::rs6k(), P2, E);
  EngineReport R = Engine.compile(*M);
  EXPECT_EQ(R.DiskHits, 1u);
  EXPECT_EQ(moduleToString(*M), Text2);
}

//===----------------------------------------------------------------------===
// Disk-tier size bound and eviction
//===----------------------------------------------------------------------===

TEST(DiskEvictionTest, OldestEntriesEvictedNeverTheJustPublished) {
  TempDir D("gis-evict");
  // MaxBytes=1: every publish overflows the bound, so each insert evicts
  // everything except the entry it just published.
  persist::DiskScheduleCache DC(D.Path, 1);
  ASSERT_TRUE(DC.open().isOk());
  EXPECT_EQ(DC.maxBytes(), 1u);

  auto M = parseOrDie("func f {\nentry:\n  LI r1 = 1\n  RET r1\n}\n");
  const Function &F = *M->functions()[0];
  PipelineStats Stats;
  Key128 K1{1, 0}, K2{2, 0}, K3{3, 0};
  DC.insert(K1, F, Stats);
  DC.insert(K2, F, Stats);
  DC.insert(K3, F, Stats);

  EXPECT_EQ(persist::listFilesWithSuffix(D.Path, ".gse").size(), 1u);
  EXPECT_EQ(DC.stats().Evictions, 2u);
  EXPECT_EQ(DC.stats().Inserts, 3u);

  // The survivor is the newest entry; the evicted ones are plain misses.
  Function Out("out");
  PipelineStats OutStats;
  EXPECT_TRUE(DC.lookup(K3, Out, OutStats));
  EXPECT_FALSE(DC.lookup(K1, Out, OutStats));
}

TEST(DiskEvictionTest, UnboundedByDefault) {
  TempDir D("gis-evict");
  persist::DiskScheduleCache DC(D.Path);
  ASSERT_TRUE(DC.open().isOk());
  auto M = parseOrDie("func f {\nentry:\n  LI r1 = 1\n  RET r1\n}\n");
  PipelineStats Stats;
  for (uint64_t K = 1; K <= 8; ++K)
    DC.insert(Key128{K, 0}, *M->functions()[0], Stats);
  EXPECT_EQ(persist::listFilesWithSuffix(D.Path, ".gse").size(), 8u);
  EXPECT_EQ(DC.stats().Evictions, 0u);
}

TEST(DiskEvictionTest, EngineCountsEvictionsInStatsAndRegistry) {
  TempDir D("gis-evict");
  // A bound small enough that twelve distinct programs cannot all fit.
  EngineOptions E;
  E.Jobs = 1;
  E.CacheDir = D.Path;
  E.CacheDirMaxBytes = 4096;

  RandomProgramOptions RP;
  RP.MaxStmtsPerFunction = 8;
  RP.NumHelpers = 1;
  std::vector<std::unique_ptr<Module>> Modules;
  std::vector<BatchItem> Batch;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    Modules.push_back(compileMiniCOrDie(generateRandomMiniC(Seed, RP)));
    Batch.push_back(
        BatchItem{Modules.back().get(), "p" + std::to_string(Seed)});
  }
  CompileEngine Engine(MachineDescription::rs6k(), PipelineOptions{}, E);
  EngineReport R = Engine.compileBatch(Batch);

  EXPECT_GT(R.Disk.Evictions, 0u);
  EXPECT_EQ(R.Aggregate.Counters.get(obs::PersistEvictions),
            R.Disk.Evictions);
  // The directory respects the bound after every publish (the bound can
  // only be exceeded when a single just-published entry alone does).
  std::vector<persist::DirEntryInfo> Files =
      persist::listFilesWithSuffix(D.Path, ".gse");
  EXPECT_LT(Files.size(), 12u);
  uint64_t Total = 0;
  for (const persist::DirEntryInfo &Entry : Files)
    Total += Entry.SizeBytes;
  EXPECT_TRUE(Total <= 4096u || Files.size() == 1u);
}

//===----------------------------------------------------------------------===
// Persisted stats round-trip the optimizer scalars
//===----------------------------------------------------------------------===

TEST(OptStatsTest, DiskEntryRoundTripsOptScalars) {
  auto M = parseOrDie("func f {\nentry:\n  LI r1 = 1\n  RET r1\n}\n");
  const Function &F = *M->functions()[0];
  PipelineStats S;
  S.Opt.PassesRun = 4;
  S.Opt.PeepholeRewrites = 3;
  S.Opt.StrengthReduced = 2;
  S.Opt.ValuesNumbered = 5;
  S.Opt.DeadRemoved = 7;

  Key128 Key{0x1234, 0x5678};
  std::string Bytes = persist::DiskScheduleCache::serializeEntry(Key, F, S);
  Function Out("out");
  PipelineStats OutS;
  ASSERT_TRUE(
      persist::DiskScheduleCache::deserializeEntry(Bytes, Key, Out, OutS)
          .isOk());
  EXPECT_EQ(OutS.Opt.PassesRun, 4u);
  EXPECT_EQ(OutS.Opt.PeepholeRewrites, 3u);
  EXPECT_EQ(OutS.Opt.StrengthReduced, 2u);
  EXPECT_EQ(OutS.Opt.ValuesNumbered, 5u);
  EXPECT_EQ(OutS.Opt.DeadRemoved, 7u);
}
