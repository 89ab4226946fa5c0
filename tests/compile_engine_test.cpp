//===- tests/compile_engine_test.cpp - Batch-compilation engine tests ------===//
//
// The parallel batch-compilation engine (engine/CompileEngine.h) and its
// parts: the work-stealing thread pool, stable content hashing, the
// content-addressed schedule cache, and the engine's headline contract --
// a batch compiled with N workers, cache on or off, is bit-identical to
// the same batch compiled with one worker, down to simulated cycle counts.
//
//===----------------------------------------------------------------------===//

#include "engine/CompileEngine.h"
#include "frontend/CodeGen.h"
#include "interp/Interpreter.h"
#include "ir/Checkpoint.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "machine/Timing.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Hashing.h"
#include "support/ThreadPool.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>

using namespace gis;

namespace {

//===----------------------------------------------------------------------===
// ThreadPool
//===----------------------------------------------------------------------===

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::atomic<unsigned> Ran{0};
  for (unsigned K = 0; K != 200; ++K)
    Pool.submit([&Ran] { Ran.fetch_add(1, std::memory_order_relaxed); });
  Pool.waitIdle();
  EXPECT_EQ(Ran.load(), 200u);
}

TEST(ThreadPoolTest, WaitIdleCoversNestedSubmissions) {
  ThreadPool Pool(3);
  std::atomic<unsigned> Ran{0};
  for (unsigned K = 0; K != 8; ++K)
    Pool.submit([&Pool, &Ran] {
      // A task fanning out further work; waitIdle must cover the
      // children too.
      for (unsigned J = 0; J != 4; ++J)
        Pool.submit([&Ran] { Ran.fetch_add(1, std::memory_order_relaxed); });
      Ran.fetch_add(1, std::memory_order_relaxed);
    });
  Pool.waitIdle();
  EXPECT_EQ(Ran.load(), 8u * 5);
}

TEST(ThreadPoolTest, ReusableAfterIdle) {
  ThreadPool Pool(2);
  std::atomic<unsigned> Ran{0};
  Pool.submit([&Ran] { ++Ran; });
  Pool.waitIdle();
  Pool.submit([&Ran] { ++Ran; });
  Pool.waitIdle();
  EXPECT_EQ(Ran.load(), 2u);
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

//===----------------------------------------------------------------------===
// Hashing
//===----------------------------------------------------------------------===

TEST(HashingTest, StableAndContentSensitive) {
  EXPECT_EQ(hashKey128("schedule me"), hashKey128("schedule me"));
  EXPECT_NE(hashKey128("schedule me"), hashKey128("schedule mf"));
  EXPECT_NE(hashKey128(""), hashKey128(std::string_view("\0", 1)));

  HashBuilder A, B;
  A.addString("fn").addU64(7).addBool(true);
  B.addString("fn").addU64(7).addBool(true);
  EXPECT_EQ(A.hash(), B.hash());
  B.addBool(false);
  EXPECT_NE(A.hash(), B.hash());
}

TEST(HashingTest, LengthPrefixPreventsStringAliasing) {
  HashBuilder A, B;
  A.addString("ab").addString("c");
  B.addString("a").addString("bc");
  EXPECT_NE(A.hash(), B.hash());
}

//===----------------------------------------------------------------------===
// Fingerprints and cache keys
//===----------------------------------------------------------------------===

TEST(ScheduleCacheTest, MachineFingerprintSeparatesConfigs) {
  uint64_t RS = fingerprintMachine(MachineDescription::rs6k());
  EXPECT_EQ(RS, fingerprintMachine(MachineDescription::rs6k()));
  EXPECT_NE(RS, fingerprintMachine(MachineDescription::superscalar(4, 1, 2)));
  EXPECT_NE(fingerprintMachine(MachineDescription::superscalar(2, 1, 1)),
            fingerprintMachine(MachineDescription::superscalar(2, 1, 2)));
}

TEST(ScheduleCacheTest, OptionsFingerprintSeparatesConfigs) {
  PipelineOptions A;
  uint64_t FA = fingerprintOptions(A);
  EXPECT_EQ(FA, fingerprintOptions(A));

  PipelineOptions B = A;
  B.Level = SchedLevel::Useful;
  EXPECT_NE(FA, fingerprintOptions(B));

  PipelineOptions C = A;
  C.MaxSpecDepth = 3;
  EXPECT_NE(FA, fingerprintOptions(C));
}

TEST(ScheduleCacheTest, KeyTracksFunctionContent) {
  auto M = compileMiniCOrDie("int main() { int a = 1; print(a); return a; }");
  Function &F = *M->functions()[0];
  uint64_t MFp = fingerprintMachine(MachineDescription::rs6k());
  uint64_t OFp = fingerprintOptions(PipelineOptions{});
  Key128 K1 = scheduleCacheKey(F, MFp, OFp);
  EXPECT_EQ(K1, scheduleCacheKey(F, MFp, OFp));
  EXPECT_NE(K1, scheduleCacheKey(F, MFp + 1, OFp));
  EXPECT_NE(K1, scheduleCacheKey(F, MFp, OFp + 1));

  auto M2 =
      compileMiniCOrDie("int main() { int a = 2; print(a); return a; }");
  EXPECT_NE(K1, scheduleCacheKey(*M2->functions()[0], MFp, OFp));
}

// The key is a hash of the printed function plus both fingerprints, and
// the disk tier files entries under it: a byte change in the printer or in
// either fingerprint silently orphans every deployed cache entry.  These
// values pin all three for a fixed function under rs6k() and the default
// options.
TEST(ScheduleCacheTest, KeyBytesArePinned) {
  auto M = parseModuleOrDie(R"(
func pinned(r1, r2) {
entry:
  LI r3 = 0
  LI r4 = -5
loop:
  L r5 = mem[r1 + 8]            ; load
  A r3 = r3, r5
  ST mem[r1 - 4] = r3
  AI r1 = r1, 4
  C cr0 = r1, r2
  BT loop, cr0, lt
exit:
  CALL r6 = helper(r3, r4)
  RET r6
}
)");
  const Function &F = *M->functions()[0];
  uint64_t MFp = fingerprintMachine(MachineDescription::rs6k());
  uint64_t OFp = fingerprintOptions(PipelineOptions{});
  EXPECT_EQ(formatString("%016llx", static_cast<unsigned long long>(MFp)),
            "bcbfb6a683096a44");
  EXPECT_EQ(formatString("%016llx", static_cast<unsigned long long>(OFp)),
            "1e385877b8d296d8");
  Key128 K = scheduleCacheKey(F, MFp, OFp);
  EXPECT_EQ(formatString("%016llx%016llx",
                         static_cast<unsigned long long>(K.Hi),
                         static_cast<unsigned long long>(K.Lo)),
            "1b43da0654e546f157920a3536c0f57f");
}

TEST(ScheduleCacheTest, LookupServesIdenticalFunction) {
  MachineDescription MD = MachineDescription::rs6k();
  PipelineOptions Opts;
  auto Scheduled = compileMiniCOrDie(
      "int main() { int s = 0; int i = 0; while (i < 9) { s = s + i * i; "
      "i = i + 1; } print(s); return s; }");
  auto Untouched = compileMiniCOrDie(
      "int main() { int s = 0; int i = 0; while (i < 9) { s = s + i * i; "
      "i = i + 1; } print(s); return s; }");

  Function &F = *Scheduled->functions()[0];
  uint64_t MFp = fingerprintMachine(MD);
  uint64_t OFp = fingerprintOptions(Opts);
  Key128 Key = scheduleCacheKey(F, MFp, OFp);

  PipelineStats Run = schedulePipeline(F, MD, Opts);

  ScheduleCache Cache;
  Cache.insert(Key, F, Run);
  EXPECT_EQ(Cache.size(), 1u);

  Function &G = *Untouched->functions()[0];
  PipelineStats Served;
  EXPECT_FALSE(Cache.lookup(scheduleCacheKey(F, MFp, OFp + 1), G, Served));
  ASSERT_TRUE(Cache.lookup(Key, G, Served));
  EXPECT_TRUE(functionsIdentical(F, G));
  EXPECT_EQ(Served.TransactionsRun, Run.TransactionsRun);

  ScheduleCacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Insertions, 1u);
}

TEST(ScheduleCacheTest, CapacityBoundEvictsLru) {
  auto M = compileMiniCOrDie("int main() { return 0; }");
  Function &F = *M->functions()[0];
  PipelineStats Stats;

  ScheduleCache Cache(/*Capacity=*/4, /*NumShards=*/1);
  for (uint64_t K = 0; K != 10; ++K)
    Cache.insert(Key128{K, K}, F, Stats);
  EXPECT_LE(Cache.size(), 4u);
  EXPECT_EQ(Cache.stats().Evictions, 6u);

  // The oldest keys are gone, the newest survive.
  PipelineStats Out;
  EXPECT_FALSE(Cache.lookup(Key128{0, 0}, F, Out));
  EXPECT_TRUE(Cache.lookup(Key128{9, 9}, F, Out));

  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
}

//===----------------------------------------------------------------------===
// CompileEngine
//===----------------------------------------------------------------------===

/// A deterministic batch of random programs; \p Copies > 1 repeats the
/// same sources to give the cache in-batch duplicates.  The seeds are
/// pinned to programs whose main finishes well under the interpreter's
/// step budget (some seeds generate deeply nested loops that run for
/// tens of millions of steps).
std::vector<std::string> batchSources(unsigned Programs, unsigned Copies) {
  static const uint64_t FastSeeds[] = {1001, 1002, 1004, 1006,
                                       1008, 1009, 1013, 1018};
  GIS_ASSERT(Programs <= std::size(FastSeeds), "not enough pinned seeds");
  std::vector<std::string> Sources;
  for (unsigned C = 0; C != Copies; ++C)
    for (unsigned K = 0; K != Programs; ++K)
      Sources.push_back(generateRandomMiniC(FastSeeds[K]));
  return Sources;
}

struct BatchModules {
  std::vector<std::unique_ptr<Module>> Modules;
  std::vector<BatchItem> Items;
};

BatchModules compileBatchSources(const std::vector<std::string> &Sources) {
  BatchModules B;
  for (size_t K = 0; K != Sources.size(); ++K) {
    B.Modules.push_back(compileMiniCOrDie(Sources[K]));
    B.Items.push_back(
        BatchItem{B.Modules.back().get(), "m" + std::to_string(K)});
  }
  return B;
}

/// Runs every module's main and returns the per-module simulated RS/6000
/// cycle counts.
std::vector<uint64_t> simulatedCycles(const BatchModules &B,
                                      const MachineDescription &MD) {
  std::vector<uint64_t> Cycles;
  for (const auto &M : B.Modules) {
    Interpreter I(*M);
    I.enableTrace(true);
    Function *Entry = M->findFunction("main");
    EXPECT_NE(Entry, nullptr);
    ExecResult R = I.run(*Entry);
    EXPECT_FALSE(R.Trapped);
    TimingSimulator Sim(MD);
    Cycles.push_back(Sim.simulate(I.trace()).Cycles);
  }
  return Cycles;
}

std::string printedBatch(const BatchModules &B) {
  std::string All;
  for (const auto &M : B.Modules)
    All += moduleToString(*M);
  return All;
}

TEST(CompileEngineTest, ParallelAndCachedCompilesAreBitIdentical) {
  MachineDescription MD = MachineDescription::rs6k();
  PipelineOptions Opts;
  std::vector<std::string> Sources =
      batchSources(/*Programs=*/6, /*Copies=*/2);

  struct Config {
    unsigned Jobs;
    bool Cache;
  };
  // Parallel width follows the host rather than a hardcoded 8: at least 2
  // so the parallel path is exercised everywhere, at most 8 so small CI
  // hosts are not oversubscribed.
  const unsigned Par = std::clamp(ThreadPool::hardwareThreads(), 2u, 8u);
  const Config Configs[] = {{1, false}, {Par, false}, {1, true}, {Par, true}};

  std::string ReferenceIR;
  std::vector<uint64_t> ReferenceCycles;
  for (const Config &C : Configs) {
    BatchModules B = compileBatchSources(Sources);
    EngineOptions EOpts;
    EOpts.Jobs = C.Jobs;
    EOpts.UseCache = C.Cache;
    CompileEngine Engine(MD, Opts, EOpts);
    EngineReport Report = Engine.compileBatch(B.Items);
    EXPECT_EQ(Report.FunctionsCompiled, Report.PerFunction.size());
    EXPECT_EQ(Report.rollbacks(), 0u);

    std::string IR = printedBatch(B);
    std::vector<uint64_t> Cycles = simulatedCycles(B, MD);
    if (ReferenceIR.empty()) {
      ReferenceIR = IR;
      ReferenceCycles = Cycles;
      continue;
    }
    // The headline determinism contract: worker count and cache state are
    // invisible in the output, bit for bit and cycle for cycle.
    EXPECT_EQ(IR, ReferenceIR)
        << "jobs=" << C.Jobs << " cache=" << C.Cache;
    EXPECT_EQ(Cycles, ReferenceCycles)
        << "jobs=" << C.Jobs << " cache=" << C.Cache;
  }
}

TEST(CompileEngineTest, InBatchDuplicatesHitTheCache) {
  MachineDescription MD = MachineDescription::rs6k();
  PipelineOptions Opts;
  // 3 copies of 4 programs: at most one miss per distinct function.
  std::vector<std::string> Sources = batchSources(4, 3);
  BatchModules B = compileBatchSources(Sources);

  EngineOptions EOpts;
  EOpts.Jobs = 1;
  CompileEngine Engine(MD, Opts, EOpts);
  EngineReport Report = Engine.compileBatch(B.Items);

  unsigned FuncsPerCopy = Report.FunctionsCompiled / 3;
  EXPECT_EQ(Report.CacheMisses, FuncsPerCopy);
  EXPECT_EQ(Report.CacheHits, 2u * FuncsPerCopy);
}

TEST(CompileEngineTest, WarmCacheServesRepeatedBatch) {
  MachineDescription MD = MachineDescription::rs6k();
  PipelineOptions Opts;
  std::vector<std::string> Sources = batchSources(5, 1);

  ScheduleCache Shared;
  EngineOptions EOpts;
  EOpts.Jobs = 4;
  EOpts.SharedCache = &Shared;
  CompileEngine Engine(MD, Opts, EOpts);

  BatchModules Cold = compileBatchSources(Sources);
  EngineReport First = Engine.compileBatch(Cold.Items);
  EXPECT_EQ(First.CacheHits, 0u);

  BatchModules Warm = compileBatchSources(Sources);
  EngineReport Second = Engine.compileBatch(Warm.Items);
  EXPECT_EQ(Second.CacheMisses, 0u);
  EXPECT_GE(Second.cacheHitRate(), 0.9);
  EXPECT_EQ(printedBatch(Warm), printedBatch(Cold));
}

TEST(CompileEngineTest, AggregatesFaultInjectionRollbacks) {
  MachineDescription MD = MachineDescription::rs6k();
  PipelineOptions Opts;
  std::vector<std::string> Sources = batchSources(3, 1);
  BatchModules B = compileBatchSources(Sources);

  FaultInjector::instance().arm("local:2");
  EngineOptions EOpts;
  EOpts.Jobs = 1; // deterministic: the fault lands on the second function
  EOpts.UseCache = false;
  CompileEngine Engine(MD, Opts, EOpts);
  EngineReport Report = Engine.compileBatch(B.Items);
  FaultInjector::instance().disarm();

  EXPECT_EQ(Report.Aggregate.FaultsInjected, 1u);
  EXPECT_EQ(Report.Aggregate.TransformsRolledBack, 1u);
  EXPECT_EQ(Report.Aggregate.Diags.size(), 1u);
}

TEST(CompileEngineTest, OracleWidensWorkUnitToModule) {
  MachineDescription MD = MachineDescription::rs6k();
  PipelineOptions Opts;
  Opts.EnableOracle = true;
  Opts.OracleMaxSteps = 200'000;
  std::vector<std::string> Sources = batchSources(3, 1);
  BatchModules B = compileBatchSources(Sources);

  EngineOptions EOpts;
  EOpts.Jobs = 4;
  CompileEngine Engine(MD, Opts, EOpts);
  EngineReport Report = Engine.compileBatch(B.Items);
  // The oracle disables the cache (its verdict depends on sibling
  // functions, which the content hash does not cover).
  EXPECT_EQ(Report.CacheHits, 0u);
  EXPECT_EQ(Report.Aggregate.OracleMismatches, 0u);
  EXPECT_EQ(Report.rollbacks(), 0u);
}

TEST(CompileEngineTest, SingleModuleConvenience) {
  auto M = compileMiniCOrDie(
      "int main() { int i = 0; int s = 0; while (i < 4) { s = s + 2 * i; "
      "i = i + 1; } print(s); return s; }");
  CompileEngine Engine(MachineDescription::rs6k(), PipelineOptions{});
  EngineReport Report = Engine.compile(*M);
  EXPECT_EQ(Report.FunctionsCompiled, 1u);
  EXPECT_FALSE(Report.summary().empty());
}

} // namespace
