//===- tests/persist_test.cpp - Persistent schedule cache tests ------------===//
//
// The crash-safe disk tier (persist/DiskCache.h, persist/PersistIO.h):
// warm restarts serve bit-identical schedules from disk; every corruption
// mode -- torn writes, version skew, checksum damage, short files, key
// mismatches -- is quarantined and treated as a miss, never a crash and
// never a wrong hit; every I/O failure mode degrades the engine to
// memory-only with a diagnostic.  The headline property: a fault-injected
// torn-write run completes with zero wrong-schedule results.
//
//===----------------------------------------------------------------------===//

#include "engine/CompileEngine.h"
#include "frontend/CodeGen.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "persist/DiskCache.h"
#include "persist/PersistIO.h"
#include "support/FaultInjection.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace gis;
using namespace gis::persist;

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

/// Schedules `main` of \p Source through a fresh engine over \p CacheDir
/// and returns the scheduled function text plus the report.
struct RunResult {
  std::string Text;
  EngineReport Report;
};

RunResult runOnce(const std::string &Source, const std::string &CacheDir,
                  bool UseCache = true) {
  auto M = compileMiniCOrDie(Source);
  EngineOptions EOpts;
  EOpts.Jobs = 1;
  EOpts.UseCache = UseCache;
  EOpts.CacheDir = CacheDir;
  CompileEngine Engine(MachineDescription::rs6k(), PipelineOptions{},
                       EOpts);
  RunResult R;
  R.Report = Engine.compile(*M);
  R.Text = moduleToString(*M);
  return R;
}

const char *kSource =
    "int main() { int i = 0; int s = 0; while (i < 6) { s = s + 3 * i; "
    "i = i + 1; } print(s); return s; }";

size_t countEntries(const std::string &Dir) {
  size_t N = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.is_regular_file() && E.path().extension() == ".gse")
      ++N;
  return N;
}

size_t countQuarantined(const std::string &Dir) {
  std::filesystem::path Q = std::filesystem::path(Dir) / "quarantine";
  if (!std::filesystem::exists(Q))
    return 0;
  size_t N = 0;
  for (const auto &E : std::filesystem::directory_iterator(Q))
    if (E.is_regular_file())
      ++N;
  return N;
}

//===----------------------------------------------------------------------===
// PersistIO primitives
//===----------------------------------------------------------------------===

TEST(PersistIOTest, AtomicWriteThenReadRoundTrips) {
  TempDir D("gis-pio");
  std::string Payload = "bytes\0with\nembedded\0nuls";
  ASSERT_TRUE(atomicWriteFile(D.Path, "x.bin", Payload).isOk());
  std::string Back;
  bool Exists = false;
  ASSERT_TRUE(readFile(D.Path + "/x.bin", Back, Exists).isOk());
  EXPECT_TRUE(Exists);
  EXPECT_EQ(Back, Payload);
  // No temp litter after a clean publish.
  for (const auto &E : std::filesystem::directory_iterator(D.Path))
    EXPECT_EQ(E.path().filename().string().rfind(".tmp-", 0),
              std::string::npos);
}

TEST(PersistIOTest, MissingFileIsNotAnError) {
  TempDir D("gis-pio");
  std::string Out;
  bool Exists = true;
  ASSERT_TRUE(readFile(D.Path + "/absent", Out, Exists).isOk());
  EXPECT_FALSE(Exists);
  EXPECT_TRUE(Out.empty());
}

TEST(PersistIOTest, QuarantineMovesTheFileAside) {
  TempDir D("gis-pio");
  ASSERT_TRUE(atomicWriteFile(D.Path, "bad.gse", "junk").isOk());
  ASSERT_TRUE(quarantineFile(D.Path, "bad.gse", "checksum").isOk());
  EXPECT_FALSE(std::filesystem::exists(D.Path + "/bad.gse"));
  EXPECT_EQ(countQuarantined(D.Path), 1u);
}

TEST(PersistIOTest, ProbeRejectsNonDirectory) {
  TempDir D("gis-pio");
  std::ofstream(D.Path + "/file") << "x";
  Status S = probeWritable(D.Path + "/file/sub");
  EXPECT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), ErrorCode::PersistIOFailed);
}

//===----------------------------------------------------------------------===
// Warm restart
//===----------------------------------------------------------------------===

TEST(DiskCacheTest, WarmRestartServesBitIdenticalSchedule) {
  TempDir D("gis-disk");
  RunResult Cold = runOnce(kSource, D.Path);
  EXPECT_EQ(Cold.Report.DiskHits, 0u);
  EXPECT_EQ(Cold.Report.Disk.Inserts, 1u);
  EXPECT_EQ(countEntries(D.Path), 1u);

  // A fresh engine simulates a process restart: the memory tier is empty,
  // so the hit must come from disk -- and replay the same bytes.
  RunResult Warm = runOnce(kSource, D.Path);
  EXPECT_EQ(Warm.Report.DiskHits, 1u);
  EXPECT_EQ(Warm.Report.CacheHits, 1u);
  EXPECT_EQ(Warm.Text, Cold.Text);
  // Replayed stats match the computed ones (scalars travel with the entry).
  EXPECT_EQ(Warm.Report.Aggregate.Global.UsefulMotions,
            Cold.Report.Aggregate.Global.UsefulMotions);
  EXPECT_EQ(Warm.Report.Aggregate.Global.RegionsScheduled,
            Cold.Report.Aggregate.Global.RegionsScheduled);
  EXPECT_EQ(Warm.Report.Disk.Quarantines, 0u); // clean path: no leaks
}

TEST(DiskCacheTest, CleanPathNeverQuarantines) {
  TempDir D("gis-disk");
  for (unsigned K = 0; K != 3; ++K) {
    RunResult R = runOnce(generateRandomMiniC(1000 + K), D.Path);
    EXPECT_EQ(R.Report.Disk.Quarantines, 0u);
    EXPECT_FALSE(R.Report.Disk.Degraded);
  }
  // Re-run the same seeds on fresh engines: all disk hits, still clean.
  for (unsigned K = 0; K != 3; ++K) {
    RunResult R = runOnce(generateRandomMiniC(1000 + K), D.Path);
    EXPECT_GT(R.Report.DiskHits, 0u);
    EXPECT_EQ(R.Report.Disk.Quarantines, 0u);
  }
  EXPECT_EQ(countQuarantined(D.Path), 0u);
}

//===----------------------------------------------------------------------===
// Torn writes (the headline crash-safety property)
//===----------------------------------------------------------------------===

TEST(DiskCacheTest, TornWriteIsQuarantinedNotTrustedNotFatal) {
  TempDir D("gis-disk");
  // Baseline: the schedule this source must always produce.
  RunResult Baseline = runOnce(kSource, "", /*UseCache=*/false);

  // Write the entry torn: half its bytes persist, then the write
  // "succeeds" -- a crash between write and durability.
  FaultInjector::instance().arm("persist-truncate");
  RunResult Torn = runOnce(kSource, D.Path);
  FaultInjector::instance().disarm();
  EXPECT_EQ(Torn.Text, Baseline.Text); // the compile itself is unharmed
  ASSERT_EQ(countEntries(D.Path), 1u);

  // Restart: the torn entry must be quarantined and recompiled around --
  // quarantine count > 0, crash count = 0, output bit-identical to the
  // never-cached baseline.
  RunResult Recovered = runOnce(kSource, D.Path);
  EXPECT_EQ(Recovered.Report.DiskHits, 0u);
  EXPECT_GT(Recovered.Report.Disk.Quarantines, 0u);
  EXPECT_EQ(Recovered.Text, Baseline.Text);
  EXPECT_EQ(countQuarantined(D.Path), 1u);
  EXPECT_FALSE(Recovered.Report.Aggregate.Diags.empty());

  // The recompile republished a sound entry; the next restart hits it.
  RunResult Final = runOnce(kSource, D.Path);
  EXPECT_EQ(Final.Report.DiskHits, 1u);
  EXPECT_EQ(Final.Text, Baseline.Text);
}

TEST(DiskCacheTest, TornWriteRecoveryPassesTheOracle) {
  TempDir D("gis-disk");
  std::string Source = generateRandomMiniC(77);
  FaultInjector::instance().arm("persist-truncate");
  runOnce(Source, D.Path);
  FaultInjector::instance().disarm();

  // Recompile after the "crash" with the differential oracle watching.
  // The oracle path bypasses the caches entirely, so this checks the
  // recovered *program*, not the cache bookkeeping: scheduled behaviour
  // still matches the original on the interpreter.
  auto M = compileMiniCOrDie(Source);
  PipelineOptions Opts;
  Opts.EnableOracle = true;
  Opts.OracleMaxSteps = 500'000;
  EngineOptions EOpts;
  EOpts.Jobs = 1;
  CompileEngine Engine(MachineDescription::rs6k(), Opts, EOpts);
  EngineReport R = Engine.compile(*M);
  EXPECT_EQ(R.Aggregate.OracleMismatches, 0u);
  EXPECT_EQ(R.Aggregate.EngineFailures, 0u);
}

//===----------------------------------------------------------------------===
// I/O failure degradation
//===----------------------------------------------------------------------===

TEST(DiskCacheTest, WriteFailureDegradesToMemoryOnly) {
  TempDir D("gis-disk");
  FaultInjector::instance().arm("persist-write");
  RunResult R = runOnce(kSource, D.Path);
  FaultInjector::instance().disarm();
  EXPECT_TRUE(R.Report.Disk.Degraded);
  EXPECT_EQ(R.Report.Disk.WriteFailures, 1u);
  EXPECT_EQ(countEntries(D.Path), 0u);
  // The degradation left a diagnostic on the established channel.
  bool Found = false;
  for (const Diagnostic &Diag : R.Report.Aggregate.Diags)
    Found = Found || Diag.Code == ErrorCode::PersistIOFailed;
  EXPECT_TRUE(Found);
}

TEST(DiskCacheTest, RenameFailureDegradesAndLeavesNoEntry) {
  TempDir D("gis-disk");
  FaultInjector::instance().arm("persist-rename");
  RunResult R = runOnce(kSource, D.Path);
  FaultInjector::instance().disarm();
  EXPECT_TRUE(R.Report.Disk.Degraded);
  EXPECT_EQ(R.Report.Disk.WriteFailures, 1u);
  EXPECT_EQ(countEntries(D.Path), 0u); // failed publish is invisible
}

TEST(DiskCacheTest, ReadFailureDegradesButStillCompiles) {
  TempDir D("gis-disk");
  RunResult Cold = runOnce(kSource, D.Path);
  FaultInjector::instance().arm("persist-read");
  RunResult R = runOnce(kSource, D.Path);
  FaultInjector::instance().disarm();
  EXPECT_EQ(R.Report.DiskHits, 0u);
  EXPECT_TRUE(R.Report.Disk.Degraded);
  EXPECT_EQ(R.Report.Disk.ReadFailures, 1u);
  EXPECT_EQ(R.Text, Cold.Text); // recompiled, same schedule
  // The (sound) entry is still on disk for the next, healthy process.
  EXPECT_EQ(countEntries(D.Path), 1u);
}

TEST(DiskCacheTest, UnusableDirectoryDegradesOpenButEngineSurvives) {
  TempDir D("gis-disk");
  std::ofstream(D.Path + "/f") << "x";
  RunResult R = runOnce(kSource, D.Path + "/f/cache");
  EXPECT_TRUE(R.Report.DiskEnabled);
  EXPECT_TRUE(R.Report.Disk.Degraded);
  EXPECT_EQ(R.Report.FunctionsCompiled, 1u);
}

//===----------------------------------------------------------------------===
// Entry validation: every corruption mode quarantines, none crash, none
// serve a wrong hit
//===----------------------------------------------------------------------===

/// Fixture that plants one genuine entry, then lets each test corrupt it.
class CorruptEntryTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = std::make_unique<TempDir>("gis-corrupt");
    Cold = runOnce(kSource, Dir->Path);
    ASSERT_EQ(countEntries(Dir->Path), 1u);
    for (const auto &E : std::filesystem::directory_iterator(Dir->Path))
      if (E.path().extension() == ".gse")
        EntryPath = E.path().string();
    ASSERT_FALSE(EntryPath.empty());
  }

  /// Overwrites the planted entry with \p Bytes, then asserts the restart
  /// contract: no crash, no wrong hit, exactly one quarantine.
  void corruptAndCheck(const std::string &Bytes) {
    {
      std::ofstream Out(EntryPath, std::ios::binary | std::ios::trunc);
      Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    }
    RunResult R = runOnce(kSource, Dir->Path);
    EXPECT_EQ(R.Report.DiskHits, 0u);
    EXPECT_GT(R.Report.Disk.Quarantines, 0u);
    EXPECT_EQ(R.Text, Cold.Text);
    EXPECT_EQ(countQuarantined(Dir->Path), 1u);
  }

  std::string entryBytes() const {
    std::ifstream In(EntryPath, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    return SS.str();
  }

  std::unique_ptr<TempDir> Dir;
  RunResult Cold;
  std::string EntryPath;
};

TEST_F(CorruptEntryTest, ShortFile) { corruptAndCheck("GIS-"); }

TEST_F(CorruptEntryTest, WrongMagic) {
  std::string B = entryBytes();
  B.replace(0, 3, "XXX");
  corruptAndCheck(B);
}

TEST_F(CorruptEntryTest, FlippedPayloadByteFailsChecksum) {
  std::string B = entryBytes();
  B[B.size() - 2] ^= 0x40;
  corruptAndCheck(B);
}

TEST_F(CorruptEntryTest, TruncatedPayload) {
  std::string B = entryBytes();
  corruptAndCheck(B.substr(0, B.size() / 2));
}

TEST_F(CorruptEntryTest, VersionSkewIsAMissNotACrash) {
  // A valid entry stamped with a future format version: deserialization
  // must reject it on the version line alone.
  auto M = compileMiniCOrDie(kSource);
  Function &F = *M->functions()[0];
  PipelineStats Stats;
  Key128 Key = hashKey128("the key does not matter here");
  std::string Skewed = DiskScheduleCache::serializeEntry(
      Key, F, Stats, DiskCacheFormatVersion + 1);
  corruptAndCheck(Skewed);
}

TEST_F(CorruptEntryTest, KeyMismatchIsQuarantined) {
  // A well-formed entry filed under the wrong name (e.g. a collision or a
  // bad copy): the embedded key must veto the hit.
  auto M = compileMiniCOrDie(kSource);
  Function &F = *M->functions()[0];
  PipelineStats Stats;
  Key128 Other = hashKey128("some other function entirely");
  corruptAndCheck(DiskScheduleCache::serializeEntry(Other, F, Stats));
}

//===----------------------------------------------------------------------===
// Serialization round-trip
//===----------------------------------------------------------------------===

TEST(DiskCacheTest, EntrySerializationRoundTrips) {
  auto M = compileMiniCOrDie(kSource);
  Function &F = *M->functions()[0];
  PipelineStats Stats;
  Stats.Global.RegionsScheduled = 3;
  Stats.Global.UsefulMotions = 7;
  Stats.LoopsRotated = 1;
  Stats.PressurePeak[0] = 11;
  Stats.Counters.bump(obs::MotionUseful, 7);
  Key128 Key = hashKey128("round trip");

  std::string Bytes = DiskScheduleCache::serializeEntry(Key, F, Stats);
  auto M2 = compileMiniCOrDie("int main() { return 1; }");
  Function &G = *M2->functions()[0];
  PipelineStats Back;
  ASSERT_TRUE(DiskScheduleCache::deserializeEntry(Bytes, Key, G, Back)
                  .isOk());
  EXPECT_EQ(functionToString(G), functionToString(F));
  EXPECT_EQ(Back.Global.RegionsScheduled, 3u);
  EXPECT_EQ(Back.Global.UsefulMotions, 7u);
  EXPECT_EQ(Back.LoopsRotated, 1u);
  EXPECT_EQ(Back.PressurePeak[0], 11u);
  EXPECT_EQ(Back.Counters.get(obs::MotionUseful), 7u);
}

/// Sets each of PipelineStats's scalars, named one by one, to a distinct
/// nonzero value (the pressure peaks too, which merge by max).
void fillEveryScalar(PipelineStats &S) {
  unsigned V = 1;
  for (unsigned *Field :
       {&S.Global.RegionsScheduled, &S.Global.BlocksScheduled,
        &S.Global.UsefulMotions, &S.Global.SpeculativeMotions,
        &S.Global.Renames, &S.Global.VetoedSpeculations,
        &S.Local.BlocksScheduled, &S.Local.BlocksReordered,
        &S.Local.BlocksFailed, &S.LoopsUnrolled, &S.LoopsRotated,
        &S.PreRenamedDefs, &S.RegionsSkippedBySize,
        &S.FunctionsSkippedIrreducible, &S.TracesFormed, &S.TraceBlocks,
        &S.TailDupInstrs, &S.TailDupBlocks, &S.TracesTruncated,
        &S.SuperblocksScheduled, &S.PressurePeak[0], &S.PressurePeak[1],
        &S.PressurePeak[2], &S.RegAlloc.IntervalsBuilt,
        &S.RegAlloc.IntervalsSpilled, &S.RegAlloc.SpillStores,
        &S.RegAlloc.SpillReloads, &S.RegAlloc.SpillSlots,
        &S.RegAllocFailures, &S.Opt.PassesRun, &S.Opt.PeepholeRewrites,
        &S.Opt.StrengthReduced, &S.Opt.ValuesNumbered, &S.Opt.DeadRemoved,
        &S.RegionWaves, &S.TransactionsRun, &S.RegionsRolledBack,
        &S.TransformsRolledBack, &S.VerifierFailures, &S.OracleMismatches,
        &S.EngineFailures, &S.FaultsInjected, &S.RegionTasks})
    *Field = V++;
  EXPECT_EQ(V - 1, 43u);
}

/// Expects \p Got to equal \p Want in each scalar, named one by one, and
/// in every registry counter.
void expectSameStats(const PipelineStats &Want, const PipelineStats &Got) {
#define GIS_EXPECT_FIELD(F) EXPECT_EQ(Got.F, Want.F) << #F
  GIS_EXPECT_FIELD(Global.RegionsScheduled);
  GIS_EXPECT_FIELD(Global.BlocksScheduled);
  GIS_EXPECT_FIELD(Global.UsefulMotions);
  GIS_EXPECT_FIELD(Global.SpeculativeMotions);
  GIS_EXPECT_FIELD(Global.Renames);
  GIS_EXPECT_FIELD(Global.VetoedSpeculations);
  GIS_EXPECT_FIELD(Local.BlocksScheduled);
  GIS_EXPECT_FIELD(Local.BlocksReordered);
  GIS_EXPECT_FIELD(Local.BlocksFailed);
  GIS_EXPECT_FIELD(LoopsUnrolled);
  GIS_EXPECT_FIELD(LoopsRotated);
  GIS_EXPECT_FIELD(PreRenamedDefs);
  GIS_EXPECT_FIELD(RegionsSkippedBySize);
  GIS_EXPECT_FIELD(FunctionsSkippedIrreducible);
  GIS_EXPECT_FIELD(TracesFormed);
  GIS_EXPECT_FIELD(TraceBlocks);
  GIS_EXPECT_FIELD(TailDupInstrs);
  GIS_EXPECT_FIELD(TailDupBlocks);
  GIS_EXPECT_FIELD(TracesTruncated);
  GIS_EXPECT_FIELD(SuperblocksScheduled);
  GIS_EXPECT_FIELD(PressurePeak[0]);
  GIS_EXPECT_FIELD(PressurePeak[1]);
  GIS_EXPECT_FIELD(PressurePeak[2]);
  GIS_EXPECT_FIELD(RegAlloc.IntervalsBuilt);
  GIS_EXPECT_FIELD(RegAlloc.IntervalsSpilled);
  GIS_EXPECT_FIELD(RegAlloc.SpillStores);
  GIS_EXPECT_FIELD(RegAlloc.SpillReloads);
  GIS_EXPECT_FIELD(RegAlloc.SpillSlots);
  GIS_EXPECT_FIELD(RegAllocFailures);
  GIS_EXPECT_FIELD(Opt.PassesRun);
  GIS_EXPECT_FIELD(Opt.PeepholeRewrites);
  GIS_EXPECT_FIELD(Opt.StrengthReduced);
  GIS_EXPECT_FIELD(Opt.ValuesNumbered);
  GIS_EXPECT_FIELD(Opt.DeadRemoved);
  GIS_EXPECT_FIELD(RegionWaves);
  GIS_EXPECT_FIELD(TransactionsRun);
  GIS_EXPECT_FIELD(RegionsRolledBack);
  GIS_EXPECT_FIELD(TransformsRolledBack);
  GIS_EXPECT_FIELD(VerifierFailures);
  GIS_EXPECT_FIELD(OracleMismatches);
  GIS_EXPECT_FIELD(EngineFailures);
  GIS_EXPECT_FIELD(FaultsInjected);
  GIS_EXPECT_FIELD(RegionTasks);
#undef GIS_EXPECT_FIELD
  for (unsigned K = 0; K != obs::NumCounters; ++K) {
    auto Id = static_cast<obs::CounterId>(K);
    EXPECT_EQ(Got.Counters.get(Id), Want.Counters.get(Id))
        << obs::counterKey(Id);
  }
}

// The stats block carries every scalar and the whole registry: each of the
// 43 fields, set to a distinct value, and each counter survive serialize
// -> deserialize.
TEST(DiskCacheTest, EveryStatsScalarRoundTrips) {
  auto M = compileMiniCOrDie(kSource);
  Function &F = *M->functions()[0];
  PipelineStats Stats;
  fillEveryScalar(Stats);
  for (unsigned K = 0; K != obs::NumCounters; ++K)
    Stats.Counters.bump(static_cast<obs::CounterId>(K), 1000 + K);
  Key128 Key = hashKey128("every scalar");

  std::string Bytes = DiskScheduleCache::serializeEntry(Key, F, Stats);
  Function G("other");
  PipelineStats Back;
  ASSERT_TRUE(DiskScheduleCache::deserializeEntry(Bytes, Key, G, Back)
                  .isOk());
  expectSameStats(Stats, Back);
}

// A disk hit replays the statistics of the run that wrote the entry: a
// superblock module compiled cold, then again by an engine with a fresh
// memory tier over the same directory, reads the same PipelineStats for
// every function -- every scalar, superblock ones and the region-task
// count included, and every counter -- and the engine's summary reports
// the same region tasks.
TEST(DiskCacheTest, DiskHitReplaysEveryStatistic) {
  const char *Source = R"(
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
)";
  TempDir D("gis-disk");
  PipelineOptions Opts;
  Opts.EnableSuperblocks = true;
  EngineOptions EOpts;
  EOpts.Jobs = 1;
  EOpts.CacheDir = D.Path;
  auto Compile = [&] {
    auto M = compileMiniCOrDie(Source);
    CompileEngine Engine(MachineDescription::rs6k(), Opts, EOpts);
    return Engine.compile(*M);
  };
  EngineReport Cold = Compile();
  EngineReport Warm = Compile();
  ASSERT_EQ(Cold.DiskHits, 0u);
  ASSERT_EQ(Warm.DiskHits, Warm.FunctionsCompiled);
  ASSERT_EQ(Cold.PerFunction.size(), Warm.PerFunction.size());
  EXPECT_GT(Cold.Aggregate.TracesFormed, 0u);
  EXPECT_GT(Cold.Aggregate.SuperblocksScheduled, 0u);
  EXPECT_GT(Cold.Aggregate.RegionTasks, 0u);
  EXPECT_EQ(Cold.Aggregate.RegionTasks, Cold.Aggregate.RegionTimes.size());
  EXPECT_TRUE(Warm.Aggregate.RegionTimes.empty()); // no time was spent
  for (size_t K = 0; K != Cold.PerFunction.size(); ++K)
    expectSameStats(Cold.PerFunction[K].Stats, Warm.PerFunction[K].Stats);
  std::string Tasks = "region scheduling: " +
                      std::to_string(Cold.Aggregate.RegionTasks) + " task(s)";
  EXPECT_NE(Cold.summary().find(Tasks), std::string::npos) << Cold.summary();
  EXPECT_NE(Warm.summary().find(Tasks), std::string::npos) << Warm.summary();
}

// Format version 1 byte for byte: header lines, the printed function,
// the sparse stats block (scalars in their fixed order, then the nonzero
// counters) and the payload checksum.  Entries written by any build of
// this version must keep deserializing, so the bytes may not drift.
TEST(DiskCacheTest, EntryBytesArePinned) {
  auto M = parseModuleOrDie("func pinned(r1) {\n"
                            "B0:\n"
                            "  L r2 = mem[r1 - 8]            ; load\n"
                            "  AI r3 = r2, 1\n"
                            "  RET r3\n"
                            "}\n");
  const Function &F = *M->functions()[0];
  PipelineStats Stats;
  Stats.Global.RegionsScheduled = 2;
  Stats.LoopsRotated = 1;
  Stats.PressurePeak[2] = 4;
  Stats.TransactionsRun = 9;
  Stats.Counters.bump(obs::MotionUseful, 3);
  Key128 Key;
  Key.Hi = 0xfedcba9876543210ULL;
  Key.Lo = 0x0123456789abcdefULL;
  std::string Bytes = DiskScheduleCache::serializeEntry(Key, F, Stats);
  EXPECT_EQ(Bytes, "GIS-SCHED-CACHE 1\n"
                   "key fedcba98765432100123456789abcdef\n"
                   "ir 94\n"
                   "stats 105\n"
                   "sum 0ae6dd0770aa390a1539c16b3c664250\n"
                   "\n"
                   "func pinned(r1) {\n"
                   "B0:\n"
                   "  L r2 = mem[r1 - 8]                  ; load\n"
                   "  AI r3 = r2, 1\n"
                   "  RET r3\n"
                   "}\n"
                   "global.regions_scheduled=2\n"
                   "loops_rotated=1\n"
                   "pressure_peak_cr=4\n"
                   "transactions_run=9\n"
                   "counter.motion.useful=3\n");

  Function G("other");
  PipelineStats Back;
  ASSERT_TRUE(DiskScheduleCache::deserializeEntry(Bytes, Key, G, Back)
                  .isOk());
  EXPECT_EQ(functionToString(G), functionToString(F));
  EXPECT_EQ(Back.Global.RegionsScheduled, 2u);
  EXPECT_EQ(Back.LoopsRotated, 1u);
  EXPECT_EQ(Back.PressurePeak[2], 4u);
  EXPECT_EQ(Back.TransactionsRun, 9u);
  EXPECT_EQ(Back.Counters.get(obs::MotionUseful), 3u);
}

TEST(DiskCacheTest, EntriesWithDiagnosticsAreNeverPersisted) {
  // Replaying an entry cannot resurrect its diagnostics faithfully, so
  // such results must stay out of the disk tier entirely.
  TempDir D("gis-disk");
  DiskScheduleCache Cache(D.Path);
  ASSERT_TRUE(Cache.open().isOk());
  auto M = compileMiniCOrDie(kSource);
  Function &F = *M->functions()[0];
  PipelineStats Stats;
  Stats.Diags.push_back(Diagnostic{});
  Cache.insert(hashKey128("diag"), F, Stats);
  EXPECT_EQ(Cache.stats().Inserts, 0u);
  EXPECT_EQ(countEntries(D.Path), 0u);
}

//===----------------------------------------------------------------------===
// Concurrency: engines sharing one directory
//===----------------------------------------------------------------------===

// A schedule whose registers run past the IR parser's cap -- an input at
// Reg::MaxParsedIndex plus the pipeline's fresh registers -- is served but
// not written to the disk tier, whose reader could never parse it back.
TEST(DiskCacheTest, UnparseableRegistersAreNeverPersisted) {
  TempDir D("gis-disk");
  auto M = parseModuleOrDie("func main {\n"
                            "B0:\n"
                            "  LI r16777215 = 1\n"
                            "  LI r2 = 5\n"
                            "  A r3 = r2, r16777215\n"
                            "  LI r2 = 7\n"
                            "  A r4 = r2, r3\n"
                            "  RET r4\n"
                            "}\n");
  EngineOptions EOpts;
  EOpts.Jobs = 1;
  EOpts.CacheDir = D.Path;
  CompileEngine Engine(MachineDescription::rs6k(), PipelineOptions{}, EOpts);
  EngineReport R = Engine.compile(*M);
  ASSERT_GT(M->functions()[0]->numRegs(RegClass::GPR),
            Reg::MaxParsedIndex + 1);
  EXPECT_EQ(R.Disk.Inserts, 0u);
  EXPECT_EQ(countEntries(D.Path), 0u);
  EXPECT_FALSE(R.Disk.Degraded);
}

TEST(DiskCacheTest, ConcurrentEnginesShareOneDirectorySafely) {
  // Two engines (as two daemon processes would) compile overlapping
  // workloads against the same cache directory: unique temp names plus
  // atomic rename mean last-writer-wins on identical bytes, and nobody
  // ever reads a partial entry.  Run under TSan via the "persist" label.
  TempDir D("gis-disk");
  std::vector<std::string> Sources;
  for (unsigned K = 0; K != 6; ++K)
    Sources.push_back(generateRandomMiniC(500 + K));

  auto Work = [&](unsigned Offset) {
    for (unsigned Round = 0; Round != 2; ++Round)
      for (unsigned K = 0; K != Sources.size(); ++K)
        runOnce(Sources[(K + Offset) % Sources.size()], D.Path);
  };
  std::thread A(Work, 0), B(Work, 3);
  A.join();
  B.join();

  // One entry per *function* (main plus helpers), all sound.
  EXPECT_GE(countEntries(D.Path), Sources.size());
  EXPECT_EQ(countQuarantined(D.Path), 0u);
  // Every entry is sound: a fresh engine hits all of them.
  for (const std::string &S : Sources) {
    RunResult R = runOnce(S, D.Path);
    EXPECT_GT(R.Report.DiskHits, 0u);
    EXPECT_EQ(R.Report.Disk.Quarantines, 0u);
  }
}

} // namespace
