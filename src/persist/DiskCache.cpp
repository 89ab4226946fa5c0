//===- persist/DiskCache.cpp - Crash-safe persistent schedule cache --------===//

#include "persist/DiskCache.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "persist/PersistIO.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

using namespace gis;
using namespace gis::persist;

namespace {

constexpr char Magic[] = "GIS-SCHED-CACHE";

std::string hexKey(const Key128 &K) {
  char Buf[33];
  std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                static_cast<unsigned long long>(K.Hi),
                static_cast<unsigned long long>(K.Lo));
  return Buf;
}

/// The persisted subset of PipelineStats: every scalar --stats/--stats-json
/// reports, plus the counter registry.  Deliberately not persisted --
/// diagnostics, decision logs and per-region wall-clock timings -- are
/// payloads a disk hit cannot replay faithfully; entries carrying them are
/// never written (see DiskScheduleCache::insert).
std::string serializeStats(const PipelineStats &S) {
  std::ostringstream OS;
  auto Put = [&OS](const char *K, uint64_t V) {
    if (V) // sparse: most fields are zero for most functions
      OS << K << "=" << V << "\n";
  };
  Put("global.regions_scheduled", S.Global.RegionsScheduled);
  Put("global.blocks_scheduled", S.Global.BlocksScheduled);
  Put("global.useful_motions", S.Global.UsefulMotions);
  Put("global.speculative_motions", S.Global.SpeculativeMotions);
  Put("global.renames", S.Global.Renames);
  Put("global.vetoed_speculations", S.Global.VetoedSpeculations);
  Put("local.blocks_scheduled", S.Local.BlocksScheduled);
  Put("local.blocks_reordered", S.Local.BlocksReordered);
  Put("local.blocks_failed", S.Local.BlocksFailed);
  Put("loops_unrolled", S.LoopsUnrolled);
  Put("loops_rotated", S.LoopsRotated);
  Put("prerenamed_defs", S.PreRenamedDefs);
  Put("regions_skipped_by_size", S.RegionsSkippedBySize);
  Put("functions_skipped_irreducible", S.FunctionsSkippedIrreducible);
  Put("pressure_peak_gpr", S.PressurePeak[0]);
  Put("pressure_peak_fpr", S.PressurePeak[1]);
  Put("pressure_peak_cr", S.PressurePeak[2]);
  Put("regalloc.intervals", S.RegAlloc.IntervalsBuilt);
  Put("regalloc.spilled_intervals", S.RegAlloc.IntervalsSpilled);
  Put("regalloc.spill_stores", S.RegAlloc.SpillStores);
  Put("regalloc.spill_reloads", S.RegAlloc.SpillReloads);
  Put("regalloc.spill_slots", S.RegAlloc.SpillSlots);
  Put("regalloc.failures", S.RegAllocFailures);
  Put("region_waves", S.RegionWaves);
  Put("opt.passes_run", S.Opt.PassesRun);
  Put("opt.peephole_rewrites", S.Opt.PeepholeRewrites);
  Put("opt.strength_reduced", S.Opt.StrengthReduced);
  Put("opt.values_numbered", S.Opt.ValuesNumbered);
  Put("opt.dce_removed", S.Opt.DeadRemoved);
  Put("transactions_run", S.TransactionsRun);
  Put("regions_rolled_back", S.RegionsRolledBack);
  Put("transforms_rolled_back", S.TransformsRolledBack);
  Put("verifier_failures", S.VerifierFailures);
  Put("oracle_mismatches", S.OracleMismatches);
  Put("engine_failures", S.EngineFailures);
  Put("faults_injected", S.FaultsInjected);
  for (unsigned K = 0; K != obs::NumCounters; ++K) {
    auto Id = static_cast<obs::CounterId>(K);
    if (uint64_t V = S.Counters.get(Id))
      OS << "counter." << obs::counterKey(Id) << "=" << V << "\n";
  }
  return OS.str();
}

bool parseStats(const std::string &Text, PipelineStats &S) {
  std::unordered_map<std::string, uint64_t> KV;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos)
      return false;
    errno = 0;
    char *End = nullptr;
    unsigned long long V = std::strtoull(Line.c_str() + Eq + 1, &End, 10);
    if (errno != 0 || End == Line.c_str() + Eq + 1 || *End != '\0')
      return false;
    KV.emplace(Line.substr(0, Eq), V);
  }
  auto Get = [&KV](const char *K) -> uint64_t {
    auto It = KV.find(K);
    return It == KV.end() ? 0 : It->second;
  };
  auto GetU = [&Get](const char *K) {
    return static_cast<unsigned>(Get(K));
  };
  S.Global.RegionsScheduled = GetU("global.regions_scheduled");
  S.Global.BlocksScheduled = GetU("global.blocks_scheduled");
  S.Global.UsefulMotions = GetU("global.useful_motions");
  S.Global.SpeculativeMotions = GetU("global.speculative_motions");
  S.Global.Renames = GetU("global.renames");
  S.Global.VetoedSpeculations = GetU("global.vetoed_speculations");
  S.Local.BlocksScheduled = GetU("local.blocks_scheduled");
  S.Local.BlocksReordered = GetU("local.blocks_reordered");
  S.Local.BlocksFailed = GetU("local.blocks_failed");
  S.LoopsUnrolled = GetU("loops_unrolled");
  S.LoopsRotated = GetU("loops_rotated");
  S.PreRenamedDefs = GetU("prerenamed_defs");
  S.RegionsSkippedBySize = GetU("regions_skipped_by_size");
  S.FunctionsSkippedIrreducible = GetU("functions_skipped_irreducible");
  S.PressurePeak[0] = GetU("pressure_peak_gpr");
  S.PressurePeak[1] = GetU("pressure_peak_fpr");
  S.PressurePeak[2] = GetU("pressure_peak_cr");
  S.RegAlloc.IntervalsBuilt = GetU("regalloc.intervals");
  S.RegAlloc.IntervalsSpilled = GetU("regalloc.spilled_intervals");
  S.RegAlloc.SpillStores = GetU("regalloc.spill_stores");
  S.RegAlloc.SpillReloads = GetU("regalloc.spill_reloads");
  S.RegAlloc.SpillSlots = GetU("regalloc.spill_slots");
  S.RegAllocFailures = GetU("regalloc.failures");
  S.RegionWaves = GetU("region_waves");
  S.Opt.PassesRun = GetU("opt.passes_run");
  S.Opt.PeepholeRewrites = GetU("opt.peephole_rewrites");
  S.Opt.StrengthReduced = GetU("opt.strength_reduced");
  S.Opt.ValuesNumbered = GetU("opt.values_numbered");
  S.Opt.DeadRemoved = GetU("opt.dce_removed");
  S.TransactionsRun = GetU("transactions_run");
  S.RegionsRolledBack = GetU("regions_rolled_back");
  S.TransformsRolledBack = GetU("transforms_rolled_back");
  S.VerifierFailures = GetU("verifier_failures");
  S.OracleMismatches = GetU("oracle_mismatches");
  S.EngineFailures = GetU("engine_failures");
  S.FaultsInjected = GetU("faults_injected");
  for (unsigned K = 0; K != obs::NumCounters; ++K) {
    auto Id = static_cast<obs::CounterId>(K);
    std::string CK = "counter." + std::string(obs::counterKey(Id));
    if (uint64_t V = Get(CK.c_str()))
      S.Counters.bump(Id, V);
  }
  return true;
}

Status corrupt(const std::string &Reason, const std::string &Detail) {
  return Status::error(ErrorCode::CacheEntryCorrupt, Reason + ": " + Detail);
}

/// Reads one "\n"-terminated header line from \p Bytes at \p Pos.
bool nextLine(const std::string &Bytes, size_t &Pos, std::string &Line) {
  size_t NL = Bytes.find('\n', Pos);
  if (NL == std::string::npos)
    return false;
  Line = Bytes.substr(Pos, NL - Pos);
  Pos = NL + 1;
  return true;
}

} // namespace

std::string DiskScheduleCache::entryFileName(const Key128 &Key) {
  return hexKey(Key) + ".gse";
}

std::string DiskScheduleCache::serializeEntry(const Key128 &Key,
                                              const Function &F,
                                              const PipelineStats &Stats,
                                              unsigned Version) {
  std::string Ir = functionToString(F);
  std::string St = serializeStats(Stats);
  Key128 Sum = hashKey128(Ir + St);
  std::ostringstream OS;
  OS << Magic << " " << Version << "\n"
     << "key " << hexKey(Key) << "\n"
     << "ir " << Ir.size() << "\n"
     << "stats " << St.size() << "\n"
     << "sum " << hexKey(Sum) << "\n\n"
     << Ir << St;
  return OS.str();
}

Status DiskScheduleCache::deserializeEntry(const std::string &Bytes,
                                           const Key128 &Key, Function &F,
                                           PipelineStats &Stats) {
  size_t Pos = 0;
  std::string Line;

  // Header line 1: magic + version.
  if (!nextLine(Bytes, Pos, Line))
    return corrupt("short", "no header");
  {
    std::istringstream H(Line);
    std::string M;
    unsigned V = 0;
    if (!(H >> M >> V) || M != Magic)
      return corrupt("magic", "bad magic line '" + Line + "'");
    if (V != DiskCacheFormatVersion)
      return corrupt("version", "entry version " + std::to_string(V) +
                                    ", expected " +
                                    std::to_string(DiskCacheFormatVersion));
  }

  // Header lines 2-5: key, ir length, stats length, checksum.
  std::string KeyHex, SumHex;
  size_t IrLen = 0, StLen = 0;
  for (const char *Want : {"key", "ir", "stats", "sum"}) {
    if (!nextLine(Bytes, Pos, Line))
      return corrupt("short", "truncated header");
    std::istringstream H(Line);
    std::string Tag;
    H >> Tag;
    if (Tag != Want)
      return corrupt("header", "expected '" + std::string(Want) +
                                   "', got '" + Line + "'");
    if (Tag == "key")
      H >> KeyHex;
    else if (Tag == "ir")
      H >> IrLen;
    else if (Tag == "stats")
      H >> StLen;
    else
      H >> SumHex;
    if (!H)
      return corrupt("header", "malformed '" + Line + "'");
  }
  if (!nextLine(Bytes, Pos, Line) || !Line.empty())
    return corrupt("header", "missing blank separator");

  if (KeyHex != hexKey(Key))
    return corrupt("key-mismatch", "entry for key " + KeyHex);
  if (Bytes.size() - Pos != IrLen + StLen)
    return corrupt("short", "payload " +
                                std::to_string(Bytes.size() - Pos) +
                                " bytes, declared " +
                                std::to_string(IrLen + StLen));

  std::string Payload = Bytes.substr(Pos);
  if (hexKey(hashKey128(Payload)) != SumHex)
    return corrupt("checksum", "payload checksum mismatch");

  std::string Ir = Payload.substr(0, IrLen);
  ParseResult R = parseModule(Ir);
  if (!R.ok())
    return corrupt("parse", "line " + std::to_string(R.Line) + ": " +
                                R.Error);
  if (R.M->functions().size() != 1)
    return corrupt("parse", "entry holds " +
                                std::to_string(R.M->functions().size()) +
                                " functions, expected 1");

  PipelineStats Parsed;
  if (!parseStats(Payload.substr(IrLen), Parsed))
    return corrupt("parse", "malformed stats block");

  F = *R.M->functions().front();
  Stats += Parsed;
  return Status::ok();
}

DiskScheduleCache::DiskScheduleCache(std::string Dir, uint64_t MaxBytes)
    : Dir(std::move(Dir)), MaxBytes(MaxBytes) {}

Status DiskScheduleCache::open() {
  Status S = ensureDir(Dir);
  if (S.isOk())
    S = probeWritable(Dir);
  std::lock_guard<std::mutex> L(Mu);
  Opened = true;
  Degraded = !S.isOk();
  Counts.Degraded = Degraded;
  if (!S.isOk())
    reportDiagnostic(Diags, S, "<cache>", "persist-open", -1);
  return S;
}

bool DiskScheduleCache::usable() const {
  std::lock_guard<std::mutex> L(Mu);
  return Opened && !Degraded;
}

void DiskScheduleCache::degrade(const Status &Why, const char *Op) {
  std::lock_guard<std::mutex> L(Mu);
  if (!Degraded) {
    Degraded = true;
    Counts.Degraded = true;
    reportDiagnostic(Diags, Why, "<cache>", Op, -1);
  }
}

void DiskScheduleCache::quarantine(const std::string &FileName,
                                   const std::string &Reason,
                                   const std::string &Detail) {
  quarantineFile(Dir, FileName, Reason);
  std::lock_guard<std::mutex> L(Mu);
  ++Counts.Quarantines;
  reportDiagnostic(Diags, corrupt(Reason, Detail), "<cache>",
                   "persist-quarantine", -1);
}

bool DiskScheduleCache::lookup(const Key128 &Key, Function &F,
                               PipelineStats &Stats) {
  if (!usable())
    return false;
  std::string FileName = entryFileName(Key);
  std::string Bytes;
  bool Exists = false;
  Status S = readFile(Dir + "/" + FileName, Bytes, Exists);
  if (!S.isOk()) {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Counts.ReadFailures;
      ++Counts.Misses;
    }
    degrade(S, "persist-read");
    return false;
  }
  if (!Exists) {
    std::lock_guard<std::mutex> L(Mu);
    ++Counts.Misses;
    return false;
  }
  S = deserializeEntry(Bytes, Key, F, Stats);
  if (!S.isOk()) {
    // Reason tag = text before the first ':' of the message.
    std::string Msg = S.message();
    size_t Colon = Msg.find(':');
    quarantine(FileName,
               Colon == std::string::npos ? "corrupt" : Msg.substr(0, Colon),
               Msg);
    std::lock_guard<std::mutex> L(Mu);
    ++Counts.Misses;
    return false;
  }
  std::lock_guard<std::mutex> L(Mu);
  ++Counts.Hits;
  return true;
}

void DiskScheduleCache::insert(const Key128 &Key, const Function &F,
                               const PipelineStats &Stats) {
  if (!usable())
    return;
  // Results carrying diagnostics or decision logs are not persisted: the
  // stats block cannot replay them, and a cache hit that silently drops a
  // diagnostic would violate the engine's faithful-replay contract.
  if (!Stats.Diags.empty() || !Stats.Decisions.empty())
    return;
  std::string Bytes = serializeEntry(Key, F, Stats);
  Status S = atomicWriteFile(Dir, entryFileName(Key), Bytes);
  if (!S.isOk()) {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Counts.WriteFailures;
    }
    degrade(S, "persist-write");
    return;
  }
  {
    std::lock_guard<std::mutex> L(Mu);
    ++Counts.Inserts;
  }
  if (MaxBytes)
    enforceSizeBound(entryFileName(Key));
}

void DiskScheduleCache::enforceSizeBound(const std::string &JustPublished) {
  std::vector<DirEntryInfo> Entries = listFilesWithSuffix(Dir, ".gse");
  uint64_t Total = 0;
  for (const DirEntryInfo &E : Entries)
    Total += E.SizeBytes;
  if (Total <= MaxBytes)
    return;
  // Oldest first; name as the tie-break so the victim order is
  // deterministic when mtimes collide (coarse filesystem clocks).
  std::sort(Entries.begin(), Entries.end(),
            [](const DirEntryInfo &A, const DirEntryInfo &B) {
              if (A.MTimeSec != B.MTimeSec)
                return A.MTimeSec < B.MTimeSec;
              if (A.MTimeNsec != B.MTimeNsec)
                return A.MTimeNsec < B.MTimeNsec;
              return A.Name < B.Name;
            });
  uint64_t Evicted = 0;
  for (const DirEntryInfo &E : Entries) {
    if (Total <= MaxBytes)
      break;
    if (E.Name == JustPublished)
      continue; // the bound never evicts the entry that triggered it
    // Count only removals this process performed: a concurrent evictor may
    // have won the race, and the entry is gone either way.
    if (removeFile(Dir + "/" + E.Name))
      ++Evicted;
    Total -= E.SizeBytes;
  }
  if (Evicted) {
    std::lock_guard<std::mutex> L(Mu);
    Counts.Evictions += Evicted;
  }
}

DiskCacheStats DiskScheduleCache::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return Counts;
}

std::vector<Diagnostic> DiskScheduleCache::diagnostics() const {
  std::lock_guard<std::mutex> L(Mu);
  return Diags;
}
