//===- obs/StatsJson.cpp - Machine-readable statistics ---------------------===//

#include "obs/StatsJson.h"

#include "engine/CompileEngine.h"
#include "obs/Counters.h"
#include "sched/Pipeline.h"

#include <ostream>

using namespace gis;
using namespace gis::obs;

namespace {

void writeJsonString(std::ostream &OS, std::string_view S) {
  OS << '"';
  for (char C : S) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        const char *Hex = "0123456789abcdef";
        OS << "\\u00" << Hex[(C >> 4) & 0xf] << Hex[C & 0xf];
      } else {
        OS << C;
      }
    }
  }
  OS << '"';
}

/// Comma-managed emission of one JSON object's fields.
class ObjectWriter {
public:
  ObjectWriter(std::ostream &OS, const char *Indent) : OS(OS), Ind(Indent) {}

  std::ostream &key(std::string_view K) {
    if (!First)
      OS << ",";
    First = false;
    OS << "\n" << Ind;
    writeJsonString(OS, K);
    OS << ": ";
    return OS;
  }
  /// Kept out of line: the table writers expand to one call per row.
  [[gnu::noinline]] void field(std::string_view K, uint64_t V) {
    key(K) << V;
  }
  void fieldF(std::string_view K, double V) { key(K) << V; }
  void fieldStr(std::string_view K, std::string_view V) {
    writeJsonString(key(K), V);
  }
  void fieldBool(std::string_view K, bool V) {
    key(K) << (V ? "true" : "false");
  }

private:
  std::ostream &OS;
  const char *Ind;
  bool First = true;
};

} // namespace

void obs::writeCountersJson(std::ostream &OS, const CounterSet &C,
                            const char *Indent) {
  OS << "{";
  ObjectWriter W(OS, Indent);
  for (unsigned K = 0; K != NumCounters; ++K)
    W.field(counterKey(static_cast<CounterId>(K)),
            C.get(static_cast<CounterId>(K)));
  OS << "\n" << (Indent + 2) << "}";
}

void obs::writePipelineJson(std::ostream &OS, const PipelineStats &S,
                            const char *Indent, bool WithRecordCounts) {
  OS << "{";
  ObjectWriter W(OS, Indent);
  forEachStatsScalar(
      [&W](const StatsScalar &R, const unsigned &V) { W.field(R.JsonKey, V); },
      S);
  if (WithRecordCounts) {
    W.field("diagnostics", static_cast<uint64_t>(S.Diags.size()));
    W.field("decisions", static_cast<uint64_t>(S.Decisions.size()));
  }
  OS << "\n" << (Indent + 2) << "}";
}

void obs::writePipelineStatsJson(std::ostream &OS, const PipelineStats &S,
                                 const ProfileData *Profile,
                                 const Function *ProfiledEntry) {
  OS << "{\n  \"schema\": \"gis-stats-v2\",\n  \"pipeline\": ";
  writePipelineJson(OS, S, "    ");
  OS << ",\n  \"counters\": ";
  writeCountersJson(OS, S.Counters, "    ");
  if (Profile && ProfiledEntry && Profile->hasFunction(ProfiledEntry->name())) {
    const Function &F = *ProfiledEntry;
    OS << ",\n  \"profile\": {\n    \"function\": ";
    writeJsonString(OS, F.name());
    OS << ",\n    \"blocks\": [";
    for (BlockId B = 0; B != F.numBlocks(); ++B)
      OS << (B ? ", " : "") << Profile->frequency(F, B);
    OS << "],\n    \"edges\": [";
    bool FirstEdge = true;
    for (const auto &[Key, Count] : Profile->edges(F.name())) {
      OS << (FirstEdge ? "" : ", ") << "{\"from\": " << (Key >> 32)
         << ", \"to\": " << (Key & 0xffffffffu) << ", \"count\": " << Count
         << "}";
      FirstEdge = false;
    }
    OS << "]\n  }";
  }
  OS << "\n}\n";
}

void obs::writeEngineReportJson(std::ostream &OS, const EngineReport &R) {
  OS << "{\n  \"schema\": \"gis-engine-stats-v2\",\n  \"engine\": {";
  {
    ObjectWriter W(OS, "    ");
    W.field("threads", static_cast<uint64_t>(R.Threads));
    W.field("functions_compiled", static_cast<uint64_t>(R.FunctionsCompiled));
    W.field("cache_hits", R.CacheHits);
    W.field("cache_misses", R.CacheMisses);
    W.field("disk_hits", R.DiskHits);
    W.field("disk_misses", R.DiskMisses);
    W.fieldF("wall_seconds", R.WallSeconds);
    W.fieldF("total_queue_wait_seconds", R.TotalQueueWaitSeconds);
    W.fieldF("total_compile_seconds", R.TotalCompileSeconds);
  }
  // Memory-tier view with per-shard occupancy/evictions, so hit
  // attribution between the tiers is debuggable from the JSON alone.
  OS << "\n  },\n  \"cache\": {";
  {
    ObjectWriter W(OS, "    ");
    W.field("size", R.MemCacheSize);
    W.field("capacity", R.MemCacheCapacity);
    W.field("hits", R.MemCache.Hits);
    W.field("misses", R.MemCache.Misses);
    W.field("insertions", R.MemCache.Insertions);
    W.field("evictions", R.MemCache.Evictions);
    W.key("shards") << "[";
    for (size_t K = 0; K != R.MemShards.size(); ++K)
      OS << (K ? ", " : "") << "{\"entries\": " << R.MemShards[K].Entries
         << ", \"evictions\": " << R.MemShards[K].Evictions << "}";
    OS << "]";
  }
  OS << "\n  },\n  \"persist\": {";
  {
    ObjectWriter W(OS, "    ");
    W.fieldBool("enabled", R.DiskEnabled);
    W.fieldBool("degraded", R.Disk.Degraded);
    W.field("disk_hits", R.Disk.Hits);
    W.field("disk_misses", R.Disk.Misses);
    W.field("inserts", R.Disk.Inserts);
    W.field("quarantines", R.Disk.Quarantines);
    W.field("write_failures", R.Disk.WriteFailures);
    W.field("read_failures", R.Disk.ReadFailures);
    W.field("evictions", R.Disk.Evictions);
  }
  OS << "\n  },\n  \"pipeline\": ";
  writePipelineJson(OS, R.Aggregate, "    ");
  OS << ",\n  \"counters\": ";
  writeCountersJson(OS, R.Aggregate.Counters, "    ");
  OS << ",\n  \"per_function\": [";
  for (size_t K = 0; K != R.PerFunction.size(); ++K) {
    const FunctionCompileResult &F = R.PerFunction[K];
    OS << (K ? ",\n    {" : "\n    {");
    ObjectWriter W(OS, "      ");
    W.fieldStr("item", F.Item);
    W.fieldStr("function", F.Function);
    W.fieldBool("cache_hit", F.CacheHit);
    W.fieldBool("disk_hit", F.DiskHit);
    W.fieldF("compile_seconds", F.CompileSeconds);
    OS << "\n    }";
  }
  OS << (R.PerFunction.empty() ? "]" : "\n  ]") << "\n}\n";
}
