//===- persist/DiskCache.cpp - Crash-safe persistent schedule cache --------===//

#include "persist/DiskCache.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "persist/PersistIO.h"
#include "support/Diagnostics.h"
#include "support/Format.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <unordered_map>

using namespace gis;
using namespace gis::persist;

namespace {

constexpr std::string_view Magic = "GIS-SCHED-CACHE";

/// The 32 lowercase hex digits of \p K (Hi first), written into \p Buf.
std::string_view hexKey(const Key128 &K, std::array<char, 32> &Buf) {
  static constexpr char Digits[] = "0123456789abcdef";
  size_t N = 0;
  for (uint64_t Word : {K.Hi, K.Lo})
    for (int Shift = 60; Shift >= 0; Shift -= 4)
      Buf[N++] = Digits[(Word >> Shift) & 0xf];
  return std::string_view(Buf.data(), Buf.size());
}

void appendHexKey(std::string &Out, const Key128 &K) {
  std::array<char, 32> Buf;
  Out += hexKey(K, Buf);
}

/// One "key=value" line per nonzero scalar (PipelineStats's scalar table,
/// under its disk keys), then per nonzero counter.  Every scalar is
/// persisted -- the region-task count included -- plus the counter
/// registry.  Not persisted: the per-region wall-clock timings, which a
/// disk hit did not spend, and diagnostics and decision logs, payloads a
/// hit cannot replay faithfully (DiskScheduleCache::insert writes no entry
/// for a run that has them).
void appendStats(std::string &Out, const PipelineStats &S) {
  auto Put = [&Out](std::string_view Key, uint64_t V) {
    if (!V) // sparse: most fields are zero for most functions
      return;
    Out += Key;
    Out += '=';
    appendUInt(Out, V);
    Out += '\n';
  };
  forEachStatsScalar(
      [&Put](const StatsScalar &R, const unsigned &V) { Put(R.DiskKey, V); },
      S);
  for (unsigned K = 0; K != obs::NumCounters; ++K) {
    auto Id = static_cast<obs::CounterId>(K);
    if (uint64_t V = S.Counters.get(Id)) {
      Out += "counter.";
      Put(obs::counterKey(Id), V);
    }
  }
}

/// The slot of every stats-block key: the scalars in table order, then the
/// counters by id.
class StatsKeyTable {
public:
  static constexpr unsigned NumSlots = NumStatsScalars + obs::NumCounters;

  StatsKeyTable() {
    unsigned Slot = 0;
    forEachStatsScalar(
        [&](const StatsScalar &R) { Slots.emplace(R.DiskKey, Slot++); });
    CounterKeys.reserve(obs::NumCounters);
    for (unsigned K = 0; K != obs::NumCounters; ++K)
      CounterKeys.push_back(
          "counter." +
          std::string(obs::counterKey(static_cast<obs::CounterId>(K))));
    for (unsigned K = 0; K != obs::NumCounters; ++K)
      Slots.emplace(CounterKeys[K], NumStatsScalars + K);
  }

  /// The slot of \p Key, or NumSlots for a key no field carries.
  unsigned slot(std::string_view Key) const {
    auto It = Slots.find(Key);
    return It == Slots.end() ? NumSlots : It->second;
  }

private:
  std::vector<std::string> CounterKeys; ///< owns the counters' keys
  std::unordered_map<std::string_view, unsigned> Slots;
};

/// Splits off the line of \p Text starting at \p Pos (without its '\n');
/// false when no '\n' ends it.
bool nextLine(std::string_view Text, size_t &Pos, std::string_view &Line) {
  size_t NL = Text.find('\n', Pos);
  if (NL == std::string_view::npos)
    return false;
  Line = Text.substr(Pos, NL - Pos);
  Pos = NL + 1;
  return true;
}

/// A whole-string unsigned decimal; false on anything else or overflow.
template <typename IntT> bool parseDecimal(std::string_view S, IntT &Out) {
  auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), Out);
  return Ec == std::errc() && End == S.data() + S.size();
}

bool parseStats(std::string_view Text, PipelineStats &S) {
  static const StatsKeyTable Keys;
  // Value and presence per slot, plus one slot for unknown keys; the first
  // line of a key wins.
  std::array<uint64_t, StatsKeyTable::NumSlots + 1> Values{};
  std::array<bool, StatsKeyTable::NumSlots + 1> Seen{};
  for (size_t Pos = 0; Pos < Text.size();) {
    size_t NL = Text.find('\n', Pos);
    size_t End = NL == std::string_view::npos ? Text.size() : NL;
    std::string_view Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Line.empty())
      continue;
    size_t Eq = Line.find('=');
    if (Eq == std::string_view::npos)
      return false;
    uint64_t V = 0;
    if (!parseDecimal(Line.substr(Eq + 1), V))
      return false;
    unsigned Slot = Keys.slot(Line.substr(0, Eq));
    if (!Seen[Slot]) {
      Seen[Slot] = true;
      Values[Slot] = V;
    }
  }
  unsigned Slot = 0;
  forEachStatsScalar(
      [&](const StatsScalar &, unsigned &Field) {
        Field = static_cast<unsigned>(Values[Slot++]);
      },
      S);
  for (unsigned K = 0; K != obs::NumCounters; ++K)
    if (uint64_t V = Values[NumStatsScalars + K])
      S.Counters.bump(static_cast<obs::CounterId>(K), V);
  return true;
}

Status corrupt(const std::string &Reason, const std::string &Detail) {
  return Status::error(ErrorCode::CacheEntryCorrupt, Reason + ": " + Detail);
}

/// The first two whitespace-separated words of a header line.
std::pair<std::string_view, std::string_view> headerWords(
    std::string_view Line) {
  auto Word = [&Line]() {
    size_t Start = 0;
    while (Start < Line.size() && isAsciiSpace(Line[Start]))
      ++Start;
    size_t End = Start;
    while (End < Line.size() && !isAsciiSpace(Line[End]))
      ++End;
    std::string_view W = Line.substr(Start, End - Start);
    Line.remove_prefix(End);
    return W;
  };
  std::string_view First = Word();
  return {First, Word()};
}

} // namespace

std::string DiskScheduleCache::entryFileName(const Key128 &Key) {
  std::string Name;
  appendHexKey(Name, Key);
  Name += ".gse";
  return Name;
}

std::string DiskScheduleCache::serializeEntry(const Key128 &Key,
                                              const Function &F,
                                              const PipelineStats &Stats,
                                              unsigned Version) {
  std::string Payload = functionToString(F);
  const size_t IrLen = Payload.size();
  appendStats(Payload, Stats);
  const Key128 Sum = hashKey128(Payload);

  std::string Out;
  Out.reserve(Payload.size() + 160);
  Out += Magic;
  Out += ' ';
  appendUInt(Out, Version);
  Out += "\nkey ";
  appendHexKey(Out, Key);
  Out += "\nir ";
  appendUInt(Out, IrLen);
  Out += "\nstats ";
  appendUInt(Out, Payload.size() - IrLen);
  Out += "\nsum ";
  appendHexKey(Out, Sum);
  Out += "\n\n";
  Out += Payload;
  return Out;
}

Status DiskScheduleCache::deserializeEntry(const std::string &Bytes,
                                           const Key128 &Key, Function &F,
                                           PipelineStats &Stats) {
  const std::string_view In(Bytes);
  size_t Pos = 0;
  std::string_view Line;

  // Header line 1: magic + version.
  if (!nextLine(In, Pos, Line))
    return corrupt("short", "no header");
  {
    auto [M, VersionText] = headerWords(Line);
    unsigned V = 0;
    if (M != Magic || !parseDecimal(VersionText, V))
      return corrupt("magic", "bad magic line '" + std::string(Line) + "'");
    if (V != DiskCacheFormatVersion)
      return corrupt("version", "entry version " + std::to_string(V) +
                                    ", expected " +
                                    std::to_string(DiskCacheFormatVersion));
  }

  // Header lines 2-5: key, ir length, stats length, checksum.
  std::string_view KeyHex, SumHex;
  size_t IrLen = 0, StLen = 0;
  for (std::string_view Want : {"key", "ir", "stats", "sum"}) {
    if (!nextLine(In, Pos, Line))
      return corrupt("short", "truncated header");
    auto [Tag, Value] = headerWords(Line);
    if (Tag != Want)
      return corrupt("header", "expected '" + std::string(Want) +
                                   "', got '" + std::string(Line) + "'");
    bool Ok = !Value.empty();
    if (Tag == "key")
      KeyHex = Value;
    else if (Tag == "ir")
      Ok = parseDecimal(Value, IrLen);
    else if (Tag == "stats")
      Ok = parseDecimal(Value, StLen);
    else
      SumHex = Value;
    if (!Ok)
      return corrupt("header", "malformed '" + std::string(Line) + "'");
  }
  if (!nextLine(In, Pos, Line) || !Line.empty())
    return corrupt("header", "missing blank separator");

  std::array<char, 32> Hex;
  if (KeyHex != hexKey(Key, Hex))
    return corrupt("key-mismatch", "entry for key " + std::string(KeyHex));
  const std::string_view Payload = In.substr(Pos);
  if (IrLen > Payload.size() || Payload.size() - IrLen != StLen)
    return corrupt("short", "payload " + std::to_string(Payload.size()) +
                                " bytes, declared " +
                                std::to_string(IrLen + StLen));

  if (hexKey(hashKey128(Payload), Hex) != SumHex)
    return corrupt("checksum", "payload checksum mismatch");

  ParseResult R = parseModule(Payload.substr(0, IrLen));
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

  F = std::move(*R.M->functions().front());
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
  // Nor are functions with a register index the IR parser refuses (above
  // Reg::MaxParsedIndex): their entry could never be read back.
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    if (F.numRegs(C) > Reg::MaxParsedIndex + 1)
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
