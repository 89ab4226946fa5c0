//===- engine/ScheduleCache.cpp - Content-addressed schedule cache ---------===//

#include "engine/ScheduleCache.h"

#include "ir/Printer.h"
#include "machine/MachineDescription.h"

using namespace gis;

uint64_t gis::fingerprintMachine(const MachineDescription &MD) {
  HashBuilder H;
  H.addString(MD.name());
  // Register-file sizes: an allocating run's output depends on them, so
  // two machines differing only in --regs-gpr must never share entries
  // (asserted by tests/regalloc_test.cpp).
  for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
    H.addU32(MD.numRegs(C));
  H.addU32(MD.numUnitTypes());
  for (unsigned T = 0; T != MD.numUnitTypes(); ++T) {
    const UnitType &U = MD.unitType(T);
    H.addString(U.Name);
    H.addU32(U.Count);
  }
  for (unsigned Op = 0; Op != NumOpcodes; ++Op) {
    Opcode O = static_cast<Opcode>(Op);
    H.addU32(MD.unitTypeForOp(O));
    H.addU32(MD.execTime(O));
  }
  // Delay rules have no accessor; their effect is fully captured by the
  // pairwise flowDelay matrix, which is also order-insensitive where the
  // rule list is not.
  for (unsigned P = 0; P != NumOpcodes; ++P)
    for (unsigned C = 0; C != NumOpcodes; ++C) {
      unsigned D = MD.flowDelay(static_cast<Opcode>(P),
                                static_cast<Opcode>(C));
      if (D)
        H.addU32(P).addU32(C).addU32(D);
    }
  return H.hash();
}

uint64_t gis::fingerprintOptions(const PipelineOptions &Opts) {
  HashBuilder H;
  H.addU32(static_cast<uint32_t>(Opts.Level));
  H.addU32(Opts.MaxSpecDepth);
  H.addBool(Opts.EnableRenaming);
  H.addBool(Opts.EnablePreRenaming);
  H.addU32(static_cast<uint32_t>(Opts.Order));
  H.addBool(Opts.Profile != nullptr);
  H.addBool(Opts.EnableUnroll);
  H.addBool(Opts.EnableRotate);
  H.addU32(Opts.UnrollMaxBlocks);
  H.addU32(Opts.RotateMaxBlocks);
  H.addU32(Opts.RegionBlockLimit);
  H.addU32(Opts.RegionInstrLimit);
  H.addBool(Opts.OnlyTwoInnerLevels);
  H.addBool(Opts.RunLocalScheduler);
  // Superblock formation rewrites the CFG (tail duplication) and
  // reschedules the hot chains, so every knob that steers it splits the
  // cache -- in the memory tier and the shared on-disk tier alike
  // (asserted by tests/superblock_test.cpp).
  H.addBool(Opts.EnableSuperblocks);
  H.addU32(Opts.TraceMaxBlocks);
  H.addU32(Opts.TraceDupBudget);
  H.addBool(Opts.EnableTransactions);
  H.addBool(Opts.VerifyStructural);
  H.addBool(Opts.VerifySemantic);
  H.addBool(Opts.EnableOracle);
  H.addBool(Opts.OracleModule != nullptr);
  H.addU64(Opts.OracleMaxSteps);
  // The observability flags ARE part of the fingerprint: cached
  // PipelineStats replay their obs counters and decision log on a hit, so
  // an entry produced without them must not serve a run that wants them
  // (and vice versa).
  H.addBool(Opts.CollectCounters);
  H.addBool(Opts.CollectDecisions);
  // Register allocation changes the emitted code outright; a hit must
  // never replay a schedule compiled under different allocator settings.
  H.addBool(Opts.AllocateRegisters);
  H.addBool(Opts.RescheduleAfterAlloc);
  // Mid-end optimizer: the *resolved* pass enablement is hashed, not the
  // raw -O level, so "-O2" and "-O0 with every pass forced on" share
  // entries (they run the identical pipeline) while -O0 and -O2 never
  // collide -- in the memory tier and, through the same fingerprint, in
  // the shared on-disk tier (asserted by tests/opt_test.cpp).
  for (opt::PassId P : opt::passPipeline())
    H.addBool(Opts.Opt.enabled(P));
  // Incremental is deliberately NOT part of the fingerprint: the
  // incremental cold path emits schedules bit-identical to the
  // recompute-from-scratch one (see sched/ListScheduler.h), so entries are
  // shared across --no-incremental.  Asserted by tests/coldpath_test.cpp.
  return H.hash();
}

Key128 gis::scheduleCacheKey(const Function &F, uint64_t MachineFp,
                             uint64_t OptionsFp) {
  std::string Bytes = functionToString(F);
  Bytes.push_back('\0'); // separate IR text from the fingerprint tail
  for (uint64_t Fp : {MachineFp, OptionsFp})
    for (unsigned K = 0; K != 8; ++K)
      Bytes.push_back(static_cast<char>(Fp >> (8 * K)));
  return hashKey128(Bytes);
}

ScheduleCache::ScheduleCache(size_t Capacity, unsigned NumShards)
    : Capacity(Capacity) {
  if (NumShards == 0)
    NumShards = 1;
  Shards.reserve(NumShards);
  for (unsigned K = 0; K != NumShards; ++K)
    Shards.push_back(std::make_unique<Shard>());
}

bool ScheduleCache::lookup(const Key128 &Key, Function &F,
                           PipelineStats &Stats) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Map.find(Key);
  if (It == S.Map.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second); // refresh recency
  F = It->second->Scheduled;
  Stats += It->second->Stats;
  Hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ScheduleCache::insert(const Key128 &Key, const Function &F,
                           const PipelineStats &Stats) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Map.find(Key);
  if (It != S.Map.end()) {
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    return;
  }
  S.Lru.emplace_front(Key, F, Stats);
  S.Map.emplace(Key, S.Lru.begin());
  Insertions.fetch_add(1, std::memory_order_relaxed);
  size_t ShardCap = Capacity ? (Capacity + Shards.size() - 1) / Shards.size()
                             : 0;
  while (ShardCap && S.Lru.size() > ShardCap) {
    S.Map.erase(S.Lru.back().Key);
    S.Lru.pop_back();
    ++S.Evictions;
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t ScheduleCache::size() const {
  size_t N = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> L(S->Mu);
    N += S->Lru.size();
  }
  return N;
}

std::vector<ShardOccupancy> ScheduleCache::shardStats() const {
  std::vector<ShardOccupancy> R;
  R.reserve(Shards.size());
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> L(S->Mu);
    R.push_back(ShardOccupancy{S->Lru.size(), S->Evictions});
  }
  return R;
}

ScheduleCacheStats ScheduleCache::stats() const {
  ScheduleCacheStats R;
  R.Hits = Hits.load(std::memory_order_relaxed);
  R.Misses = Misses.load(std::memory_order_relaxed);
  R.Insertions = Insertions.load(std::memory_order_relaxed);
  R.Evictions = Evictions.load(std::memory_order_relaxed);
  return R;
}

void ScheduleCache::clear() {
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> L(S->Mu);
    S->Map.clear();
    S->Lru.clear();
  }
}
