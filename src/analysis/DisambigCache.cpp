//===- analysis/DisambigCache.cpp - Memoized disambiguation state ----------===//

#include "analysis/DisambigCache.h"

#include "analysis/CFG.h"
#include "support/Assert.h"

using namespace gis;

std::shared_ptr<DisambigFacts> DisambigFacts::build(const Function &F,
                                                    bool BuildDom) {
  auto Facts = std::make_shared<DisambigFacts>();
  Facts->BlockOf.assign(F.numInstrs(), InvalidId);
  Facts->PosOf.assign(F.numInstrs(), 0);
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    const std::vector<InstrId> &Instrs = F.block(B).instrs();
    for (unsigned Pos = 0; Pos != Instrs.size(); ++Pos) {
      Facts->BlockOf[Instrs[Pos]] = B;
      Facts->PosOf[Instrs[Pos]] = Pos;
    }
  }

  // Single static definitions over the whole function.
  Facts->SingleDef.reserve(F.numInstrs());
  for (InstrId I = 0; I != F.numInstrs(); ++I) {
    if (Facts->BlockOf[I] == InvalidId)
      continue; // orphaned instruction (cloned, not yet placed)
    for (Reg D : F.instr(I).defs()) {
      auto [It, Inserted] = Facts->SingleDef.emplace(D.key(), I);
      if (!Inserted)
        It->second = InvalidId; // multiple definitions
    }
  }

  if (BuildDom)
    Facts->Dom = std::make_unique<DomTree>(buildCFG(F));
  return Facts;
}

namespace {

/// Content hash of a graph's node count, entry and edge lists.
Key128 graphKey(const DiGraph &G) {
  HashBuilder Lo(0xcbf29ce484222325ULL);
  HashBuilder Hi(0x9ae16a3b2f90404fULL);
  auto Feed = [&](uint64_t V) {
    Lo.addU64(V);
    Hi.addU64(V);
  };
  Feed(G.numNodes());
  Feed(G.entry());
  for (unsigned N = 0; N != G.numNodes(); ++N) {
    Feed(G.succs(N).size());
    for (unsigned S : G.succs(N))
      Feed(S);
  }
  return Key128{Lo.hash(), Hi.hash()};
}

} // namespace

void DisambigCache::noteFunctionChanged() {
  std::lock_guard<std::mutex> L(Mu);
  ++Epoch;
#ifdef GIS_SLOWPATH_CHECK
  WaveBase.reset();
#endif
}

void DisambigCache::noteWaveStart(const Function &F) {
  std::lock_guard<std::mutex> L(Mu);
  ++Epoch;
#ifdef GIS_SLOWPATH_CHECK
  WaveBase = std::make_unique<Function>(F);
#else
  (void)F;
#endif
}

void DisambigCache::notePosChanged(const Function &F, BlockId B) {
  std::lock_guard<std::mutex> L(Mu);
  if (!Facts || FactsEpoch != Epoch)
    return; // nothing cached for this epoch; next facts() rebuilds
  const std::vector<InstrId> &Instrs = F.block(B).instrs();
  for (unsigned Pos = 0; Pos != Instrs.size(); ++Pos) {
    GIS_ASSERT(Instrs[Pos] < Facts->PosOf.size(),
               "notePosChanged on a function with new instructions");
    Facts->PosOf[Instrs[Pos]] = Pos;
  }
}

std::shared_ptr<const DisambigFacts> DisambigCache::facts(const Function &F) {
  std::lock_guard<std::mutex> L(Mu);
  if (Facts && FactsEpoch == Epoch && Facts->BlockOf.size() == F.numInstrs()) {
    ++Hits;
#ifdef GIS_SLOWPATH_CHECK
    auto Fresh = DisambigFacts::build(WaveBase ? *WaveBase : F,
                                      /*BuildDom=*/false);
    if (Fresh->BlockOf != Facts->BlockOf || Fresh->PosOf != Facts->PosOf ||
        Fresh->SingleDef != Facts->SingleDef)
      fatalError(__FILE__, __LINE__,
                 "slow-path check: cached disambiguation facts diverge from "
                 "a fresh derivation");
#endif
    return Facts;
  }
  ++Misses;
  Facts = DisambigFacts::build(F, /*BuildDom=*/true);
  FactsEpoch = Epoch;
  return Facts;
}

std::shared_ptr<const std::vector<BitSet>>
DisambigCache::reachability(const DiGraph &G) {
  Key128 Key = graphKey(G);
  std::lock_guard<std::mutex> L(Mu);
  auto It = Reach.find(Key);
  if (It != Reach.end()) {
    ++Hits;
#ifdef GIS_SLOWPATH_CHECK
    if (*It->second != allPairsReachability(G))
      fatalError(__FILE__, __LINE__,
                 "slow-path check: cached reachability closure diverges from "
                 "a fresh solve");
#endif
    return It->second;
  }
  ++Misses;
  auto Closure =
      std::make_shared<const std::vector<BitSet>>(allPairsReachability(G));
  Reach.emplace(Key, Closure);
  return Closure;
}

uint64_t DisambigCache::hits() const {
  std::lock_guard<std::mutex> L(Mu);
  return Hits;
}

uint64_t DisambigCache::misses() const {
  std::lock_guard<std::mutex> L(Mu);
  return Misses;
}
