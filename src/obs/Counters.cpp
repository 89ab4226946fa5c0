//===- obs/Counters.cpp - Scheduler counters registry ----------------------===//

#include "obs/Counters.h"

#include "support/Assert.h"

using namespace gis;
using namespace gis::obs;

namespace {

struct CounterInfo {
  std::string_view Key;
  std::string_view Label;
};

/// Indexed by CounterId; keep in enum order.
constexpr CounterInfo Infos[NumCounters] = {
    {"motion.useful", "useful motions"},
    {"motion.speculative", "speculative motions"},
    {"rule.useful_over_spec", "rule 1/2 wins (useful class)"},
    {"rule.spec_freq", "profile tie-break wins (spec frequency)"},
    {"rule.delay_useful", "rule 3 wins (D, useful)"},
    {"rule.delay_spec", "rule 4 wins (D, speculative)"},
    {"rule.cp_useful", "rule 5 wins (CP, useful)"},
    {"rule.cp_spec", "rule 6 wins (CP, speculative)"},
    {"rule.source_order", "rule 7 wins (source order)"},
    {"sched.picks_contested", "picks with >= 2 candidates"},
    {"sched.picks_uncontested", "picks with 1 candidate"},
    {"tx.rollbacks", "transactions rolled back"},
    {"cache.hits", "schedule-cache hits"},
    {"cache.misses", "schedule-cache misses"},
    {"persist.disk_hits", "disk-cache entries served"},
    {"persist.disk_misses", "disk-cache lookups missed"},
    {"persist.quarantines", "corrupt disk entries quarantined"},
    {"persist.write_failures", "disk entry writes failed"},
    {"persist.evictions", "disk entries evicted (size bound)"},
    {"coldpath.arena_bytes", "bytes reserved by DDG arenas"},
    {"coldpath.ddg_nodes", "DDG nodes built"},
    {"coldpath.liveness_delta", "always 0 (no delta liveness)"},
    {"coldpath.liveness_full", "region liveness re-solves"},
    {"coldpath.ready_fastforwards", "empty ready-list ranges skipped"},
    {"coldpath.disambig_cache_hits", "always 0 (no disambiguation cache)"},
    {"coldpath.disambig_cache_misses", "always 0 (no disambiguation cache)"},
    {"coldpath.ckpt_bytes", "bytes recorded by delta checkpoints"},
    {"coldpath.verify_blocks_scoped", "blocks verified by scoped sweeps"},
    {"coldpath.verify_blocks_total", "blocks in scoped-verified functions"},
};

} // namespace

std::string_view obs::counterKey(CounterId Id) {
  GIS_ASSERT(static_cast<unsigned>(Id) < NumCounters, "counter id range");
  return Infos[static_cast<unsigned>(Id)].Key;
}

std::string_view obs::counterLabel(CounterId Id) {
  GIS_ASSERT(static_cast<unsigned>(Id) < NumCounters, "counter id range");
  return Infos[static_cast<unsigned>(Id)].Label;
}
