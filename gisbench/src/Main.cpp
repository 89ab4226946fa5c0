//===- gisbench/src/Main.cpp - The gisbench binary ------------------------===//
//
// Usage:
//   gisbench run --workload W --seed N --seconds S --trace 0|1
//                [--short] [--corrupt] [--spans FILE]
//   gisbench daemon SOCKET CACHE_DIR CAPACITY     (serve_mixed's child)
//
// `run` prints one line per metric (name, value, unit) and, as its last
// line, a JSON record of the run: metrics, the deterministic values, the
// identities, every timing's median/tail/count and the per-program rows.
// gisbench/run.py turns that record into the benchmark's result.  The exit
// code is nonzero when any output was wrong or any check failed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>

using namespace gisbench;

namespace {

/// Every per-layer metric with its unit.  Layers a workload does not run
/// report zero.  gisbench/run.py checks this set against BENCHMARK.json.
const std::pair<const char *, const char *> PerLayerMetrics[] = {
    {"frontend.us_per_func", "us"},
    {"frontend.allocs_per_func", "count"},
    {"frontend.ir_instrs_per_func", "instrs"},
    {"sched.us_per_func", "us"},
    {"sched.allocs_per_func", "count"},
    {"sched.alloc_bytes_per_func", "bytes"},
    {"sched.rollbacks", "count"},
    {"sched.regions_skipped_by_size", "count"},
    {"sched.liveness_delta_ratio", "ratio"},
    {"sched.disambig_hit_ratio", "ratio"},
    {"sched.verify_scoped_ratio", "ratio"},
    {"sched.motions_useful", "count"},
    {"sched.motions_spec", "count"},
    {"analysis.loopinfo_us_per_func", "us"},
    {"analysis.pdg_us_per_func", "us"},
    {"analysis.liveness_us_per_func", "us"},
    {"analysis.allocs_per_func", "count"},
    {"analysis.ddg_edges_per_func", "count"},
    {"opt.us_per_func", "us"},
    {"opt.allocs_per_func", "count"},
    {"opt.rewrites_per_func", "count"},
    {"opt.ir_instrs_per_func", "instrs"},
    {"trace.form_us_per_func", "us"},
    {"trace.superblocks_scheduled", "count"},
    {"trace.tail_dup_instrs", "instrs"},
    {"trace.truncated", "count"},
    {"regalloc.us_per_func", "us"},
    {"regalloc.spill_instrs", "instrs"},
    {"regalloc.failures", "count"},
    {"ir.print_us_per_func", "us"},
    {"ir.verify_us_per_func", "us"},
    {"engine.key_us", "us"},
    {"engine.mem_lookup_us", "us"},
    {"engine.mem_hit_ratio", "ratio"},
    {"engine.mem_evictions", "count"},
    {"persist.disk_lookup_us", "us"},
    {"persist.disk_hit_ratio", "ratio"},
    {"persist.disk_insert_us", "us"},
    {"persist.quarantines", "count"},
    {"persist.write_failures", "count"},
    {"persist.degraded", "flag"},
    {"persist.round_trip_us", "us"},
    {"persist.wait_us", "us"},
    {"persist.attempts_per_request", "count"},
    {"interp.us_per_run", "us"},
    {"interp.steps", "instrs"},
    {"machine.us_per_run", "us"},
    {"machine.mispredicts", "count"},
    {"machine.ipc", "instrs/cycle"},
    {"bench.trace_overhead", "ratio"},
};

/// Fills layers the workload does not run with zero and orders the
/// metrics as the table does; an unknown name is a benchmark bug.
void completePerLayer(Outcome &Out) {
  std::vector<Metric> Ordered;
  for (const auto &[Name, Unit] : PerLayerMetrics) {
    Metric M{Name, 0, Unit};
    for (const Metric &Got : Out.PerLayer)
      if (Got.Name == Name) {
        if (Got.Unit != Unit)
          Out.fail(std::string("unit mismatch for ") + Name);
        M.Value = Got.Value;
      }
    Ordered.push_back(M);
  }
  for (const Metric &Got : Out.PerLayer) {
    bool Known = false;
    for (const auto &[Name, Unit] : PerLayerMetrics)
      Known |= Got.Name == Name;
    if (!Known)
      Out.fail("unknown per-layer metric " + Got.Name);
  }
  Out.PerLayer = std::move(Ordered);
}

/// The per-layer identities: memory hits plus misses equal lookups, disk
/// hits are at most memory misses, and self times sum to no more than the
/// traced wall time.
void checkIdentities(Outcome &Out) {
  auto Has = [&](const char *K) { return Out.Identities.count(K) != 0; };
  auto Get = [&](const char *K) { return Out.Identities[K]; };
  if (Has("mem_lookups") &&
      Get("mem_hits") + Get("mem_misses") != Get("mem_lookups"))
    Out.fail("identity: memory hits + misses != lookups");
  if (Has("disk_hits") && Get("disk_hits") > Get("mem_misses"))
    Out.fail("identity: disk hits exceed memory misses");
  if (Has("self_seconds_sum") &&
      Get("self_seconds_sum") > Get("traced_wall_s") * (1 + 1e-9))
    Out.fail("identity: span self times exceed the traced wall time");
}

std::string jsonString(const std::string &S) {
  std::string R = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      R += '\\', R += C;
    else if (static_cast<unsigned char>(C) < 0x20)
      R += ' ';
    else
      R += C;
  }
  return R + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string S = "{";
  for (size_t K = 0; K != Ms.size(); ++K)
    S += (K ? ", " : "") + jsonString(Ms[K].Name) + ": {\"value\": " +
         jsonNumber(Ms[K].Value) + ", \"unit\": " + jsonString(Ms[K].Unit) +
         "}";
  return S + "}";
}

std::string numbersJson(const std::map<std::string, double> &Ns) {
  std::string S = "{";
  for (const auto &[K, V] : Ns)
    S += (S.size() > 1 ? ", " : "") + jsonString(K) + ": " + jsonNumber(V);
  return S + "}";
}

std::string recordJson(const RunOptions &O, const Outcome &Out, bool Correct) {
  std::ostringstream S;
  S << "{\"workload\": " << jsonString(O.Workload) << ", \"seed\": " << O.Seed
    << ", \"trace\": " << (O.Trace ? 1 : 0)
    << ", \"short\": " << (O.Short ? "true" : "false")
    << ", \"corrupt\": " << (O.Corrupt ? "true" : "false")
    << ", \"seconds\": " << jsonNumber(O.Seconds)
    << ", \"correct\": " << (Correct ? "true" : "false")
    << ", \"attempted\": " << Out.Attempted << ", \"failed\": " << Out.Failed
    << ", \"input_hash\": " << jsonString(hex(Out.InputHash))
    << ", \"output_hash\": " << jsonString(hex(Out.OutputHash))
    << ", \"errors\": [";
  for (size_t K = 0; K != Out.Errors.size(); ++K)
    S << (K ? ", " : "") << jsonString(Out.Errors[K]);
  S << "], \"end_to_end\": " << metricsJson(Out.EndToEnd)
    << ", \"per_layer\": " << metricsJson(Out.PerLayer)
    << ", \"deterministic\": " << numbersJson(Out.Deterministic)
    << ", \"identities\": " << numbersJson(Out.Identities)
    << ", \"timings\": {";
  bool First = true;
  for (const auto &[Name, T] : Out.Timings) {
    S << (First ? "" : ", ") << jsonString(Name) << ": {\"unit\": "
      << jsonString(T.Unit) << ", \"median\": " << jsonNumber(T.Median)
      << ", \"p99\": " << jsonNumber(T.P99) << ", \"max\": "
      << jsonNumber(T.Max) << ", \"count\": " << T.Count << "}";
    First = false;
  }
  S << "}, \"notes\": {";
  First = true;
  for (const auto &[K, V] : Out.Notes) {
    S << (First ? "" : ", ") << jsonString(K) << ": " << jsonString(V);
    First = false;
  }
  S << "}, \"programs\": [";
  for (size_t K = 0; K != Out.Programs.size(); ++K) {
    const ProgramRow &R = Out.Programs[K];
    S << (K ? ", " : "") << "{\"name\": " << jsonString(R.Name)
      << ", \"cycles_none\": " << R.CyclesNone
      << ", \"cycles_bimodal\": " << R.CyclesBimodal
      << ", \"ref_instrs\": " << R.RefInstrs
      << ", \"code_instrs\": " << R.CodeInstrs
      << ", \"ref_code_instrs\": " << R.RefCode << "}";
  }
  S << "]}";
  return S.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: gisbench run --workload cold_batch|paper_kernels|"
               "serve_mixed --seed N --seconds S --trace 0|1 [--short] "
               "[--corrupt] [--spans FILE]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::strcmp(Argv[1], "daemon") == 0)
    return daemonMain(Argc, Argv);
  if (Argc < 2 || std::strcmp(Argv[1], "run") != 0)
    return usage();
  RunOptions O;
  for (int K = 2; K < Argc; ++K) {
    std::string A = Argv[K];
    bool HasValue = K + 1 < Argc;
    if (A == "--workload" && HasValue)
      O.Workload = Argv[++K];
    else if (A == "--seed" && HasValue)
      O.Seed = std::strtoull(Argv[++K], nullptr, 10);
    else if (A == "--seconds" && HasValue)
      O.Seconds = std::strtod(Argv[++K], nullptr);
    else if (A == "--trace" && HasValue)
      O.Trace = std::strcmp(Argv[++K], "0") != 0;
    else if (A == "--spans" && HasValue)
      O.SpansPath = Argv[++K];
    else if (A == "--short")
      O.Short = true;
    else if (A == "--corrupt")
      O.Corrupt = true;
    else
      return usage();
  }
  if (!(O.Seconds > 0))
    return usage();
  // A daemon that dies mid-request must surface as a failed request, not
  // kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);

  Outcome Out;
  if (O.Workload == "cold_batch")
    Out = runColdBatch(O);
  else if (O.Workload == "paper_kernels")
    Out = runPaperKernels(O);
  else if (O.Workload == "serve_mixed")
    Out = runServeMixed(O);
  else
    return usage();

  if (O.Trace)
    completePerLayer(Out);
  checkIdentities(Out);
  const bool Correct = Out.Errors.empty() && Out.Failed == 0;

  std::printf("gisbench %s seed=%llu trace=%d: %llu attempted, %llu failed\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Trace ? 1 : 0, static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed));
  for (const std::string &E : Out.Errors)
    std::printf("  error: %s\n", E.c_str());
  for (const Metric &M : O.Trace ? Out.PerLayer : Out.EndToEnd)
    std::printf("  %-34s %16.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const auto &[Name, T] : Out.Timings)
    std::printf("  timing %-27s median %.4g p99 %.4g max %.4g %s "
                "(%zu samples)\n",
                Name.c_str(), T.Median, T.P99, T.Max, T.Unit.c_str(),
                T.Count);
  std::printf("%s\n", recordJson(O, Out, Correct).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
