//===- bench/bench_trace.cpp - Experiment E14: superblocks, priced ---------===//
//
// Superblock formation pays in code growth for straighter hot paths; a
// branch predictor decides whether the payment was worth it.  E14 prices
// the trade: every SPEC-shaped workload is profiled, scheduled with and
// without profile-guided superblock formation (--superblocks), and the
// resulting dynamic trace is timed under each predictor model (none /
// always-taken / bimodal 2-bit / profile-oracle).  The interlock-only
// machine ("none") cannot see straightened branches, so it understates
// the superblock payoff; the bimodal column is the realistic one and is
// what the regression gate watches.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace gis;
using namespace gis::bench;

namespace {

/// The superblock-signature workload: two diamonds on the *same*
/// condition, so the second branch's direction is fully determined by the
/// path into its join.  A bimodal predictor sees one branch fed by two
/// interleaved streams and mispredicts whenever they alternate; tail
/// duplication clones the join into each arm, giving every path its own
/// (perfectly biased) branch -- the classic predictor payoff of
/// superblock formation, invisible to the interlock-only machine.
Workload correlatedWorkload() {
  Workload C;
  C.Name = "CORR";
  C.Description = "correlated dual diamond: join branch determined by the "
                  "incoming path (tail-duplication-bound)";
  C.Source = R"(
int data[512];
int corr_dispatch(int n) {
  int i = 0;
  int s = 0;
  while (i < n) {
    int v = data[i - (i / 512) * 512];
    if (v > 0) { s = s + v; } else { s = s - v; }
    if (v > 0) { s = s + 1; } else { s = s + 2; }
    i = i + 1;
  }
  print(s);
  return s;
}
)";
  C.EntryFunction = "corr_dispatch";
  C.Args = {4000};
  C.Setup = [](Interpreter &I, const Module &M) {
    const GlobalArray &Data = M.globals().front();
    // 60/40 split with constant alternation: + + + - - repeating, the
    // worst case for one shared 2-bit counter, trivial for two split ones.
    for (int K = 0; K != 512; ++K)
      I.storeWord(Data.Address + 4 * K, K % 5 < 3 ? 1 : -1);
  };
  return C;
}

std::vector<Workload> benchWorkloads() {
  std::vector<Workload> W = specLikeWorkloads();
  W.push_back(correlatedWorkload());
  return W;
}

void BM_SuperblockPipeline(benchmark::State &State) {
  const Workload W = benchWorkloads()[static_cast<size_t>(State.range(0))];
  MachineDescription MD = MachineDescription::rs6k();
  auto Profiled = compileMiniCOrDie(W.Source);
  TracedRun Prof = interpretWorkload(W, *Profiled);
  PipelineOptions Opts = speculativeOptions();
  Opts.EnableSuperblocks = true;
  Opts.Profile = &Prof.Profile;
  for (auto _ : State) {
    auto M = compileMiniCOrDie(W.Source);
    scheduleModule(*M, MD, Opts);
    benchmark::DoNotOptimize(M);
  }
  State.SetLabel(W.Name + " --superblocks");
}
BENCHMARK(BM_SuperblockPipeline)
    ->ArgsProduct({{0, 1, 2, 3, 4}})
    ->Unit(benchmark::kMillisecond);

/// Prints E14 and merges it into BENCH_engine.json; returns nonzero when
/// the regression gate trips.
int printTable() {
  MachineDescription MD = MachineDescription::rs6k();

  std::printf("\nE14: superblock formation priced by branch predictor "
              "(run-time cycles,\nspeculative pipeline, RS/6000)\n");
  rule(104);
  std::printf("%-10s%-8s%12s%12s%12s%12s%8s%8s%8s\n", "WORKLOAD", "SBLKS",
              "NONE", "TAKEN", "BIMODAL", "ORACLE", "FALLBK", "DUP", "REGNS");
  rule(104);

  std::string Json;
  double GateRatio = 0; // bimodal cycles, superblocks on / off, CORR row
  for (const Workload &W : benchWorkloads()) {
    SuperblockRow Off = measureSuperblockRow(W, MD, /*Superblocks=*/false);
    SuperblockRow On = measureSuperblockRow(W, MD, /*Superblocks=*/true);
    for (const SuperblockRow *R : {&Off, &On}) {
      bool Sb = R == &On;
      std::printf("%-10s%-8s%12llu%12llu%12llu%12llu%8llu%8u%8u\n",
                  W.Name.c_str(), Sb ? "on" : "off",
                  static_cast<unsigned long long>(R->Cycles[0]),
                  static_cast<unsigned long long>(R->Cycles[1]),
                  static_cast<unsigned long long>(R->Cycles[2]),
                  static_cast<unsigned long long>(R->Cycles[3]),
                  static_cast<unsigned long long>(R->OracleFallbacks),
                  R->TailDupInstrs, R->Superblocks);
      for (unsigned K = 0; K != 4; ++K) {
        std::string Fallbacks;
        if (PredictorKinds[K] == PredictorKind::ProfileOracle)
          Fallbacks = formatString(
              ", \"oracle_fallbacks\": %llu",
              static_cast<unsigned long long>(R->OracleFallbacks));
        Json += formatString(
            "%s    {\"workload\": \"%s\", \"superblocks\": %s, "
            "\"predictor\": \"%s\",\n     \"cycles\": %llu, "
            "\"mispredicts\": %llu%s}",
            Json.empty() ? "" : ",\n", W.Name.c_str(),
            Sb ? "true" : "false", PredictorNames[K],
            static_cast<unsigned long long>(R->Cycles[K]),
            static_cast<unsigned long long>(R->Mispredicts[K]),
            Fallbacks.c_str());
      }
    }
    if (W.Name == "CORR" && Off.Cycles[2] != 0)
      GateRatio = static_cast<double>(On.Cycles[2]) /
                  static_cast<double>(Off.Cycles[2]);
  }
  rule(104);
  std::printf("FALLBK is oracle predictions made without edge weights "
              "(always taken): only the\nentry function is profiled, so "
              "branches in its callees fall back.  DUP is\n"
              "tail-duplicated instructions, REGNS the superblock regions "
              "rescheduled.\nThe bimodal column prices mispredictions the "
              "way real front ends pay them; the\nCORR bimodal on/off "
              "ratio is the regression gate.\n");

  // Regression gate: the correlated-diamond workload must keep its
  // superblock win under the realistic (bimodal) predictor.  The gate
  // trips when the on/off cycle ratio exceeds the recorded ratio by more
  // than the recorded tolerance -- growth without payoff.  Cycle counts are
  // deterministic, so the gate does not depend on the host.  A tripped
  // gate leaves the recorded baseline in place.
  const char *Path = "BENCH_engine.json";
  double Recorded = recordedNumber(Path, "trace", "gate_cycles_ratio");
  double Tolerance = recordedNumber(Path, "trace", "gate_ratio_tolerance");
  if (Recorded > 0 && GateRatio > Recorded + Tolerance) {
    std::fprintf(stderr,
                 "bench_trace: REGRESSION -- CORR bimodal superblock on/off "
                 "cycle ratio %.4f exceeds the recorded %.4f by more than "
                 "%.2f\n",
                 GateRatio, Recorded, Tolerance);
    return 1;
  }
  std::printf("\nregression gate: CORR bimodal on/off ratio %.4f (recorded "
              "%.4f, tolerance %.2f)\n",
              GateRatio, Recorded, Tolerance);
  std::string Section = formatString(
      "{\n    \"points\": [\n%s\n    ],\n"
      "    \"gate_workload\": \"CORR\",\n"
      "    \"gate_predictor\": \"bimodal\",\n"
      "    \"gate_cycles_ratio\": %.4f,\n"
      "    \"gate_ratio_tolerance\": 0.02\n  }",
      Json.c_str(), GateRatio);
  if (mergeJsonSection(Path, "bench_trace", "trace", Section))
    std::printf("wrote superblock x predictor results to BENCH_engine.json\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return printTable();
}
