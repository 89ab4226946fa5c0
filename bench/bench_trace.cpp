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

/// Interprets the compiled (possibly scheduled) module and collects the
/// entry function's block/edge profile alongside the dynamic trace.
struct TracedRun {
  std::vector<TraceEntry> Trace;
  ProfileData Profile;
  const Function *Entry = nullptr;
};

TracedRun interpretWorkload(const Workload &W, const Module &M) {
  TracedRun R;
  Interpreter I(M);
  I.enableTrace(true);
  if (W.Setup)
    W.Setup(I, M);
  Function *Entry = const_cast<Module &>(M).findFunction(W.EntryFunction);
  GIS_ASSERT(Entry, "workload entry function missing");
  for (size_t K = 0; K != W.Args.size(); ++K)
    I.setReg(Entry->params()[K], W.Args[K]);
  ExecResult Res = I.run(*Entry, W.MaxSteps);
  GIS_ASSERT(!Res.Trapped, "workload trapped");
  R.Trace = I.trace();
  R.Profile.record(*Entry, I.blockCounts());
  R.Profile.recordEdges(*Entry, I.edgeCounts());
  R.Entry = Entry;
  return R;
}

/// Cycle count of \p Trace under one predictor model; the profile of the
/// same run feeds the profile-oracle predictor.
TimingResult priceTrace(const std::vector<TraceEntry> &Trace,
                        const MachineDescription &MD, PredictorKind Kind,
                        const ProfileData &Profile) {
  TimingSimulator Sim(MD);
  BranchPredictorOptions PO;
  PO.Kind = Kind;
  PO.Profile = &Profile;
  Sim.setPredictor(PO);
  return Sim.simulate(Trace);
}

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

constexpr PredictorKind Kinds[] = {PredictorKind::None,
                                   PredictorKind::AlwaysTaken,
                                   PredictorKind::Bimodal2Bit,
                                   PredictorKind::ProfileOracle};
constexpr const char *KindNames[] = {"none", "taken", "bimodal", "oracle"};

/// One workload measured under one scheduling configuration: cycles per
/// predictor model, plus the growth the superblock pass charged.
struct Row {
  uint64_t Cycles[4] = {0, 0, 0, 0};
  uint64_t Mispredicts[4] = {0, 0, 0, 0};
  unsigned TailDupInstrs = 0;
  unsigned Superblocks = 0;
};

Row measure(const Workload &W, const MachineDescription &MD,
            bool Superblocks) {
  // Profile a plain compile first: profile-guided formation wants edge
  // counts for the *source* CFG it will carve traces from.
  auto Profiled = compileMiniCOrDie(W.Source);
  TracedRun Prof = interpretWorkload(W, *Profiled);

  auto M = compileMiniCOrDie(W.Source);
  PipelineOptions Opts = speculativeOptions();
  Opts.EnableSuperblocks = Superblocks;
  Opts.Profile = &Prof.Profile;
  PipelineStats Stats = scheduleModule(*M, MD, Opts);

  Row R;
  R.TailDupInstrs = Stats.TailDupInstrs;
  R.Superblocks = Stats.SuperblocksScheduled;
  TracedRun Run = interpretWorkload(W, *M); // fresh profile: block ids moved
  for (unsigned K = 0; K != 4; ++K) {
    TimingResult T = priceTrace(Run.Trace, MD, Kinds[K], Run.Profile);
    R.Cycles[K] = T.Cycles;
    R.Mispredicts[K] = T.Mispredicts;
  }
  return R;
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
  rule(96);
  std::printf("%-10s%-8s%12s%12s%12s%12s%8s%8s\n", "WORKLOAD", "SBLKS",
              "NONE", "TAKEN", "BIMODAL", "ORACLE", "DUP", "REGNS");
  rule(96);

  std::string Json;
  double GateRatio = 0; // bimodal cycles, superblocks on / off, CORR row
  for (const Workload &W : benchWorkloads()) {
    Row Off = measure(W, MD, /*Superblocks=*/false);
    Row On = measure(W, MD, /*Superblocks=*/true);
    for (const Row *R : {&Off, &On}) {
      bool Sb = R == &On;
      std::printf("%-10s%-8s%12llu%12llu%12llu%12llu%8u%8u\n",
                  W.Name.c_str(), Sb ? "on" : "off",
                  static_cast<unsigned long long>(R->Cycles[0]),
                  static_cast<unsigned long long>(R->Cycles[1]),
                  static_cast<unsigned long long>(R->Cycles[2]),
                  static_cast<unsigned long long>(R->Cycles[3]),
                  R->TailDupInstrs, R->Superblocks);
      for (unsigned K = 0; K != 4; ++K)
        Json += formatString(
            "%s    {\"workload\": \"%s\", \"superblocks\": %s, "
            "\"predictor\": \"%s\",\n     \"cycles\": %llu, "
            "\"mispredicts\": %llu}",
            Json.empty() ? "" : ",\n", W.Name.c_str(),
            Sb ? "true" : "false", KindNames[K],
            static_cast<unsigned long long>(R->Cycles[K]),
            static_cast<unsigned long long>(R->Mispredicts[K]));
    }
    if (W.Name == "CORR" && Off.Cycles[2] != 0)
      GateRatio = static_cast<double>(On.Cycles[2]) /
                  static_cast<double>(Off.Cycles[2]);
  }
  rule(96);
  std::printf("DUP is tail-duplicated instructions, REGNS the superblock "
              "regions rescheduled.\nThe bimodal column prices "
              "mispredictions the way real front ends pay them; the\n"
              "CORR bimodal on/off ratio is the regression gate.\n");

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
