//===- bench/bench_width_sweep.cpp - Experiment E4: machine width ----------===//
//
// Tests the paper's closing claim (Section 7): "We may expect even bigger
// payoffs in machines with a larger number of computational units."
// Sweeps the number of fixed-point units (1-4, with 2 branch units for
// the wider configurations) and reports the run-time improvement of the
// full scheduling pipeline over the local-only baseline per machine.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

using namespace gis;
using namespace gis::bench;

namespace {

void BM_ScheduleForWidth(benchmark::State &State) {
  const Workload W = specLikeWorkloads()[0]; // LI, the richest CFG
  MachineDescription MD =
      machineOfWidth(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    auto M = buildWorkload(W, MD, speculativeOptions());
    benchmark::DoNotOptimize(M);
  }
  State.SetLabel(MD.name());
}
BENCHMARK(BM_ScheduleForWidth)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

void printPaperTable() {
  std::printf("\nE4: run-time improvement of global scheduling vs machine "
              "width\n");
  rule(70);
  std::printf("%-10s", "PROGRAM");
  for (unsigned Width = 1; Width <= 4; ++Width)
    std::printf("%12s", formatString("fx=%u", Width).c_str());
  std::printf("\n");
  rule(70);

  double TotalBase[5] = {0}, TotalSched[5] = {0};
  for (const Workload &W : specLikeWorkloads()) {
    std::printf("%-10s", W.Name.c_str());
    for (unsigned Width = 1; Width <= 4; ++Width) {
      MachineDescription MD = machineOfWidth(Width);
      uint64_t Base = workloadCycles(W, MD, baseOptions());
      uint64_t Sched = workloadCycles(W, MD, speculativeOptions());
      TotalBase[Width] += static_cast<double>(Base);
      TotalSched[Width] += static_cast<double>(Sched);
      double RTI = 100.0 * (1.0 - double(Sched) / double(Base));
      std::printf("%11.1f%%", RTI);
    }
    std::printf("\n");
  }
  rule(70);
  std::printf("%-10s", "ALL");
  for (unsigned Width = 1; Width <= 4; ++Width)
    std::printf("%11.1f%%",
                100.0 * (1.0 - TotalSched[Width] / TotalBase[Width]));
  std::printf("\n");
  rule(70);
  std::printf("shape check (paper Section 7): the aggregate improvement "
              "grows (or at least\ndoes not shrink) as the machine gets "
              "wider.\n");
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printPaperTable();
  return 0;
}
