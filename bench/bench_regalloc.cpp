//===- bench/bench_regalloc.cpp - Experiment E10: finite register files ----===//
//
// The cost of finiteness: the paper schedules over unbounded symbolic
// registers (Section 2) and lets the XL back end map the result onto the
// RS/6000's 32 GPRs / 32 FPRs / 8 CRs.  This experiment runs that back
// end (src/regalloc/: linear scan, spill-everywhere, post-allocation
// rescheduling) and sweeps the register-file size against the speculation
// depth: at the real sizes allocation must be free (zero spills, cycles
// identical to the symbolic schedule), and as the file shrinks the spill
// code claws back the scheduler's winnings -- monotonically more cycles
// at 16 and 8 GPRs, and faster at deeper speculation, which lengthens
// live ranges.
//
// Each cell comes from bench::measureRegAllocCell (BenchCommon.h), which
// tests/eseries_test.cpp pins to tests/data/e_series_cycles.txt.  The
// table is merged into BENCH_engine.json (key "regalloc") so the
// trajectory is machine-trackable across PRs.
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

void BM_ScheduleAndAllocate(benchmark::State &State) {
  const Workload W = specLikeWorkloads()[static_cast<size_t>(State.range(0))];
  MachineDescription MD = MachineDescription::rs6k();
  MD.setNumRegs(RegClass::GPR, 16);
  PipelineOptions Opts = speculativeOptions();
  Opts.AllocateRegisters = true;
  for (auto _ : State) {
    auto M = buildWorkload(W, MD, Opts);
    benchmark::DoNotOptimize(M);
  }
  State.SetLabel(W.Name);
}
BENCHMARK(BM_ScheduleAndAllocate)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

void printPaperTable() {
  std::vector<RegAllocDepth> Ds = regAllocDepths();
  std::vector<Workload> Ws = specLikeWorkloads();

  std::printf("\nE10: register-file size x speculation depth "
              "(simulated cycles; spill instrs)\n");
  rule(94);
  std::printf("%-10s%8s", "CONFIG", "GPRS");
  for (const Workload &W : Ws)
    std::printf("%19s", W.Name.c_str());
  std::printf("\n");
  rule(94);

  // JSON rows, one per (depth, gprs): totals across the workloads.
  std::string Json;
  bool Monotone = true;
  for (const RegAllocDepth &D : Ds) {
    uint64_t Prev = 0;
    for (unsigned Gprs : RegAllocGprSizes) {
      std::printf("%-10s%8u", D.Name, Gprs);
      uint64_t TotalCycles = 0;
      unsigned TotalSpills = 0, TotalFailures = 0;
      for (const Workload &W : Ws) {
        RegAllocCell C = measureRegAllocCell(W, Gprs, D.Opts);
        TotalCycles += C.Cycles;
        TotalSpills += C.SpillInstrs;
        TotalFailures += C.Failures;
        std::printf("%11llu (%4u)",
                    static_cast<unsigned long long>(C.Cycles),
                    C.SpillInstrs);
      }
      std::printf("%s\n", TotalFailures ? "  [rollbacks!]" : "");
      if (Prev && TotalCycles < Prev)
        Monotone = false;
      Prev = TotalCycles;
      char Row[256];
      std::snprintf(Row, sizeof(Row),
                    "    {\"depth\": \"%s\", \"gprs\": %u, \"cycles\": "
                    "%llu, \"spill_instrs\": %u, \"failures\": %u},\n",
                    D.Name, Gprs,
                    static_cast<unsigned long long>(TotalCycles),
                    TotalSpills, TotalFailures);
      Json += Row;
    }
  }
  rule(94);
  std::printf("32 GPRs must spill nothing (cycles == the symbolic "
              "schedule); shrinking the file\nmust cost cycles "
              "monotonically.  monotone: %s\n",
              Monotone ? "yes" : "NO -- investigate");
  if (!Json.empty())
    Json.erase(Json.size() - 2, 1); // trailing comma of the last row

  // Merge into BENCH_engine.json (same protocol as the observability
  // section -- see bench::mergeJsonSection).
  std::string Section = "{\n    \"monotone\": " +
                        std::string(Monotone ? "true" : "false") +
                        ",\n    \"rows\": [\n" + Json + "    ]\n  }";
  if (!mergeJsonSection("BENCH_engine.json", "bench_regalloc", "regalloc",
                        Section))
    return;
  std::printf("wrote E10 register-file sweep to BENCH_engine.json\n");
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printPaperTable();
  return 0;
}
