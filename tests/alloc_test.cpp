//===- tests/alloc_test.cpp - Allocation budget of the cold path ----------===//
//
// A performance gate that does not depend on the host: how many heap
// allocations schedulePipeline makes per function is a property of the
// code, not of the machine it runs on, so unlike a timing it can be pinned
// in tier-1.  The cold path's cost is dominated by the allocator (DESIGN.md
// section 14), and this gate keeps the flat-storage rebuild from eroding.
//
// The executable replaces the global operator new with a counting one,
// which is why it is its own executable (`gis_alloc_tests`, ctest label
// "alloc"); scripts/check.sh runs it in the plain and the ASan+UBSan
// stages.  The count is deterministic: the corpus, the options and the
// pipeline are, and nothing else runs on the thread while it counts.
//
//===----------------------------------------------------------------------===//

#include "frontend/CodeGen.h"
#include "machine/MachineDescription.h"
#include "sched/Pipeline.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

thread_local uint64_t Allocations = 0;

void *countedAllocate(std::size_t N) {
  ++Allocations;
  return std::malloc(N ? N : 1);
}

} // namespace

void *operator new(std::size_t N) {
  if (void *P = countedAllocate(N))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) {
  if (void *P = countedAllocate(N))
    return P;
  throw std::bad_alloc();
}
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return countedAllocate(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return countedAllocate(N);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace gis;

namespace {

/// The budget: allocations per function of schedulePipeline on the corpus
/// below, measured when every scheduling-path checkpoint became
/// first-touch and LoopInfo was computed once per CFG change (6,746.1),
/// plus 5%.  Lower it when a change makes the count fall; raising it needs
/// a reason.
constexpr double MeasuredAllocsPerFunc = 6747;
constexpr double AllocBudgetPerFunc = MeasuredAllocsPerFunc * 1.05;

// 64 cold_batch-shaped programs (the gisbench workload's generator
// options: loop trips capped at 4, one helper) through schedulePipeline
// with default options -- gisc's defaults, as cold_batch compiles them.
TEST(AllocGate, SchedulePipelineAllocationsPerFunctionWithinBudget) {
#ifdef GIS_SLOWPATH_CHECK
  GTEST_SKIP() << "the slowpath cross-checks allocate by design";
#else
  RandomProgramOptions RO;
  RO.MaxLoopTrip = 4;
  RO.NumHelpers = 1;
  const MachineDescription MD = MachineDescription::rs6k();
  const PipelineOptions Opts;
  uint64_t Counted = 0, Functions = 0;
  for (uint64_t Seed = 1; Seed <= 64; ++Seed) {
    std::unique_ptr<Module> M =
        compileMiniCOrDie(generateRandomMiniC(Seed, RO));
    for (const std::unique_ptr<Function> &F : M->functions()) {
      uint64_t Before = Allocations;
      PipelineStats S = schedulePipeline(*F, MD, Opts);
      Counted += Allocations - Before;
      ++Functions;
      ASSERT_EQ(S.VerifierFailures, 0u) << "seed " << Seed;
    }
  }
  ASSERT_GT(Functions, 0u);
  double PerFunc = static_cast<double>(Counted) / Functions;
  RecordProperty("allocs_per_func", std::to_string(PerFunc));
  EXPECT_LE(PerFunc, AllocBudgetPerFunc)
      << "schedulePipeline made " << PerFunc << " allocations per function ("
      << Counted << " over " << Functions << " functions); the budget is "
      << AllocBudgetPerFunc << " (" << MeasuredAllocsPerFunc
      << " measured + 5%)";
#endif
}

} // namespace
