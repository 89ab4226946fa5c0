//===- tests/alloc_test.cpp - Allocation budget of the cold path ----------===//
//
// Performance gates that do not depend on the host: how many heap
// allocations a layer makes per function is a property of the code, not
// of the machine it runs on, so unlike a timing it can be pinned in
// tier-1.  The cold path's cost is dominated by the allocator (DESIGN.md
// section 14), and so is the cache-hit path's (section 12): the gates pin
// schedulePipeline, the mini-C front end, the IR parser behind every disk
// hit, and the allocation-free copy of an instruction.
//
// One gate pins growth rather than a count: the local pass's allocations
// and bytes on a function four times larger.
//
// The executable replaces the global operator new with a counting one,
// which is why it is its own executable (`gis_alloc_tests`, ctest label
// "alloc"); scripts/check.sh runs it in the plain and the ASan+UBSan
// stages.  The count is deterministic: the corpus, the options and the
// pipeline are, and nothing else runs on the thread while it counts.
//
//===----------------------------------------------------------------------===//

#include "frontend/CodeGen.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "machine/MachineDescription.h"
#include "sched/LocalScheduler.h"
#include "sched/Pipeline.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

namespace {

thread_local uint64_t Allocations = 0;
thread_local uint64_t AllocatedBytes = 0;

void *countedAllocate(std::size_t N) {
  ++Allocations;
  AllocatedBytes += N;
  return std::malloc(N ? N : 1);
}

// Kept out of line: GCC's -Wmismatched-new-delete otherwise sees a free()
// of what an inlined operator new returned and warns.
[[gnu::noinline]] void release(void *P) noexcept { std::free(P); }

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
void operator delete(void *P) noexcept { release(P); }
void operator delete[](void *P) noexcept { release(P); }
void operator delete(void *P, std::size_t) noexcept { release(P); }
void operator delete[](void *P, std::size_t) noexcept { release(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  release(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  release(P);
}

using namespace gis;

namespace {

// The corpus every budget is measured on: 64 cold_batch-shaped programs
// (the gisbench workload's generator options: loop trips capped at 4, one
// helper).
std::vector<std::string> corpus() {
  RandomProgramOptions RO;
  RO.MaxLoopTrip = 4;
  RO.NumHelpers = 1;
  std::vector<std::string> Sources;
  for (uint64_t Seed = 1; Seed <= 64; ++Seed)
    Sources.push_back(generateRandomMiniC(Seed, RO));
  return Sources;
}

/// Checks \p Counted allocations over \p Functions functions against a
/// budget of \p Measured per function plus 5%.
void expectWithinBudget(const char *What, uint64_t Counted,
                        uint64_t Functions, double Measured) {
  ASSERT_GT(Functions, 0u);
  double PerFunc = static_cast<double>(Counted) / Functions;
  double Budget = Measured * 1.05;
  ::testing::Test::RecordProperty("allocs_per_func", std::to_string(PerFunc));
  EXPECT_LE(PerFunc, Budget)
      << What << " made " << PerFunc << " allocations per function ("
      << Counted << " over " << Functions << " functions); the budget is "
      << Budget << " (" << Measured << " measured + 5%)";
}

// Each budget is a measured count plus 5%.  Lower one when a change makes
// its count fall; raising it needs a reason.

/// schedulePipeline with default options -- gisc's defaults, as cold_batch
/// compiles them -- measured when instruction operands moved inline
/// (6,659.9; 6,746.1 with heap operand vectors).
constexpr double SchedulePipelineAllocsPerFunc = 6660;

/// compileMiniC -- lexing, parsing, code generation and the verifier --
/// measured when the front end moved to an arena AST, flat symbol tables
/// and inline operands (446.2, from 1,491.9).  Most of what remains is
/// per block.
constexpr double CompileMiniCAllocsPerFunc = 447;

/// parseModule over each program's printed scheduled output, the daemon's
/// disk-hit parse, measured when instruction operands moved inline
/// (506.9, from 1,049.8 with heap operand vectors).
constexpr double ParseModuleAllocsPerFunc = 507;

TEST(AllocGate, SchedulePipelineAllocationsPerFunctionWithinBudget) {
#ifdef GIS_SLOWPATH_CHECK
  GTEST_SKIP() << "the slowpath cross-checks allocate by design";
#else
  const MachineDescription MD = MachineDescription::rs6k();
  const PipelineOptions Opts;
  uint64_t Counted = 0, Functions = 0;
  for (const std::string &Source : corpus()) {
    std::unique_ptr<Module> M = compileMiniCOrDie(Source);
    for (const std::unique_ptr<Function> &F : M->functions()) {
      uint64_t Before = Allocations;
      PipelineStats S = schedulePipeline(*F, MD, Opts);
      Counted += Allocations - Before;
      ++Functions;
      ASSERT_EQ(S.VerifierFailures, 0u) << F->name();
    }
  }
  expectWithinBudget("schedulePipeline", Counted, Functions,
                     SchedulePipelineAllocsPerFunc);
#endif
}

TEST(AllocGate, CompileMiniCAllocationsPerFunctionWithinBudget) {
  uint64_t Counted = 0, Functions = 0;
  for (const std::string &Source : corpus()) {
    uint64_t Before = Allocations;
    CompileResult R = compileMiniC(Source);
    Counted += Allocations - Before;
    ASSERT_TRUE(R.ok()) << R.Error;
    Functions += R.M->functions().size();
  }
  expectWithinBudget("compileMiniC", Counted, Functions,
                     CompileMiniCAllocsPerFunc);
}

TEST(AllocGate, ParseModuleAllocationsPerFunctionWithinBudget) {
  const MachineDescription MD = MachineDescription::rs6k();
  uint64_t Counted = 0, Functions = 0;
  for (const std::string &Source : corpus()) {
    std::unique_ptr<Module> M = compileMiniCOrDie(Source);
    for (const std::unique_ptr<Function> &F : M->functions())
      schedulePipeline(*F, MD, PipelineOptions());
    std::string Text = moduleToString(*M);
    uint64_t Before = Allocations;
    ParseResult R = parseModule(Text);
    Counted += Allocations - Before;
    ASSERT_TRUE(R.ok()) << R.Error;
    Functions += R.M->functions().size();
  }
  expectWithinBudget("parseModule", Counted, Functions,
                     ParseModuleAllocsPerFunc);
}

/// One function of \p N statements `if (s > k) s = s - 1; else s = s + 2;`:
/// 3N + 1 blocks of a few instructions each.
std::string ifElseChain(unsigned N) {
  std::string Source = "int main(int n) {\n  int s = n;\n";
  for (unsigned K = 0; K != N; ++K)
    Source += "  if (s > " + std::to_string(K) +
              ") s = s - 1; else s = s + 2;\n";
  return Source + "  return s;\n}\n";
}

struct HeapUse {
  uint64_t Allocations = 0;
  uint64_t Bytes = 0;
};

/// What scheduleLocal allocates on ifElseChain(\p N) after the rest of
/// the default pipeline ran.
HeapUse localPassHeapUse(unsigned N) {
  const MachineDescription MD = MachineDescription::rs6k();
  std::unique_ptr<Module> M = compileMiniCOrDie(ifElseChain(N));
  Function &F = *M->functions()[0];
  PipelineOptions Opts;
  Opts.RunLocalScheduler = false;
  PipelineStats S = schedulePipeline(F, MD, Opts);
  EXPECT_EQ(S.VerifierFailures, 0u);
  uint64_t Allocs = Allocations, Bytes = AllocatedBytes;
  LocalSchedStats L = scheduleLocal(F, MD);
  HeapUse Use{Allocations - Allocs, AllocatedBytes - Bytes};
  EXPECT_EQ(L.BlocksScheduled, F.numBlocks());
  EXPECT_EQ(L.BlocksFailed, 0u);
  return Use;
}

// The local pass schedules each block alone, so its heap use follows the
// function's size: four times the blocks may cost about four times the
// allocations and bytes.  A function-sized array built per block (a node
// map indexed by function-wide ids, a region-wide dependence graph) makes
// the bytes grow with the square of the block count, and fails this.
TEST(AllocGate, LocalPassHeapUseGrowsLinearlyWithTheFunction) {
#ifdef GIS_SLOWPATH_CHECK
  GTEST_SKIP() << "the slowpath cross-checks rederive function-wide facts "
                  "after every block";
#else
  HeapUse Small = localPassHeapUse(250);
  HeapUse Large = localPassHeapUse(1000);
  ::testing::Test::RecordProperty(
      "allocs_ratio", std::to_string(double(Large.Allocations) /
                                     double(Small.Allocations)));
  ::testing::Test::RecordProperty(
      "bytes_ratio",
      std::to_string(double(Large.Bytes) / double(Small.Bytes)));
  EXPECT_LE(Large.Allocations, 5 * Small.Allocations)
      << "allocations " << Small.Allocations << " at 250 statements, "
      << Large.Allocations << " at 1,000";
  EXPECT_LE(Large.Bytes, 5 * Small.Bytes)
      << "bytes " << Small.Bytes << " at 250 statements, " << Large.Bytes
      << " at 1,000";
#endif
}

// Every non-call opcode's operands fit inline, so copying an instruction
// (a memory-tier hit copies a whole pool) allocates nothing; a CALL with
// more arguments than the inline room is the one that does.
TEST(AllocGate, CopyingACallFreeInstructionAllocatesNothing) {
  Instruction Fma(Opcode::FMA);
  Fma.defs() = {Reg::fpr(0)};
  Fma.uses() = {Reg::fpr(1), Reg::fpr(2), Reg::fpr(3)};
  Instruction Lu(Opcode::LU);
  Lu.defs() = {Reg::gpr(1), Reg::gpr(2)};
  Lu.uses() = {Reg::gpr(2)};
  Lu.setImm(8);
  Instruction Stu(Opcode::STU);
  Stu.defs() = {Reg::gpr(2)};
  Stu.uses() = {Reg::gpr(1), Reg::gpr(2)};
  std::vector<Instruction> Pool = {Fma, Lu, Stu};

  uint64_t Before = Allocations;
  for (const Instruction &I : Pool) {
    Instruction Copy = I;
    Instruction Moved = std::move(Copy);
    Copy = Moved;
    EXPECT_EQ(Copy.uses(), I.uses());
    EXPECT_EQ(Copy.defs(), I.defs());
  }
  EXPECT_EQ(Allocations - Before, 0u);

  Instruction Call(Opcode::CALL);
  Call.setCallee("f");
  Call.uses() = {Reg::gpr(1), Reg::gpr(2), Reg::gpr(3), Reg::gpr(4)};
  Before = Allocations;
  Instruction CallCopy = Call;
  EXPECT_EQ(Allocations - Before, 1u);
  EXPECT_EQ(CallCopy.uses(), Call.uses());
}

} // namespace
