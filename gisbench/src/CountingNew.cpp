//===- gisbench/src/CountingNew.cpp - Allocation-counting operator new ----===//
//
// Replaces the global operator new/delete of the benchmark binary so the
// traced run can attribute allocations to spans.  Counting is off unless
// CountAllocations is set; the untraced run pays one relaxed load per
// allocation.  Counters are per thread, so a span only sees allocations
// made by its own thread.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdlib>
#include <new>

namespace gisbench {

std::atomic<bool> CountAllocations{false};

namespace {
thread_local uint64_t Allocs = 0;
thread_local uint64_t AllocBytes = 0;

void *allocate(std::size_t N) {
  if (CountAllocations.load(std::memory_order_relaxed)) {
    ++Allocs;
    AllocBytes += N;
  }
  return std::malloc(N ? N : 1);
}
} // namespace

uint64_t threadAllocs() { return Allocs; }
uint64_t threadAllocBytes() { return AllocBytes; }

} // namespace gisbench

void *operator new(std::size_t N) {
  if (void *P = gisbench::allocate(N))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) {
  if (void *P = gisbench::allocate(N))
    return P;
  throw std::bad_alloc();
}
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return gisbench::allocate(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return gisbench::allocate(N);
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
