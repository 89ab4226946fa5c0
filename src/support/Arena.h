//===- support/Arena.h - Flat span arenas for analysis data -----*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny struct-of-arrays building block: SpanArena<T> packs many small
/// per-node sequences (the DDG's register def/use lists) into one
/// contiguous buffer addressed by (offset, length) spans.  Compared to a
/// vector-of-vectors it removes one pointer indirection and one heap
/// allocation per node, so the dependence builder's per-register candidate
/// rows and the scheduler's per-pick fact lookups touch memory
/// sequentially.  (Fixed-shape adjacency is plain CSR offset/index arrays
/// instead: DiGraph, DomTree children, the DDG's edge rows.)  The arena
/// only grows; spans stay valid across appends because they are indices,
/// not pointers.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SUPPORT_ARENA_H
#define GIS_SUPPORT_ARENA_H

#include "support/Assert.h"

#include <cstdint>
#include <vector>

namespace gis {

/// A half-open index range into a SpanArena's buffer.
struct ArenaSpan {
  uint32_t Offset = 0;
  uint32_t Length = 0;
};

/// Append-only flat storage for many small T-sequences.
template <typename T> class SpanArena {
public:
  /// Copies [First, Last) into the arena and returns its span.
  template <typename IterT> ArenaSpan append(IterT First, IterT Last) {
    ArenaSpan S;
    S.Offset = static_cast<uint32_t>(Data.size());
    Data.insert(Data.end(), First, Last);
    GIS_ASSERT(Data.size() <= UINT32_MAX, "span arena overflow");
    S.Length = static_cast<uint32_t>(Data.size()) - S.Offset;
    return S;
  }

  template <typename RangeT> ArenaSpan append(const RangeT &R) {
    return append(R.begin(), R.end());
  }

  const T *begin(ArenaSpan S) const { return Data.data() + S.Offset; }
  const T *end(ArenaSpan S) const { return Data.data() + S.Offset + S.Length; }

  size_t size() const { return Data.size(); }

  /// The whole buffer, every span's elements in append order.
  const T *data() const { return Data.data(); }

  /// Bytes the arena's buffer has reserved (capacity, not size): the number
  /// the obs coldpath.arena_bytes counter reports.
  uint64_t bytesReserved() const {
    return static_cast<uint64_t>(Data.capacity()) * sizeof(T);
  }

  void reserve(size_t N) { Data.reserve(N); }

private:
  std::vector<T> Data;
};

/// A borrowed view of one span, usable in range-for.
template <typename T> class SpanRange {
public:
  SpanRange(const SpanArena<T> &A, ArenaSpan S)
      : First(A.begin(S)), Last(A.end(S)) {}
  const T *begin() const { return First; }
  const T *end() const { return Last; }
  bool empty() const { return First == Last; }
  size_t size() const { return static_cast<size_t>(Last - First); }

private:
  const T *First;
  const T *Last;
};

} // namespace gis

#endif // GIS_SUPPORT_ARENA_H
