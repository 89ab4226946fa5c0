//===- support/BitSet.h - Dense dynamically-sized bit set ------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense bit set over a fixed universe [0, size).  Used for reachability,
/// liveness and dependence transitive-closure computations where the
/// universe (blocks or instructions of one region) is small and known
/// up front.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SUPPORT_BITSET_H
#define GIS_SUPPORT_BITSET_H

#include "support/Assert.h"

#include <cstdint>
#include <vector>

namespace gis {

/// Dense bit set with the usual set-algebra operations.  All binary
/// operations require both operands to have the same universe size.
class BitSet {
public:
  BitSet() = default;
  explicit BitSet(unsigned Size)
      : NumBits(Size), Words((Size + 63) / 64, 0) {}

  unsigned size() const { return NumBits; }

  bool test(unsigned I) const {
    GIS_ASSERT(I < NumBits, "bit index out of range");
    return (Words[I / 64] >> (I % 64)) & 1;
  }

  void set(unsigned I) {
    GIS_ASSERT(I < NumBits, "bit index out of range");
    Words[I / 64] |= uint64_t(1) << (I % 64);
  }

  void reset(unsigned I) {
    GIS_ASSERT(I < NumBits, "bit index out of range");
    Words[I / 64] &= ~(uint64_t(1) << (I % 64));
  }

  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// Sets this to the union with \p RHS; returns true if this changed.
  bool unionWith(const BitSet &RHS) {
    GIS_ASSERT(NumBits == RHS.NumBits, "universe size mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] |= RHS.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// Sets this to the intersection with \p RHS; returns true if changed.
  bool intersectWith(const BitSet &RHS) {
    GIS_ASSERT(NumBits == RHS.NumBits, "universe size mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] &= RHS.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// Removes every bit that is set in \p RHS; returns true if changed.
  bool subtract(const BitSet &RHS) {
    GIS_ASSERT(NumBits == RHS.NumBits, "universe size mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] &= ~RHS.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  bool anyCommon(const BitSet &RHS) const {
    GIS_ASSERT(NumBits == RHS.NumBits, "universe size mismatch");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      if (Words[I] & RHS.Words[I])
        return true;
    return false;
  }

  bool empty() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }

  unsigned count() const {
    unsigned N = 0;
    for (uint64_t W : Words)
      N += static_cast<unsigned>(__builtin_popcountll(W));
    return N;
  }

  bool operator==(const BitSet &RHS) const {
    return NumBits == RHS.NumBits && Words == RHS.Words;
  }

  /// Calls \p Fn for every set bit in ascending order.
  template <typename CallableT> void forEach(CallableT Fn) const {
    for (size_t WI = 0, E = Words.size(); WI != E; ++WI) {
      uint64_t W = Words[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(static_cast<unsigned>(WI * 64 + Bit));
        W &= W - 1;
      }
    }
  }

private:
  unsigned NumBits = 0;
  std::vector<uint64_t> Words;
};

/// A family of equally sized bit rows -- one per block, per DDG node --
/// stored back to back in one flat word array, so a family costs one
/// allocation instead of one per row.  Rows are addressed by index; the
/// word-level accessors let fixpoint loops work a row at a time without
/// BitSet temporaries.
class BitMatrix {
public:
  BitMatrix() = default;
  BitMatrix(unsigned Rows, unsigned Bits) { assign(Rows, Bits); }

  /// Resizes to \p Rows rows of \p Bits bits, all clear (keeps capacity).
  void assign(unsigned Rows, unsigned Bits) {
    NumRows = Rows;
    NumBits = Bits;
    RowWords = (Bits + 63) / 64;
    Words.assign(static_cast<size_t>(Rows) * RowWords, 0);
  }

  unsigned wordsPerRow() const { return RowWords; }

  uint64_t *row(unsigned R) {
    return Words.data() + static_cast<size_t>(R) * RowWords;
  }
  const uint64_t *row(unsigned R) const {
    return Words.data() + static_cast<size_t>(R) * RowWords;
  }

  bool test(unsigned R, unsigned I) const {
    GIS_ASSERT(R < NumRows && I < NumBits, "bit matrix index out of range");
    return (row(R)[I / 64] >> (I % 64)) & 1;
  }

  void set(unsigned R, unsigned I) {
    GIS_ASSERT(R < NumRows && I < NumBits, "bit matrix index out of range");
    row(R)[I / 64] |= uint64_t(1) << (I % 64);
  }

  void clearRow(unsigned R) {
    uint64_t *W = row(R);
    for (unsigned K = 0; K != RowWords; ++K)
      W[K] = 0;
  }

  /// Calls \p Fn for every set bit of row \p R in ascending order.
  template <typename CallableT>
  void forEachInRow(unsigned R, CallableT Fn) const {
    const uint64_t *Row = row(R);
    for (unsigned WI = 0; WI != RowWords; ++WI) {
      uint64_t W = Row[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(WI * 64 + Bit);
        W &= W - 1;
      }
    }
  }

  /// Bytes the word array has reserved (capacity, not size).
  uint64_t bytesReserved() const {
    return static_cast<uint64_t>(Words.capacity()) * sizeof(uint64_t);
  }

  bool operator==(const BitMatrix &RHS) const {
    return NumRows == RHS.NumRows && NumBits == RHS.NumBits &&
           Words == RHS.Words;
  }

private:
  unsigned NumRows = 0;
  unsigned NumBits = 0;
  unsigned RowWords = 0;
  std::vector<uint64_t> Words;
};

} // namespace gis

#endif // GIS_SUPPORT_BITSET_H
