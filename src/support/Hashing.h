//===- support/Hashing.h - Stable content hashing ---------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stable (cross-run, cross-platform) content hashing for the engine's
/// content-addressed schedule cache.  FNV-1a over explicitly serialized
/// bytes: the hash of a value is a pure function of its content, never of
/// addresses or iteration order, so cache keys are reproducible.
///
/// Keys are 128 bits (two independently-seeded 64-bit streams).  A 64-bit
/// key would make a silent collision -- and thus silently wrong code served
/// from the cache -- merely improbable; 128 bits makes it negligible for
/// any realistic cache population.
///
/// Fingerprint, at the end, is the cheap in-process counterpart for
/// integrity hashes that never leave the process.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SUPPORT_HASHING_H
#define GIS_SUPPORT_HASHING_H

#include <cstdint>
#include <cstring>
#include <functional>
#include <string_view>

namespace gis {

/// A 128-bit content key.
struct Key128 {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  friend bool operator==(const Key128 &A, const Key128 &B) {
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }
  friend bool operator!=(const Key128 &A, const Key128 &B) {
    return !(A == B);
  }
};

/// std::hash-compatible functor for Key128 (the key is already uniform).
struct Key128Hash {
  size_t operator()(const Key128 &K) const {
    return static_cast<size_t>(K.Lo ^ (K.Hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// Incremental FNV-1a (64-bit) over a serialized byte stream.
class HashBuilder {
public:
  explicit HashBuilder(uint64_t Seed = 0xcbf29ce484222325ULL)
      : State(Seed) {}

  HashBuilder &addByte(uint8_t B) {
    State = (State ^ B) * 0x100000001b3ULL;
    return *this;
  }

  HashBuilder &addBytes(const void *Data, size_t Size) {
    const auto *P = static_cast<const uint8_t *>(Data);
    for (size_t K = 0; K != Size; ++K)
      addByte(P[K]);
    return *this;
  }

  /// Length-prefixed, so adjacent strings cannot alias each other.
  HashBuilder &addString(std::string_view S) {
    addU64(S.size());
    return addBytes(S.data(), S.size());
  }

  /// Fixed-width little-endian serialization (not memcpy of host bytes, so
  /// the stream is endian-independent).
  HashBuilder &addU64(uint64_t V) {
    for (unsigned K = 0; K != 8; ++K)
      addByte(static_cast<uint8_t>(V >> (8 * K)));
    return *this;
  }

  HashBuilder &addU32(uint32_t V) { return addU64(V); }
  HashBuilder &addBool(bool V) { return addByte(V ? 1 : 0); }

  uint64_t hash() const { return State; }

private:
  uint64_t State;
};

/// Hashes one byte stream under two seeds into a 128-bit key.  Callers
/// serialize into a string (or feed two builders) and call this once.
inline Key128 hashKey128(std::string_view Bytes) {
  HashBuilder Lo(0xcbf29ce484222325ULL);
  HashBuilder Hi(0x9ae16a3b2f90404fULL);
  Lo.addBytes(Bytes.data(), Bytes.size());
  Hi.addBytes(Bytes.data(), Bytes.size());
  return Key128{Lo.hash(), Hi.hash()};
}

/// An in-process integrity fingerprint fed one 64-bit word at a time: the
/// checkpoint and region-snapshot manifests (ir/Checkpoint.h) and the
/// scoped verifier's out-of-region list hashes.  Each step (xor, odd
/// multiply, xor-shift) is a bijection of the state for a fixed word, so
/// two equally long streams that differ in exactly one word never collide.
/// Strings are read as host words, so a fingerprint is a value of this
/// process only: never persist or exchange one -- content keys that leave
/// the process use HashBuilder.
class Fingerprint {
public:
  Fingerprint &add(uint64_t W) {
    State = (State ^ W) * 0x9e3779b97f4a7c15ULL;
    State ^= State >> 32;
    return *this;
  }

  /// Two 32-bit values in one word.
  Fingerprint &add(uint32_t Lo, uint32_t Hi) {
    return add(static_cast<uint64_t>(Hi) << 32 | Lo);
  }

  /// Length-prefixed, two values per word.
  Fingerprint &addU32s(const uint32_t *P, size_t N) {
    add(N);
    size_t K = 0;
    for (; K + 1 < N; K += 2)
      add(P[K], P[K + 1]);
    if (K != N)
      add(P[K], 0u);
    return *this;
  }

  /// Length-prefixed, eight bytes per word.
  Fingerprint &addString(std::string_view S) {
    add(S.size());
    size_t K = 0;
    for (; K + 8 <= S.size(); K += 8) {
      uint64_t W;
      std::memcpy(&W, S.data() + K, 8);
      add(W);
    }
    if (K != S.size()) {
      uint64_t W = 0;
      std::memcpy(&W, S.data() + K, S.size() - K);
      add(W);
    }
    return *this;
  }

  uint64_t hash() const { return State; }

private:
  uint64_t State = 0xcbf29ce484222325ULL;
};

} // namespace gis

#endif // GIS_SUPPORT_HASHING_H
