//===- ir/Register.h - Symbolic register model ------------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbolic registers.  Following the paper (Section 2), scheduling runs
/// before register allocation over an unbounded symbolic register file with
/// three classes: fixed-point (GPR), floating-point (FPR) and condition
/// registers (CR).
///
//===----------------------------------------------------------------------===//

#ifndef GIS_IR_REGISTER_H
#define GIS_IR_REGISTER_H

#include "support/Assert.h"

#include <cstdint>
#include <functional>
#include <string>

namespace gis {

/// Register class of a symbolic register.
enum class RegClass : uint8_t {
  GPR, ///< Fixed-point register (rN).
  FPR, ///< Floating-point register (fN).
  CR,  ///< Condition register (crN), written by compares, read by branches.
};

/// A symbolic register: a class plus an unbounded index.  Value type,
/// cheap to copy; the invalid register is the default-constructed one.
class Reg {
public:
  Reg() = default;

  static Reg gpr(uint32_t Index) { return Reg(RegClass::GPR, Index); }
  static Reg fpr(uint32_t Index) { return Reg(RegClass::FPR, Index); }
  static Reg cr(uint32_t Index) { return Reg(RegClass::CR, Index); }
  static Reg make(RegClass Class, uint32_t Index) { return Reg(Class, Index); }

  bool isValid() const { return Encoded != InvalidEncoding; }

  RegClass regClass() const {
    GIS_ASSERT(isValid(), "register class of invalid register");
    return static_cast<RegClass>(Encoded >> IndexBits);
  }

  uint32_t index() const {
    GIS_ASSERT(isValid(), "index of invalid register");
    return Encoded & IndexMask;
  }

  bool isGPR() const { return isValid() && regClass() == RegClass::GPR; }
  bool isFPR() const { return isValid() && regClass() == RegClass::FPR; }
  bool isCR() const { return isValid() && regClass() == RegClass::CR; }

  /// A dense key usable for hashing / array indexing across all classes.
  uint32_t key() const { return Encoded; }

  bool operator==(const Reg &RHS) const { return Encoded == RHS.Encoded; }
  bool operator!=(const Reg &RHS) const { return Encoded != RHS.Encoded; }
  bool operator<(const Reg &RHS) const { return Encoded < RHS.Encoded; }

  /// Textual name: r7, f2, cr6 (appendReg into a fresh string).
  std::string str() const;

  /// The largest index a register can carry.
  static constexpr uint32_t MaxIndex = (uint32_t(1) << 28) - 1;

  /// The largest index the IR parser accepts (2^24 - 1).  Function::newReg
  /// continues past a function's highest index, so the rest of the space,
  /// MaxIndex - MaxParsedIndex = 15 * 2^24, is headroom for the registers
  /// the pipeline creates, and no parsed input -- a daemon COMPILE request
  /// included -- can exhaust it:
  ///   - a request body is at most 64 MiB (persist::MaxBodyBytes, 2^26
  ///     bytes), and a line that defines a register takes at least 8 bytes
  ///     ("LI r0=0\n"; LU's two defs take 16), so a function has at most
  ///     D = 2^23 defs;
  ///   - strength reduction takes one fresh register, and adds one def, per
  ///     multiply: at most D registers, 2D defs after it;
  ///   - pre-renaming takes at most one per def: 2D;
  ///   - unrolling and rotation copy instructions without fresh registers
  ///     and at most double a loop each, and tail duplication clones at
  ///     most TraceDupBudget instructions: at most 8D + 128 defs after
  ///     them;
  ///   - global scheduling renames at most one def per instruction in each
  ///     region task that schedules it, and an instruction is in at most
  ///     three (both global passes, then a superblock): 24D + 384;
  ///   - the local scheduler and the register allocator take none.
  /// That is at most 27D + 384 < 14 * 2^24 fresh registers per class.
  static constexpr uint32_t MaxParsedIndex = (uint32_t(1) << 24) - 1;

private:
  static constexpr uint32_t IndexBits = 28;
  static constexpr uint32_t IndexMask = MaxIndex;
  static constexpr uint32_t InvalidEncoding = ~uint32_t(0);

  Reg(RegClass Class, uint32_t Index)
      : Encoded((static_cast<uint32_t>(Class) << IndexBits) | Index) {
    GIS_ASSERT(Index <= IndexMask, "register index overflow");
  }

  uint32_t Encoded = InvalidEncoding;
};

/// Appends the textual name of \p R (r7, f2, cr6; "<invalid>" for the
/// invalid register) to \p Out.  Every printer of registers goes through
/// here, so the IR text, the cache keys it feeds and Reg::str() agree.
void appendReg(std::string &Out, Reg R);

} // namespace gis

namespace std {
template <> struct hash<gis::Reg> {
  size_t operator()(const gis::Reg &R) const noexcept {
    return std::hash<uint32_t>()(R.key());
  }
};
} // namespace std

#endif // GIS_IR_REGISTER_H
