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
