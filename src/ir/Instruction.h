//===- ir/Instruction.h - IR instruction ------------------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single pseudo-IR instruction.  Instructions live in a per-function pool
/// and are referenced by dense InstrIds, so the scheduler can move them
/// between basic blocks by editing block instruction lists without
/// invalidating references held by analyses.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_IR_INSTRUCTION_H
#define GIS_IR_INSTRUCTION_H

#include "ir/Opcode.h"
#include "ir/Register.h"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <new>
#include <string>

namespace gis {

/// Dense index of an instruction within its Function's pool.
using InstrId = uint32_t;
/// Dense index of a basic block within its Function.
using BlockId = uint32_t;

/// Sentinel for "no instruction" / "no block".
constexpr uint32_t InvalidId = ~uint32_t(0);

/// An instruction's def or use list: registers in operand order, with
/// inline room for \p N of them.  Every non-call opcode fits inline (at
/// most 2 defs and 3 uses: FMA is 1 + 3, LU is 2 + 1, STU is 1 + 2), so
/// building, copying and freeing an instruction allocates nothing; only a
/// CALL with more arguments moves its list to the heap.  It offers the
/// vector operations the operand-editing code uses and no conversion to
/// std::vector<Reg>, so every copy into a vector is spelled out.  Unlike a
/// vector's buffer, the elements live inside the instruction: a pointer
/// into them does not survive a move of the instruction (a pool
/// reallocation included).
template <unsigned N> class RegList {
public:
  using value_type = Reg;
  using iterator = Reg *;
  using const_iterator = const Reg *;

  RegList() noexcept {}
  RegList(std::initializer_list<Reg> Regs) { assign(Regs); }
  RegList(const RegList &RHS) { assign(RHS.begin(), RHS.end()); }
  RegList(RegList &&RHS) noexcept { take(RHS); }
  ~RegList() { freeHeap(); }

  RegList &operator=(const RegList &RHS) {
    if (this != &RHS)
      assign(RHS.begin(), RHS.end());
    return *this;
  }
  RegList &operator=(RegList &&RHS) noexcept {
    if (this != &RHS) {
      freeHeap();
      take(RHS);
    }
    return *this;
  }
  RegList &operator=(std::initializer_list<Reg> Regs) {
    assign(Regs);
    return *this;
  }

  /// Replaces the contents with [First, Last), which may lie in this list.
  template <typename IterT> void assign(IterT First, IterT Last) {
    size_t Count = static_cast<size_t>(std::distance(First, Last));
    if (Count > Cap) {
      Size = 0; // nothing to keep: the source lies elsewhere
      grow(Count);
    }
    std::copy(First, Last, data());
    Size = static_cast<uint32_t>(Count);
  }
  void assign(std::initializer_list<Reg> Regs) {
    assign(Regs.begin(), Regs.end());
  }

  Reg *data() { return onHeap() ? Store.Heap : Store.Inline; }
  const Reg *data() const { return onHeap() ? Store.Heap : Store.Inline; }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  iterator begin() { return data(); }
  iterator end() { return data() + Size; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + Size; }

  Reg &operator[](size_t K) {
    GIS_ASSERT(K < Size, "operand index out of range");
    return data()[K];
  }
  const Reg &operator[](size_t K) const {
    GIS_ASSERT(K < Size, "operand index out of range");
    return data()[K];
  }
  Reg &front() { return (*this)[0]; }
  const Reg &front() const { return (*this)[0]; }
  Reg &back() { return (*this)[Size - 1]; }
  const Reg &back() const { return (*this)[Size - 1]; }

  void push_back(Reg R) {
    if (Size == Cap)
      grow(Size + 1);
    data()[Size++] = R;
  }
  void pop_back() {
    GIS_ASSERT(Size != 0, "pop_back on an empty operand list");
    --Size;
  }
  /// Empties the list and keeps its storage.
  void clear() { Size = 0; }

  iterator insert(const_iterator Pos, Reg R) {
    size_t K = static_cast<size_t>(Pos - begin());
    GIS_ASSERT(K <= Size, "insert position out of range");
    if (Size == Cap)
      grow(Size + 1);
    Reg *D = data();
    std::copy_backward(D + K, D + Size, D + Size + 1);
    D[K] = R;
    ++Size;
    return D + K;
  }
  iterator erase(const_iterator Pos) { return erase(Pos, Pos + 1); }
  iterator erase(const_iterator First, const_iterator Last) {
    size_t K = static_cast<size_t>(First - begin());
    size_t L = static_cast<size_t>(Last - begin());
    GIS_ASSERT(K <= L && L <= Size, "erase range out of range");
    Reg *D = data();
    std::copy(D + L, D + Size, D + K);
    Size -= static_cast<uint32_t>(L - K);
    return D + K;
  }

  bool operator==(const RegList &RHS) const {
    return std::equal(begin(), end(), RHS.begin(), RHS.end());
  }
  bool operator!=(const RegList &RHS) const { return !(*this == RHS); }

private:
  bool onHeap() const { return Cap != N; }

  /// Moves the elements to a heap buffer of at least \p MinCap registers.
  void grow(size_t MinCap) {
    size_t NewCap = std::max<size_t>(MinCap, 2 * size_t(Cap));
    auto *NewData = static_cast<Reg *>(::operator new(NewCap * sizeof(Reg)));
    std::copy(begin(), end(), NewData);
    freeHeap();
    Store.Heap = NewData;
    Cap = static_cast<uint32_t>(NewCap);
  }

  void freeHeap() {
    if (onHeap())
      ::operator delete(Store.Heap);
  }

  /// Takes \p RHS's elements (its heap buffer, if any) and empties it.
  void take(RegList &RHS) {
    if (RHS.onHeap()) {
      Store.Heap = RHS.Store.Heap;
      Cap = RHS.Cap;
      RHS.Cap = N;
    } else {
      std::copy(RHS.begin(), RHS.end(), Store.Inline);
      Cap = N;
    }
    Size = RHS.Size;
    RHS.Size = 0;
  }

  union Storage {
    Storage() {}
    Reg Inline[N];
    Reg *Heap;
  } Store;
  uint32_t Size = 0;
  uint32_t Cap = N; ///< N exactly when the elements are inline
};

/// The def list: LU's two defs are the most any opcode has.
using DefList = RegList<2>;
/// The use list: FMA's three uses are the most any non-call opcode has.
using UseList = RegList<3>;

/// One pseudo-IR instruction.
///
/// Operand conventions:
///  - Loads (L/LU/LF):   Defs = [dest (, base for LU)], Uses = [base],
///                       Imm = displacement.
///  - Stores (ST/STU/STF): Uses = [value, base], Defs = [base for STU],
///                       Imm = displacement.
///  - Compares (C/FC):   Defs = [cr], Uses = [a, b];  CI: Uses = [a], Imm.
///  - BT/BF:             Uses = [cr], Cond = tested bit, Target = block.
///  - CALL:              Callee = name, Uses = argument registers,
///                       Defs = optional result register.
///  - RET:               Uses = optional value register.
///  - SPILL/SPILLF:      Uses = [value], Imm = spill-slot id (no base reg).
///  - RELOAD/RELOADF:    Defs = [dest],  Imm = spill-slot id (no base reg).
class Instruction {
public:
  Instruction() = default;
  explicit Instruction(Opcode Op) : Op(Op) {}

  Opcode opcode() const { return Op; }
  void setOpcode(Opcode NewOp) { Op = NewOp; }

  const OpcodeInfo &info() const { return opcodeInfo(Op); }
  OpClass opClass() const { return info().Class; }
  bool isBranch() const { return info().IsBranch; }
  bool isTerminator() const { return info().IsTerminator; }
  bool touchesMemory() const { return info().TouchesMemory; }
  bool isLoad() const { return info().IsLoad; }
  bool isStore() const { return info().IsStore; }
  bool isCall() const { return Op == Opcode::CALL; }
  bool isSpillCode() const { return isSpillOpcode(Op); }

  /// True if the instruction may never be moved beyond its basic block
  /// (calls, branches, returns); paper Section 5.1.
  bool neverCrossesBlock() const { return info().NeverCrossBlock; }

  /// True if the instruction may never be scheduled speculatively (stores,
  /// trapping divides, calls, branches); paper Section 5.1.
  bool neverSpeculates() const { return info().NeverSpeculate; }

  DefList &defs() { return DefRegs; }
  const DefList &defs() const { return DefRegs; }
  UseList &uses() { return UseRegs; }
  const UseList &uses() const { return UseRegs; }

  int64_t imm() const { return Immediate; }
  void setImm(int64_t V) { Immediate = V; }

  CondBit cond() const { return Cond; }
  void setCond(CondBit C) { Cond = C; }

  BlockId target() const { return Target; }
  void setTarget(BlockId B) { Target = B; }

  const std::string &callee() const { return Callee; }
  void setCallee(std::string Name) { Callee = std::move(Name); }

  const std::string &comment() const { return Comment; }
  void setComment(std::string C) { Comment = std::move(C); }

  /// The base register of a memory access (the last use operand).  Spill
  /// code has no base register: slots are addressed by the immediate alone.
  Reg memBase() const {
    GIS_ASSERT(touchesMemory() && !isCall() && !isSpillCode() &&
                   !UseRegs.empty(),
               "memBase on a non-memory instruction");
    return UseRegs.back();
  }

  /// Original program order, assigned by Function::renumberOriginalOrder.
  /// Used as the final tie-break in the scheduling priority (rule 7).
  uint32_t originalOrder() const { return OrigOrder; }
  void setOriginalOrder(uint32_t N) { OrigOrder = N; }

  bool definesReg(Reg R) const {
    for (Reg D : DefRegs)
      if (D == R)
        return true;
    return false;
  }

  bool usesReg(Reg R) const {
    for (Reg U : UseRegs)
      if (U == R)
        return true;
    return false;
  }

private:
  // Ordered so the one-byte fields pack with Target: 128 bytes on LP64.
  Opcode Op = Opcode::NOP;
  CondBit Cond = CondBit::LT;
  BlockId Target = InvalidId;
  DefList DefRegs;
  UseList UseRegs;
  int64_t Immediate = 0;
  uint32_t OrigOrder = 0;
  std::string Callee;
  std::string Comment;
};

// Every function copy (a memory-tier hit, a checkpoint) copies its pool, so
// the instruction's size is a hit-path cost: it may not grow past the 144
// bytes of the heap-vector layout it replaced.
static_assert(sizeof(Instruction) <= 144, "Instruction grew");

} // namespace gis

#endif // GIS_IR_INSTRUCTION_H
