//===- ir/Function.h - Function (procedure) ---------------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A function: an instruction pool, a set of basic blocks, and a layout
/// order.  Control flow is expressed by branch targets plus layout
/// fall-through, matching the paper's RS/6000 pseudo-code; explicit edge
/// lists are (re)derived on demand.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_IR_FUNCTION_H
#define GIS_IR_FUNCTION_H

#include "ir/BasicBlock.h"
#include "ir/Instruction.h"

#include <array>
#include <string>
#include <vector>

namespace gis {

/// A single function.  Blocks and instructions are stored in append-only
/// pools indexed by dense ids, so ids stay stable across scheduling
/// transformations.
class Function {
public:
  explicit Function(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  /// Registers receiving the function's arguments (set by frontends; used
  /// by the interpreter to implement calls between module functions).
  const std::vector<Reg> &params() const { return ParamRegs; }
  void addParam(Reg R) {
    ParamRegs.push_back(R);
    noteReg(R);
  }

  /// Rewrites parameter \p K to live in register \p R (register allocation
  /// moves incoming values to their assigned physical registers).
  void setParam(size_t K, Reg R) {
    GIS_ASSERT(K < ParamRegs.size(), "parameter index out of range");
    ParamRegs[K] = R;
    noteReg(R);
  }

  //===--------------------------------------------------------------------===
  // Registers
  //===--------------------------------------------------------------------===

  /// Allocates a fresh symbolic register of the given class.
  Reg newReg(RegClass Class) {
    unsigned &Counter = RegCounters[static_cast<unsigned>(Class)];
    return Reg::make(Class, Counter++);
  }

  /// Number of symbolic registers allocated in \p Class.  Registers created
  /// by the parser/builder with explicit indices also advance this.
  unsigned numRegs(RegClass Class) const {
    return RegCounters[static_cast<unsigned>(Class)];
  }

  /// Tells the function that register \p R is in use (parser support, where
  /// register indices appear explicitly in the text).
  void noteReg(Reg R) {
    unsigned &Counter = RegCounters[static_cast<unsigned>(R.regClass())];
    if (R.index() >= Counter)
      Counter = R.index() + 1;
  }

  /// Rewinds the register counter of \p Class to exactly \p Count
  /// (checkpoint support: RegionSnapshot::restore discards registers
  /// allocated after the snapshot, which by construction are unreferenced
  /// once the snapshot's instructions are back in place).
  void setRegCount(RegClass Class, unsigned Count) {
    RegCounters[static_cast<unsigned>(Class)] = Count;
  }

  /// Drops every block and pool entry appended since the function had
  /// \p NumBlocks blocks and \p NumInstrs instructions (checkpoint support:
  /// DeltaCheckpoint::restore discards what a rolled-back CFG transform
  /// appended, then puts back the layout, block lists and pool entries the
  /// transform rewrote, after which nothing references the dropped ids).
  void truncateForRollback(unsigned NumBlocks, unsigned NumInstrs);

  //===--------------------------------------------------------------------===
  // Blocks and layout
  //===--------------------------------------------------------------------===

  /// Creates a new block and appends it to the layout.
  BlockId createBlock(std::string Label);

  /// Creates a new block and inserts it into the layout right after
  /// \p After.
  BlockId createBlockAfter(BlockId After, std::string Label);

  BasicBlock &block(BlockId Id) {
    GIS_ASSERT(Id < Blocks.size(), "block id out of range");
    return Blocks[Id];
  }
  const BasicBlock &block(BlockId Id) const {
    GIS_ASSERT(Id < Blocks.size(), "block id out of range");
    return Blocks[Id];
  }

  unsigned numBlocks() const { return static_cast<unsigned>(Blocks.size()); }

  /// Emission/layout order of blocks.  Fall-through flows to the next
  /// layout entry.
  const std::vector<BlockId> &layout() const { return Layout; }
  std::vector<BlockId> &layout() { return Layout; }

  /// The entry block (first in layout).
  BlockId entry() const {
    GIS_ASSERT(!Layout.empty(), "function has no blocks");
    return Layout.front();
  }

  /// The block following \p Id in layout, or InvalidId if \p Id is last.
  BlockId layoutSuccessor(BlockId Id) const;

  //===--------------------------------------------------------------------===
  // Instructions
  //===--------------------------------------------------------------------===

  Instruction &instr(InstrId Id) {
    GIS_ASSERT(Id < Pool.size(), "instruction id out of range");
    return Pool[Id];
  }
  const Instruction &instr(InstrId Id) const {
    GIS_ASSERT(Id < Pool.size(), "instruction id out of range");
    return Pool[Id];
  }

  unsigned numInstrs() const { return static_cast<unsigned>(Pool.size()); }

  /// Appends \p I to block \p B; returns its id.
  InstrId appendInstr(BlockId B, Instruction &&I);

  /// Reserves pool room for \p N instructions (the parser's hint from the
  /// function's line count).
  void reserveInstrs(size_t N) { Pool.reserve(N); }

  /// Clones instruction \p Id into a fresh pool slot (not inserted into any
  /// block); used by loop unrolling and rotation.
  InstrId cloneInstr(InstrId Id);

  /// The terminator of \p B, or InvalidId if the block has none (pure
  /// fall-through block).
  InstrId terminatorOf(BlockId B) const;

  //===--------------------------------------------------------------------===
  // CFG
  //===--------------------------------------------------------------------===

  /// Rebuilds successor/predecessor lists from terminators and layout.
  /// Successor order convention: for a conditional branch, succs() lists
  /// the taken target first, then the fall-through.
  void recomputeCFG();

  /// Assigns Instruction::originalOrder by current layout and position.
  /// Called before scheduling so priority rule 7 ("pick the instruction that
  /// occurred first") reflects the incoming program text.
  void renumberOriginalOrder();

private:
  std::string Name;
  std::vector<Reg> ParamRegs;
  std::vector<Instruction> Pool;
  std::vector<BasicBlock> Blocks;
  std::vector<BlockId> Layout;
  std::array<unsigned, 3> RegCounters = {0, 0, 0};
};

} // namespace gis

#endif // GIS_IR_FUNCTION_H
