//===- ir/Function.cpp - Function implementation --------------------------===//

#include "ir/Function.h"

#include <algorithm>

using namespace gis;

BlockId Function::createBlock(std::string Label) {
  BlockId Id = static_cast<BlockId>(Blocks.size());
  Blocks.emplace_back(Id, std::move(Label));
  Layout.push_back(Id);
  return Id;
}

BlockId Function::createBlockAfter(BlockId After, std::string Label) {
  BlockId Id = static_cast<BlockId>(Blocks.size());
  Blocks.emplace_back(Id, std::move(Label));
  auto It = std::find(Layout.begin(), Layout.end(), After);
  GIS_ASSERT(It != Layout.end(), "anchor block not in layout");
  Layout.insert(It + 1, Id);
  return Id;
}

void Function::truncateForRollback(unsigned NumBlocks, unsigned NumInstrs) {
  GIS_ASSERT(NumBlocks <= Blocks.size() && NumInstrs <= Pool.size(),
             "rollback cannot grow a function");
  Blocks.erase(Blocks.begin() + NumBlocks, Blocks.end());
  Pool.erase(Pool.begin() + NumInstrs, Pool.end());
}

BlockId Function::layoutSuccessor(BlockId Id) const {
  for (size_t I = 0, E = Layout.size(); I != E; ++I)
    if (Layout[I] == Id)
      return I + 1 < E ? Layout[I + 1] : InvalidId;
  gis_unreachable("block not in layout");
}

InstrId Function::appendInstr(BlockId B, Instruction &&I) {
  InstrId Id = static_cast<InstrId>(Pool.size());
  for (Reg D : I.defs())
    noteReg(D);
  for (Reg U : I.uses())
    noteReg(U);
  Pool.push_back(std::move(I));
  block(B).instrs().push_back(Id);
  return Id;
}

InstrId Function::cloneInstr(InstrId Id) {
  InstrId NewId = static_cast<InstrId>(Pool.size());
  Pool.push_back(Pool[Id]);
  return NewId;
}

InstrId Function::terminatorOf(BlockId B) const {
  const BasicBlock &BB = block(B);
  if (BB.empty())
    return InvalidId;
  InstrId Last = BB.instrs().back();
  return instr(Last).isTerminator() ? Last : InvalidId;
}

void Function::recomputeCFG() {
  for (BasicBlock &BB : Blocks)
    BB.clearEdges();

  for (size_t I = 0, E = Layout.size(); I != E; ++I) {
    BlockId B = Layout[I];
    BlockId Fall = I + 1 < E ? Layout[I + 1] : InvalidId;
    InstrId Term = terminatorOf(B);

    auto AddEdge = [&](BlockId To) {
      // Tolerate invalid targets (the verifier reports them); avoid
      // duplicate edges (a conditional branch whose target equals its
      // fall-through contributes a single CFG edge).
      if (To == InvalidId || To >= Blocks.size())
        return;
      for (BlockId S : block(B).succs())
        if (S == To)
          return;
      block(B).addSucc(To);
      block(To).addPred(B);
    };

    if (Term == InvalidId) {
      // Pure fall-through block.
      if (Fall != InvalidId)
        AddEdge(Fall);
      continue;
    }

    const Instruction &T = instr(Term);
    switch (T.opcode()) {
    case Opcode::B:
      AddEdge(T.target());
      break;
    case Opcode::BT:
    case Opcode::BF:
      // Taken target first, then fall-through (successor order convention).
      AddEdge(T.target());
      if (Fall != InvalidId)
        AddEdge(Fall);
      break;
    case Opcode::RET:
      break;
    default:
      gis_unreachable("unexpected terminator opcode");
    }
  }
}

void Function::renumberOriginalOrder() {
  uint32_t N = 0;
  for (BlockId B : Layout)
    for (InstrId I : block(B).instrs())
      instr(I).setOriginalOrder(N++);
}
