//===- machine/BranchPredictor.cpp - Branch predictor models ---------------===//

#include "machine/BranchPredictor.h"

#include "support/Assert.h"

#include <algorithm>

using namespace gis;

BranchPredictor::BranchPredictor(const BranchPredictorOptions &O) : Opts(O) {
  if (Opts.Kind == PredictorKind::Bimodal2Bit) {
    GIS_ASSERT(Opts.BimodalTableSize != 0 &&
                   (Opts.BimodalTableSize & (Opts.BimodalTableSize - 1)) == 0,
               "bimodal table size must be a power of two");
    Table.assign(Opts.BimodalTableSize, 2);
  }
}

namespace {

/// Deterministic branch identity hash (FNV-1a over the function name and
/// instruction id).  Pointer or std::hash based keys would vary run to run
/// and break the simulator's reproducibility.
uint32_t branchHash(const Function &F, InstrId Instr) {
  uint32_t H = 2166136261u;
  for (char C : F.name()) {
    H ^= static_cast<uint8_t>(C);
    H *= 16777619u;
  }
  for (unsigned Shift = 0; Shift != 32; Shift += 8) {
    H ^= static_cast<uint8_t>(Instr >> Shift);
    H *= 16777619u;
  }
  return H;
}

/// The block \p B falls through into, or InvalidId when its terminator
/// never falls through (unconditional branch, return).
BlockId fallthroughOf(const Function &F, BlockId B) {
  InstrId T = F.terminatorOf(B);
  if (T != InvalidId) {
    Opcode Op = F.instr(T).opcode();
    if (Op != Opcode::BT && Op != Opcode::BF)
      return InvalidId;
  }
  return F.layoutSuccessor(B);
}

} // namespace

bool BranchPredictor::observe(const Function &F, BlockId B, InstrId Instr,
                              bool Taken) {
  ++Stats.Branches;
  bool Predicted = true; // AlwaysTaken; also every fallback below
  switch (Opts.Kind) {
  case PredictorKind::None:
  case PredictorKind::AlwaysTaken:
    break;
  case PredictorKind::Bimodal2Bit: {
    uint32_t Idx = branchHash(F, Instr) & (Opts.BimodalTableSize - 1);
    Predicted = Table[Idx] >= 2;
    if (Taken)
      Table[Idx] = static_cast<uint8_t>(std::min<unsigned>(3, Table[Idx] + 1));
    else
      Table[Idx] = static_cast<uint8_t>(Table[Idx] == 0 ? 0 : Table[Idx] - 1);
    break;
  }
  case PredictorKind::ProfileOracle: {
    // Best static prediction: the branch's majority direction over the
    // recorded edge profile.  Unknown block (hand-built trace) or no
    // profile data degrades to always-taken, counted as a fallback.
    uint64_t TakenW = 0, FallW = 0;
    if (Opts.Profile && B != InvalidId && B < F.numBlocks()) {
      const Instruction &I = F.instr(Instr);
      TakenW = Opts.Profile->edgeFrequency(F, B, I.target());
      BlockId Fall = fallthroughOf(F, B);
      FallW = Fall == InvalidId ? 0 : Opts.Profile->edgeFrequency(F, B, Fall);
    }
    if (TakenW || FallW)
      Predicted = TakenW >= FallW;
    else
      ++Stats.OracleFallbacks;
    break;
  }
  }
  if (Predicted != Taken) {
    ++Stats.Mispredicts;
    return true;
  }
  return false;
}
