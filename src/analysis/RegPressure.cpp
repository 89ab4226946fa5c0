//===- analysis/RegPressure.cpp - Register pressure analysis ---------------===//

#include "analysis/RegPressure.h"

#include "analysis/Liveness.h"

#include <vector>

using namespace gis;

RegPressure gis::computeRegPressure(const Function &F) {
  RegPressure P;
  Liveness LV = Liveness::compute(F);

  // Per class: one live flag per register and the number of flags set.
  std::array<std::vector<uint8_t>, 3> Live;
  for (unsigned C = 0; C != 3; ++C)
    Live[C].assign(F.numRegs(static_cast<RegClass>(C)), 0);
  std::array<unsigned, 3> Count = {0, 0, 0};
  auto Flag = [&](Reg R) -> uint8_t & {
    return Live[static_cast<unsigned>(R.regClass())][R.index()];
  };
  auto Insert = [&](Reg R) {
    uint8_t &L = Flag(R);
    Count[static_cast<unsigned>(R.regClass())] += !L;
    L = 1;
  };
  auto Erase = [&](Reg R) {
    uint8_t &L = Flag(R);
    Count[static_cast<unsigned>(R.regClass())] -= L;
    L = 0;
  };

  for (BlockId B : F.layout()) {
    // Live set at the block bottom, then sweep instructions backward.
    for (unsigned C = 0; C != 3; ++C)
      std::fill(Live[C].begin(), Live[C].end(), 0);
    Count = {0, 0, 0};
    LV.forEachLiveOut(B, Insert);

    auto Record = [&]() {
      for (unsigned C = 0; C != 3; ++C) {
        if (Count[C] > P.MaxLive[C]) {
          P.MaxLive[C] = Count[C];
          if (C == 0)
            P.PeakBlock = B;
        }
      }
    };

    Record();
    const std::vector<InstrId> &Instrs = F.block(B).instrs();
    for (size_t K = Instrs.size(); K-- > 0;) {
      const Instruction &I = F.instr(Instrs[K]);
      for (Reg D : I.defs())
        Erase(D);
      for (Reg U : I.uses())
        Insert(U);
      Record();
    }
  }
  return P;
}
