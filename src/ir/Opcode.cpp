//===- ir/Opcode.cpp - Opcode property tables -----------------------------===//

#include "ir/Opcode.h"

#include "support/Assert.h"

#include <array>

using namespace gis;

namespace {

constexpr OpcodeInfo makeInfo(std::string_view Name, OpClass Class,
                              bool IsBranch = false, bool IsTerminator = false,
                              bool TouchesMemory = false, bool IsLoad = false,
                              bool IsStore = false, bool NeverCrossBlock = false,
                              bool NeverSpeculate = false) {
  return OpcodeInfo{Name,   Class,  IsBranch,       IsTerminator,
                    TouchesMemory,  IsLoad, IsStore, NeverCrossBlock,
                    NeverSpeculate};
}

// Indexed by Opcode.  Kept in the exact order of the enum; checked by the
// unit tests against opcodeName round-trips.
constexpr std::array<OpcodeInfo, NumOpcodes> InfoTable = {{
    makeInfo("LI", OpClass::FixedArith),
    makeInfo("LR", OpClass::FixedArith),
    makeInfo("AI", OpClass::FixedArith),
    makeInfo("A", OpClass::FixedArith),
    makeInfo("S", OpClass::FixedArith),
    makeInfo("MUL", OpClass::FixedArith),
    // DIV/REM trap on a zero divisor, so hoisting one above a guarding
    // branch could introduce a spurious trap: never speculate them.
    makeInfo("DIV", OpClass::FixedArith, false, false, false, false, false,
             false, /*NeverSpeculate=*/true),
    makeInfo("REM", OpClass::FixedArith, false, false, false, false, false,
             false, /*NeverSpeculate=*/true),
    makeInfo("AND", OpClass::FixedArith),
    makeInfo("OR", OpClass::FixedArith),
    makeInfo("XOR", OpClass::FixedArith),
    makeInfo("SL", OpClass::FixedArith),
    makeInfo("SR", OpClass::FixedArith),
    makeInfo("NEG", OpClass::FixedArith),
    makeInfo("L", OpClass::Load, false, false, /*TouchesMemory=*/true,
             /*IsLoad=*/true),
    makeInfo("LU", OpClass::Load, false, false, /*TouchesMemory=*/true,
             /*IsLoad=*/true),
    makeInfo("ST", OpClass::Store, false, false, /*TouchesMemory=*/true,
             /*IsLoad=*/false, /*IsStore=*/true, /*NeverCrossBlock=*/false,
             /*NeverSpeculate=*/true),
    makeInfo("STU", OpClass::Store, false, false, /*TouchesMemory=*/true,
             /*IsLoad=*/false, /*IsStore=*/true, /*NeverCrossBlock=*/false,
             /*NeverSpeculate=*/true),
    makeInfo("LF", OpClass::FloatLoad, false, false, /*TouchesMemory=*/true,
             /*IsLoad=*/true),
    makeInfo("STF", OpClass::FloatStore, false, false, /*TouchesMemory=*/true,
             /*IsLoad=*/false, /*IsStore=*/true, /*NeverCrossBlock=*/false,
             /*NeverSpeculate=*/true),
    makeInfo("FA", OpClass::FloatArith),
    makeInfo("FS", OpClass::FloatArith),
    makeInfo("FM", OpClass::FloatArith),
    makeInfo("FD", OpClass::FloatArith),
    makeInfo("FMA", OpClass::FloatArith),
    makeInfo("C", OpClass::FixCompare),
    makeInfo("CI", OpClass::FixCompare),
    makeInfo("FC", OpClass::FpCompare),
    makeInfo("B", OpClass::Branch, /*IsBranch=*/true, /*IsTerminator=*/true,
             false, false, false, /*NeverCrossBlock=*/true,
             /*NeverSpeculate=*/true),
    makeInfo("BT", OpClass::Branch, /*IsBranch=*/true, /*IsTerminator=*/true,
             false, false, false, /*NeverCrossBlock=*/true,
             /*NeverSpeculate=*/true),
    makeInfo("BF", OpClass::Branch, /*IsBranch=*/true, /*IsTerminator=*/true,
             false, false, false, /*NeverCrossBlock=*/true,
             /*NeverSpeculate=*/true),
    makeInfo("CALL", OpClass::Call, false, false, /*TouchesMemory=*/true,
             false, false, /*NeverCrossBlock=*/true, /*NeverSpeculate=*/true),
    makeInfo("RET", OpClass::Branch, false, /*IsTerminator=*/true, false,
             false, false, /*NeverCrossBlock=*/true, /*NeverSpeculate=*/true),
    // Spill code is emitted after scheduling; the post-allocation local
    // rescheduling pass may reorder it within a block (slot dependences are
    // tracked by MemDisambig), but it must never move across blocks or be
    // speculated: a slot is live exactly between its SPILL and RELOADs.
    makeInfo("SPILL", OpClass::Store, false, false, /*TouchesMemory=*/true,
             /*IsLoad=*/false, /*IsStore=*/true, /*NeverCrossBlock=*/true,
             /*NeverSpeculate=*/true),
    makeInfo("RELOAD", OpClass::Load, false, false, /*TouchesMemory=*/true,
             /*IsLoad=*/true, /*IsStore=*/false, /*NeverCrossBlock=*/true,
             /*NeverSpeculate=*/true),
    makeInfo("SPILLF", OpClass::FloatStore, false, false,
             /*TouchesMemory=*/true, /*IsLoad=*/false, /*IsStore=*/true,
             /*NeverCrossBlock=*/true, /*NeverSpeculate=*/true),
    makeInfo("RELOADF", OpClass::FloatLoad, false, false,
             /*TouchesMemory=*/true, /*IsLoad=*/true, /*IsStore=*/false,
             /*NeverCrossBlock=*/true, /*NeverSpeculate=*/true),
    makeInfo("NOP", OpClass::Other),
}};

} // namespace

const OpcodeInfo &gis::opcodeInfo(Opcode Op) {
  unsigned Index = static_cast<unsigned>(Op);
  GIS_ASSERT(Index < NumOpcodes, "opcode out of range");
  return InfoTable[Index];
}

std::string_view gis::opcodeName(Opcode Op) { return opcodeInfo(Op).Name; }

namespace {

/// Mnemonics are at most 7 characters, so a name and its length pack into
/// one word; parseOpcode compares words instead of strings.
constexpr size_t MaxMnemonicSize = 7;

constexpr uint64_t packMnemonic(std::string_view Name) {
  uint64_t W = uint64_t(Name.size()) << 56;
  for (size_t K = 0; K != Name.size(); ++K)
    W |= uint64_t(static_cast<unsigned char>(Name[K])) << (8 * K);
  return W;
}

constexpr std::array<uint64_t, NumOpcodes> packNames() {
  std::array<uint64_t, NumOpcodes> P{};
  for (unsigned I = 0; I != NumOpcodes; ++I)
    P[I] = packMnemonic(InfoTable[I].Name);
  return P;
}

constexpr bool namesFitAWord() {
  for (const OpcodeInfo &Info : InfoTable)
    if (Info.Name.size() > MaxMnemonicSize)
      return false;
  return true;
}
static_assert(namesFitAWord(), "a mnemonic is too long to pack");

constexpr std::array<uint64_t, NumOpcodes> PackedNames = packNames();

} // namespace

std::optional<Opcode> gis::parseOpcode(std::string_view Name) {
  if (Name.size() > MaxMnemonicSize)
    return std::nullopt;
  uint64_t W = packMnemonic(Name);
  for (unsigned I = 0; I != NumOpcodes; ++I)
    if (PackedNames[I] == W)
      return static_cast<Opcode>(I);
  return std::nullopt;
}

std::string_view gis::condBitName(CondBit Bit) {
  switch (Bit) {
  case CondBit::LT:
    return "lt";
  case CondBit::GT:
    return "gt";
  case CondBit::EQ:
    return "eq";
  }
  gis_unreachable("invalid condition bit");
}

std::optional<CondBit> gis::parseCondBit(std::string_view Name) {
  if (Name == "lt")
    return CondBit::LT;
  if (Name == "gt")
    return CondBit::GT;
  if (Name == "eq")
    return CondBit::EQ;
  return std::nullopt;
}
