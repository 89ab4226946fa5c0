//===- ir/Parser.cpp - Textual IR parsing ---------------------------------===//

#include "ir/Parser.h"

#include "ir/Verifier.h"
#include "support/Assert.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace gis;

namespace {

constexpr const char *IntegerRange = "integer out of range";
constexpr const char *RegisterRange = "register index out of range";

/// Outcome of scanning a number or a register name.
enum class Scan { Ok, Malformed, OutOfRange };

/// Simple cursor over one instruction line.  Identifiers and the rest of
/// the line are views into the module text.
class LineCursor {
public:
  explicit LineCursor(std::string_view Text) : Text(Text) {}

  void skipSpace() {
    while (Pos < Text.size() && isAsciiSpace(Text[Pos]))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= Text.size();
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool consumeWord(std::string_view Word) {
    skipSpace();
    if (Text.substr(Pos, Word.size()) == Word) {
      size_t After = Pos + Word.size();
      if (After == Text.size() || !isAsciiAlnum(Text[After])) {
        Pos = After;
        return true;
      }
    }
    return false;
  }

  /// Identifier: [A-Za-z0-9_.]+; empty if there is none.
  std::string_view ident() {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (isAsciiAlnum(Text[Pos]) || Text[Pos] == '_' || Text[Pos] == '.'))
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  /// An optionally signed decimal integer that must fit int64_t.  With
  /// \p Negate the value read is negated first (the displacement after
  /// "mem[rB -"), so a magnitude of 2^63 reads as INT64_MIN.
  Scan integer(int64_t &Out, bool Negate = false) {
    skipSpace();
    size_t Start = Pos;
    bool Negative = Negate;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      Negative ^= Text[Pos++] == '-';
    size_t DigitsStart = Pos;
    while (Pos < Text.size() && isAsciiDigit(Text[Pos]))
      ++Pos;
    if (Pos == DigitsStart) {
      Pos = Start;
      return Scan::Malformed;
    }
    uint64_t Magnitude = 0;
    auto [End, Ec] = std::from_chars(Text.data() + DigitsStart,
                                     Text.data() + Pos, Magnitude);
    const uint64_t Limit = uint64_t(INT64_MAX) + (Negative ? 1 : 0);
    if (Ec != std::errc() || Magnitude > Limit)
      return Scan::OutOfRange;
    Out = static_cast<int64_t>(Negative ? 0 - Magnitude : Magnitude);
    return Scan::Ok;
  }

  std::string_view rest() {
    skipSpace();
    return Text.substr(Pos);
  }

private:
  std::string_view Text;
  size_t Pos = 0;
};

/// r<N>, f<N> or cr<N>, with N at most Reg::MaxParsedIndex (the rest of
/// the index space is headroom for the pipeline's fresh registers).
Scan scanReg(std::string_view Name, Reg &Out) {
  RegClass Class;
  std::string_view Digits;
  if (Name.starts_with("cr")) {
    Class = RegClass::CR;
    Digits = Name.substr(2);
  } else if (Name.size() >= 2 && (Name[0] == 'r' || Name[0] == 'f')) {
    Class = Name[0] == 'r' ? RegClass::GPR : RegClass::FPR;
    Digits = Name.substr(1);
  } else {
    return Scan::Malformed;
  }
  if (Digits.empty() ||
      !std::all_of(Digits.begin(), Digits.end(), isAsciiDigit))
    return Scan::Malformed;
  uint64_t Index = 0;
  auto [End, Ec] =
      std::from_chars(Digits.data(), Digits.data() + Digits.size(), Index);
  if (Ec != std::errc() || Index > Reg::MaxParsedIndex)
    return Scan::OutOfRange;
  Out = Reg::make(Class, static_cast<uint32_t>(Index));
  return Scan::Ok;
}

/// Parser over the whole module text.  Lines are walked in place; the label
/// table and pending branches hold views into the text, and a std::string
/// is built only where the IR stores one.
class ModuleParser {
public:
  explicit ModuleParser(std::string_view Text) : Text(Text) {}

  ParseResult run() {
    M = std::make_unique<Module>();
    // Every '\n' ends a line, and the text after the last one is a line
    // too (possibly empty), so a missing '}' is reported one line past the
    // final newline.
    for (size_t Pos = 0;; ++CurLine) {
      size_t NL = Text.find('\n', Pos);
      size_t End = NL == std::string_view::npos ? Text.size() : NL;
      if (!parseLine(Text.substr(Pos, End - Pos), End))
        return ParseResult{nullptr, std::move(Err), ErrLine};
      if (NL == std::string_view::npos)
        break;
      Pos = NL + 1;
    }
    if (CurFunc) {
      fail("missing '}' at end of input");
      return ParseResult{nullptr, std::move(Err), ErrLine};
    }
    return ParseResult{std::move(M), "", 0};
  }

private:
  struct PendingBranch {
    InstrId Instr;
    std::string_view Label;
    int Line;
  };

  /// Records \p Msg at \p Line and returns false.  A range error is final:
  /// the generic "malformed ..." message of an enclosing form does not
  /// replace it.
  bool failAt(std::string Msg, int Line) {
    if (!RangeError) {
      Err = std::move(Msg);
      ErrLine = Line;
    }
    return false;
  }

  bool fail(std::string Msg) { return failAt(std::move(Msg), CurLine); }

  bool rangeError(const char *Msg) {
    fail(Msg);
    RangeError = true;
    return false;
  }

  /// Parses the line [.., \p LineEnd) of the text.
  bool parseLine(std::string_view Raw, size_t LineEnd) {
    std::string_view Comment;
    if (size_t Semi = Raw.find(';'); Semi != std::string_view::npos) {
      Comment = trim(Raw.substr(Semi + 1));
      Raw = Raw.substr(0, Semi);
    }
    std::string_view Line = trim(Raw);
    if (Line.empty())
      return true;

    if (Line.starts_with("global "))
      return parseGlobal(Line.substr(7));
    if (Line.starts_with("func "))
      return parseFunctionHeader(Line.substr(5), LineEnd);
    if (Line == "}") {
      if (!CurFunc)
        return fail("unmatched '}'");
      return finishFunction();
    }
    if (!CurFunc)
      return fail("instruction outside a function");

    // Block label?
    if (Line.back() == ':') {
      std::string_view Label = trim(Line.substr(0, Line.size() - 1));
      auto [It, Inserted] = Labels.try_emplace(Label, InvalidId);
      if (!Inserted)
        return fail("duplicate block label '" + std::string(Label) + "'");
      It->second = CurBlock = CurFunc->createBlock(std::string(Label));
      return true;
    }

    if (CurBlock == InvalidId)
      return fail("instruction before the first block label");
    if (parseInstr(Line, Comment))
      return true;
    // Punctuation-level failures (a missing '=' or ',') fall through here
    // without a specific message.
    if (Err.empty())
      fail("malformed instruction '" + std::string(Line) + "'");
    return false;
  }

  bool parseGlobal(std::string_view Rest) {
    if (CurFunc)
      return fail("'global' inside a function");
    LineCursor C(Rest);
    std::string_view Name = C.ident();
    if (Name.empty() || !C.consume('['))
      return fail("malformed global declaration");
    int64_t Size = 0;
    Scan S = C.integer(Size);
    if (S == Scan::OutOfRange)
      return rangeError(IntegerRange);
    if (S != Scan::Ok || !C.consume(']'))
      return fail("malformed global size");
    if (Size < 0)
      return fail("negative global size");
    if (!GlobalNames.insert(Name).second)
      return fail("duplicate global '" + std::string(Name) + "'");
    if (!M->allocateGlobal(std::string(Name), Size))
      return fail("global '" + std::string(Name) +
                  "' does not fit in the address space");
    return true;
  }

  bool parseFunctionHeader(std::string_view Rest, size_t LineEnd) {
    if (CurFunc)
      return fail("nested 'func'");
    LineCursor C(Rest);
    std::string_view Name = C.ident();
    if (Name.empty())
      return fail("malformed function header (expected 'func NAME {')");
    if (!FuncNames.insert(Name).second)
      return fail("duplicate function '" + std::string(Name) + "'");
    CurFunc = &M->createFunction(std::string(Name));
    // The body's lines bound its instruction count; the printer closes a
    // function with "}" at the start of a line.
    size_t Close = Text.find("\n}", LineEnd);
    auto BodyEnd = Text.begin() + (Close == std::string_view::npos
                                       ? Text.size()
                                       : Close);
    CurFunc->reserveInstrs(
        static_cast<size_t>(std::count(Text.begin() + LineEnd, BodyEnd, '\n')));
    // Optional parameter register list: func f(r0, r1) {
    if (C.consume('(') && !C.consume(')')) {
      while (true) {
        Reg R;
        std::string_view RegName = C.ident();
        Scan S = RegName.empty() ? Scan::Malformed : scanReg(RegName, R);
        if (S == Scan::OutOfRange)
          return rangeError(RegisterRange);
        if (S != Scan::Ok)
          return fail("malformed parameter register");
        CurFunc->addParam(R);
        if (C.consume(')'))
          break;
        if (!C.consume(','))
          return fail("expected ',' or ')' in parameter list");
      }
    }
    if (!C.consume('{'))
      return fail("malformed function header (expected '{')");
    return true;
  }

  bool finishFunction() {
    for (const PendingBranch &P : Pending) {
      auto It = Labels.find(P.Label);
      if (It == Labels.end())
        return failAt("unknown branch target '" + std::string(P.Label) + "'",
                      P.Line);
      CurFunc->instr(P.Instr).setTarget(It->second);
    }
    Pending.clear();
    Labels.clear();
    CurFunc->recomputeCFG();
    CurFunc->renumberOriginalOrder();
    CurFunc = nullptr;
    CurBlock = InvalidId;
    return true;
  }

  bool expectReg(LineCursor &C, Reg &Out) {
    std::string_view Name = C.ident();
    if (Name.empty())
      return fail("expected register");
    switch (scanReg(Name, Out)) {
    case Scan::Ok:
      return true;
    case Scan::OutOfRange:
      return rangeError(RegisterRange);
    case Scan::Malformed:
      break;
    }
    return fail("malformed register '" + std::string(Name) + "'");
  }

  bool expectInt(LineCursor &C, int64_t &Out, bool Negate = false) {
    switch (C.integer(Out, Negate)) {
    case Scan::Ok:
      return true;
    case Scan::OutOfRange:
      return rangeError(IntegerRange);
    case Scan::Malformed:
      break;
    }
    return fail("expected integer");
  }

  /// mem[rB + d] -- leaves base and displacement in Out parameters.
  bool expectMemRef(LineCursor &C, Reg &Base, int64_t &Disp) {
    if (!C.consumeWord("mem") || !C.consume('['))
      return fail("expected 'mem['");
    if (!expectReg(C, Base))
      return false;
    Disp = 0;
    if (C.consume('+')) {
      if (!expectInt(C, Disp))
        return false;
    } else if (C.consume('-')) {
      if (!expectInt(C, Disp, /*Negate=*/true))
        return false;
    }
    if (!C.consume(']'))
      return fail("expected ']'");
    return true;
  }

  /// slot[N] -- a spill-slot reference (regalloc spill code).
  bool expectSlotRef(LineCursor &C, int64_t &Slot) {
    if (!C.consumeWord("slot") || !C.consume('['))
      return fail("expected 'slot['");
    if (!expectInt(C, Slot))
      return false;
    if (!C.consume(']'))
      return fail("expected ']'");
    return true;
  }

  bool parseInstr(std::string_view Line, std::string_view Comment) {
    LineCursor C(Line);
    std::string_view Mnemonic = C.ident();
    if (Mnemonic.empty())
      return fail("expected instruction mnemonic");

    // Optional paper-style instruction tag: "I7: LR r30 = r12".
    if (C.consume(':')) {
      std::string_view Tag = Mnemonic;
      Mnemonic = C.ident();
      if (Mnemonic.empty())
        return fail("expected mnemonic after tag '" + std::string(Tag) +
                    ":'");
      if (Comment.empty())
        Comment = Tag;
    }

    auto Op = parseOpcode(Mnemonic);
    if (!Op)
      return fail("unknown mnemonic '" + std::string(Mnemonic) + "'");

    Instruction I(*Op);
    Reg R1, R2, R3;
    int64_t Imm = 0;
    std::string_view BranchLabel;

    switch (*Op) {
    case Opcode::LI:
      if (!expectReg(C, R1) || !C.consume('=') || !expectInt(C, Imm))
        return fail("malformed LI (LI rD = imm)");
      I.defs() = {R1};
      I.setImm(Imm);
      break;
    case Opcode::LR:
    case Opcode::NEG:
      if (!expectReg(C, R1) || !C.consume('=') || !expectReg(C, R2))
        return false;
      I.defs() = {R1};
      I.uses() = {R2};
      break;
    case Opcode::AI:
    case Opcode::SL:
    case Opcode::SR:
    case Opcode::CI:
      if (!expectReg(C, R1) || !C.consume('=') || !expectReg(C, R2) ||
          !C.consume(',') || !expectInt(C, Imm))
        return false;
      I.defs() = {R1};
      I.uses() = {R2};
      I.setImm(Imm);
      break;
    case Opcode::A:
    case Opcode::S:
    case Opcode::MUL:
    case Opcode::DIV:
    case Opcode::REM:
    case Opcode::AND:
    case Opcode::OR:
    case Opcode::XOR:
    case Opcode::FA:
    case Opcode::FS:
    case Opcode::FM:
    case Opcode::FD:
    case Opcode::C:
    case Opcode::FC:
      if (!expectReg(C, R1) || !C.consume('=') || !expectReg(C, R2) ||
          !C.consume(',') || !expectReg(C, R3))
        return false;
      I.defs() = {R1};
      I.uses() = {R2, R3};
      break;
    case Opcode::FMA: {
      Reg R4;
      if (!expectReg(C, R1) || !C.consume('=') || !expectReg(C, R2) ||
          !C.consume(',') || !expectReg(C, R3) || !C.consume(',') ||
          !expectReg(C, R4))
        return false;
      I.defs() = {R1};
      I.uses() = {R2, R3, R4};
      break;
    }
    case Opcode::L:
    case Opcode::LF:
      if (!expectReg(C, R1) || !C.consume('='))
        return false;
      if (!expectMemRef(C, R2, Imm))
        return false;
      I.defs() = {R1};
      I.uses() = {R2};
      I.setImm(Imm);
      break;
    case Opcode::LU:
      if (!expectReg(C, R1) || !C.consume(',') || !expectReg(C, R2) ||
          !C.consume('='))
        return false;
      if (!expectMemRef(C, R3, Imm))
        return false;
      if (R2 != R3)
        return fail("LU must update its base register");
      I.defs() = {R1, R2};
      I.uses() = {R3};
      I.setImm(Imm);
      break;
    case Opcode::ST:
    case Opcode::STF:
    case Opcode::STU:
      if (!expectMemRef(C, R1, Imm) || !C.consume('=') || !expectReg(C, R2))
        return false;
      I.uses() = {R2, R1};
      I.setImm(Imm);
      if (*Op == Opcode::STU)
        I.defs() = {R1};
      break;
    case Opcode::B:
      BranchLabel = C.ident();
      if (BranchLabel.empty())
        return fail("expected branch target label");
      break;
    case Opcode::BT:
    case Opcode::BF: {
      BranchLabel = C.ident();
      if (BranchLabel.empty() || !C.consume(',') || !expectReg(C, R1) ||
          !C.consume(','))
        return fail("malformed branch (Bx LABEL, crS, cond)");
      std::string_view CondName = C.ident();
      if (CondName.empty())
        return fail("expected condition bit");
      auto Bit = parseCondBit(CondName);
      if (!Bit)
        return fail("unknown condition bit '" + std::string(CondName) + "'");
      I.uses() = {R1};
      I.setCond(*Bit);
      break;
    }
    case Opcode::CALL: {
      // CALL name(args) | CALL rD = name(args)
      std::string_view Callee = C.ident();
      if (Callee.empty())
        return fail("malformed CALL");
      if (C.consume('=')) {
        Reg Rd;
        Scan S = scanReg(Callee, Rd);
        if (S == Scan::OutOfRange)
          return rangeError(RegisterRange);
        if (S != Scan::Ok)
          return fail("malformed CALL result register");
        I.defs() = {Rd};
        Callee = C.ident();
        if (Callee.empty())
          return fail("expected callee name");
      }
      I.setCallee(std::string(Callee));
      if (!C.consume('('))
        return fail("expected '(' after callee name");
      if (!C.consume(')')) {
        while (true) {
          Reg Arg;
          if (!expectReg(C, Arg))
            return false;
          I.uses().push_back(Arg);
          if (C.consume(')'))
            break;
          if (!C.consume(','))
            return fail("expected ',' or ')' in CALL arguments");
        }
      }
      break;
    }
    case Opcode::RET:
      if (!C.atEnd()) {
        if (!expectReg(C, R1))
          return false;
        I.uses() = {R1};
      }
      break;
    case Opcode::SPILL:
    case Opcode::SPILLF:
      if (!expectSlotRef(C, Imm) || !C.consume('=') || !expectReg(C, R1))
        return fail("malformed spill (SPILL slot[N] = rS)");
      I.uses() = {R1};
      I.setImm(Imm);
      break;
    case Opcode::RELOAD:
    case Opcode::RELOADF:
      if (!expectReg(C, R1) || !C.consume('=') || !expectSlotRef(C, Imm))
        return fail("malformed reload (RELOAD rD = slot[N])");
      I.defs() = {R1};
      I.setImm(Imm);
      break;
    case Opcode::NOP:
      break;
    }

    if (!C.atEnd())
      return fail("trailing characters: '" + std::string(C.rest()) + "'");

    I.setComment(std::string(Comment));
    InstrId Id = CurFunc->appendInstr(CurBlock, std::move(I));
    if (!BranchLabel.empty())
      Pending.push_back(PendingBranch{Id, BranchLabel, CurLine});
    return true;
  }

  std::string_view Text;
  std::unique_ptr<Module> M;
  Function *CurFunc = nullptr;
  BlockId CurBlock = InvalidId;
  /// Per-function label bookkeeping for forward branch references.
  std::unordered_map<std::string_view, BlockId> Labels;
  std::vector<PendingBranch> Pending;
  /// Names defined so far: a second definition is a diagnostic, not a
  /// shadow every use would silently skip.
  std::unordered_set<std::string_view> FuncNames, GlobalNames;
  int CurLine = 1;
  std::string Err;
  int ErrLine = 0;
  bool RangeError = false;
};

} // namespace

ParseResult gis::parseModule(std::string_view Text) {
  return ModuleParser(Text).run();
}

std::unique_ptr<Module> gis::parseModuleOrDie(std::string_view Text) {
  ParseResult R = parseModule(Text);
  if (!R.ok()) {
    std::fprintf(stderr, "IR parse error at line %d: %s\n", R.Line,
                 R.Error.c_str());
    std::abort();
  }
  std::vector<std::string> Problems = verifyModule(*R.M);
  if (!Problems.empty()) {
    for (const std::string &P : Problems)
      std::fprintf(stderr, "IR verify error: %s\n", P.c_str());
    std::abort();
  }
  return std::move(R.M);
}
