//===- frontend/CodeGen.cpp - Mini-C to IR code generation -----------------===//

#include "frontend/CodeGen.h"

#include "frontend/Parser.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/Format.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <vector>

using namespace gis;

namespace {

/// The diagnostic for an array whose end would overflow the global address
/// space (Module::allocateGlobal).
std::string tooLarge(std::string_view Name) {
  return "array '" + std::string(Name) + "' does not fit in the address space";
}

/// A named entity visible in some scope.
struct Symbol {
  enum class Kind { Scalar, Array } K = Kind::Scalar;
  std::string_view Name;
  Reg ScalarReg;       // Scalar
  int64_t ArrayBase = 0; // Array: base address in static memory
  /// The symbol of the same name this one shadows (an index into the
  /// symbol vector), or NoSymbol.
  uint32_t Shadowed = NoSymbol;

  static constexpr uint32_t NoSymbol = ~uint32_t(0);
};

/// Thrown-free error channel: code generation aborts by setting Err and
/// unwinding through boolean returns.
struct CodeGenError {
  std::string Message;
  int Line = 0;
  bool Set = false;

  void set(const std::string &Msg, int Line_) {
    if (!Set) {
      Message = Msg;
      Line = Line_;
      Set = true;
    }
  }
};

/// Per-function code generator.
class FunctionCodeGen {
public:
  FunctionCodeGen(Module &M, Function &F, const FuncDecl &Decl,
                  CodeGenError &Err)
      : M(M), F(F), Decl(Decl), B(F), Err(Err) {}

  bool run() {
    // Code generation emits about 0.4 instructions per source token.
    F.reserveInstrs(Decl.NumTokens / 2 + 16);
    BlockId Entry = F.createBlock("entry");
    B.setInsertBlock(Entry);
    pushScope();

    for (std::string_view P : Decl.Params) {
      Reg R = F.newReg(RegClass::GPR);
      F.addParam(R);
      if (!declareScalar(P, R, Decl.Line))
        return false;
    }

    if (!genStmt(*Decl.Body))
      return false;

    // Implicit "return 0" when control can reach the end.
    if (!Terminated)
      B.ret();

    popScope();
    F.recomputeCFG();
    F.renumberOriginalOrder();
    return true;
  }

private:
  //===--------------------------------------------------------------------===
  // Scopes and symbols
  //===--------------------------------------------------------------------===

  // Every symbol in scope lives in one vector, innermost last; a scope is
  // the suffix starting at its mark.  Innermost maps each name declared so
  // far to its innermost symbol in scope (NoSymbol once none is), so a
  // lookup or a redeclaration check costs the same however many symbols
  // are in scope.
  void pushScope() { ScopeMarks.push_back(Symbols.size()); }
  void popScope() {
    for (size_t K = Symbols.size(); K-- != ScopeMarks.back();)
      Innermost.find(Symbols[K].Name)->second = Symbols[K].Shadowed;
    Symbols.resize(ScopeMarks.back());
    ScopeMarks.pop_back();
  }

  bool declare(Symbol S, int Line) {
    uint32_t &Slot =
        Innermost.try_emplace(S.Name, Symbol::NoSymbol).first->second;
    if (Slot != Symbol::NoSymbol && Slot >= ScopeMarks.back()) {
      Err.set("redeclaration of '" + std::string(S.Name) + "'", Line);
      return false;
    }
    S.Shadowed = Slot;
    Slot = static_cast<uint32_t>(Symbols.size());
    Symbols.push_back(S);
    return true;
  }

  bool declareScalar(std::string_view Name, Reg R, int Line) {
    Symbol S;
    S.K = Symbol::Kind::Scalar;
    S.Name = Name;
    S.ScalarReg = R;
    return declare(S, Line);
  }

  bool declareArray(std::string_view Name, int64_t Base, int Line) {
    Symbol S;
    S.K = Symbol::Kind::Array;
    S.Name = Name;
    S.ArrayBase = Base;
    return declare(S, Line);
  }

  std::optional<Symbol> lookup(std::string_view Name) const {
    if (auto It = Innermost.find(Name);
        It != Innermost.end() && It->second != Symbol::NoSymbol)
      return Symbols[It->second];
    // Global arrays.
    for (const GlobalArray &G : M.globals())
      if (G.Name == Name) {
        Symbol S;
        S.K = Symbol::Kind::Array;
        S.ArrayBase = G.Address;
        return S;
      }
    return std::nullopt;
  }

  /// The register holding an array's base address, materialized once in
  /// the entry block (a single LI definition dominating all uses, which
  /// the memory disambiguator resolves).
  Reg arrayBaseReg(int64_t Base) {
    for (const auto &[Known, R] : ArrayBaseRegs)
      if (Known == Base)
        return R;
    Reg R = F.newReg(RegClass::GPR);
    // Insert at the front of the entry block so the definition precedes
    // every use, including uses within the entry block itself.
    Instruction LI(Opcode::LI);
    LI.defs() = {R};
    LI.setImm(Base);
    LI.setComment("array base");
    InstrId Id = F.appendInstr(F.entry(), std::move(LI));
    std::vector<InstrId> &EntryInstrs = F.block(F.entry()).instrs();
    EntryInstrs.pop_back();
    EntryInstrs.insert(EntryInstrs.begin(), Id);
    ArrayBaseRegs.emplace_back(Base, R);
    return R;
  }

  //===--------------------------------------------------------------------===
  // Block plumbing
  //===--------------------------------------------------------------------===

  /// A new block labeled \p Hint plus the next label number.
  BlockId newBlock(const char *Hint) {
    char Buf[40];
    size_t N = std::strlen(Hint);
    GIS_ASSERT(N < 20, "block label hint too long");
    std::memcpy(Buf, Hint, N);
    char *End = std::to_chars(Buf + N, Buf + sizeof(Buf), NextLabel++).ptr;
    return F.createBlock(std::string(Buf, End));
  }

  /// Starts emitting into \p NewBlock (which must be the layout successor
  /// of whatever falls into it, or only reached by explicit branches).
  void switchTo(BlockId NewBlock) {
    B.setInsertBlock(NewBlock);
    Terminated = false;
  }

  //===--------------------------------------------------------------------===
  // Expressions
  //===--------------------------------------------------------------------===

  bool isComparison(BinOp Op) const {
    switch (Op) {
    case BinOp::Lt:
    case BinOp::Gt:
    case BinOp::Le:
    case BinOp::Ge:
    case BinOp::Eq:
    case BinOp::Ne:
      return true;
    default:
      return false;
    }
  }

  /// Evaluates \p E into a register (a fresh temporary unless the value
  /// already lives in one).
  Reg genExpr(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::Number: {
      Reg R = F.newReg(RegClass::GPR);
      B.li(R, E.Number);
      return R;
    }
    case ExprKind::Var: {
      std::optional<Symbol> S = lookup(E.Name);
      if (!S || S->K != Symbol::Kind::Scalar) {
        Err.set(notScalar(E.Name), E.Line);
        return Reg();
      }
      return S->ScalarReg;
    }
    case ExprKind::Index: {
      Reg Addr;
      int64_t Disp = 0;
      if (!genElementAddress(E.Name, E.Line, *E.Lhs, Addr, Disp))
        return Reg();
      Reg R = F.newReg(RegClass::GPR);
      B.load(R, Addr, Disp);
      return R;
    }
    case ExprKind::Unary: {
      if (E.UOp == UnOp::Neg) {
        Reg V = genExpr(*E.Lhs);
        if (!V.isValid())
          return Reg();
        Reg R = F.newReg(RegClass::GPR);
        B.neg(R, V);
        return R;
      }
      return materializeCond(E);
    }
    case ExprKind::Binary: {
      if (isComparison(E.BOp) || E.BOp == BinOp::LogAnd ||
          E.BOp == BinOp::LogOr)
        return materializeCond(E);
      Reg L = genExpr(*E.Lhs);
      if (!L.isValid())
        return Reg();
      // Constant right operand of +/-: use add-immediate.
      if ((E.BOp == BinOp::Add || E.BOp == BinOp::Sub) &&
          E.Rhs->Kind == ExprKind::Number) {
        Reg R = F.newReg(RegClass::GPR);
        int64_t Imm = E.BOp == BinOp::Add ? E.Rhs->Number : -E.Rhs->Number;
        B.ai(R, L, Imm);
        return R;
      }
      Reg RHS = genExpr(*E.Rhs);
      if (!RHS.isValid())
        return Reg();
      Reg R = F.newReg(RegClass::GPR);
      switch (E.BOp) {
      case BinOp::Add:
        B.add(R, L, RHS);
        break;
      case BinOp::Sub:
        B.sub(R, L, RHS);
        break;
      case BinOp::Mul:
        B.mul(R, L, RHS);
        break;
      case BinOp::Div:
        B.sdiv(R, L, RHS);
        break;
      case BinOp::Rem:
        B.srem(R, L, RHS);
        break;
      default:
        gis_unreachable("handled above");
      }
      return R;
    }
    case ExprKind::Call: {
      UseList Args;
      for (const Expr *A : E.Args) {
        Reg R = genExpr(*A);
        if (!R.isValid())
          return Reg();
        Args.push_back(R);
      }
      Reg Result = F.newReg(RegClass::GPR);
      B.call(std::string(E.Name), std::move(Args), Result);
      return Result;
    }
    }
    gis_unreachable("invalid expression kind");
  }

  /// Evaluates \p E and leaves the value in \p Dest (used for variable
  /// assignment; each variable lives in one stable register, the paper's
  /// "max is kept in r30" convention).  Top-level arithmetic computes
  /// directly into the destination, so "i = i + 1" is a single AI.
  bool genExprInto(const Expr &E, Reg Dest) {
    if (E.Kind == ExprKind::Number) {
      B.li(Dest, E.Number);
      return true;
    }
    if (E.Kind == ExprKind::Unary && E.UOp == UnOp::Neg) {
      Reg V = genExpr(*E.Lhs);
      if (!V.isValid())
        return false;
      B.neg(Dest, V);
      return true;
    }
    if (E.Kind == ExprKind::Binary && !isComparison(E.BOp) &&
        E.BOp != BinOp::LogAnd && E.BOp != BinOp::LogOr) {
      Reg L = genExpr(*E.Lhs);
      if (!L.isValid())
        return false;
      if ((E.BOp == BinOp::Add || E.BOp == BinOp::Sub) &&
          E.Rhs->Kind == ExprKind::Number) {
        B.ai(Dest, L,
             E.BOp == BinOp::Add ? E.Rhs->Number : -E.Rhs->Number);
        return true;
      }
      Reg RHS = genExpr(*E.Rhs);
      if (!RHS.isValid())
        return false;
      switch (E.BOp) {
      case BinOp::Add:
        B.add(Dest, L, RHS);
        break;
      case BinOp::Sub:
        B.sub(Dest, L, RHS);
        break;
      case BinOp::Mul:
        B.mul(Dest, L, RHS);
        break;
      case BinOp::Div:
        B.sdiv(Dest, L, RHS);
        break;
      case BinOp::Rem:
        B.srem(Dest, L, RHS);
        break;
      default:
        gis_unreachable("handled above");
      }
      return true;
    }
    Reg V = genExpr(E);
    if (!V.isValid())
      return false;
    if (V != Dest)
      B.lr(Dest, V);
    return true;
  }

  static std::string notScalar(std::string_view Name) {
    return "'" + std::string(Name) + "' is not a scalar variable";
  }

  /// Address of element \p Idx of array \p Name (named on line \p Line):
  /// base register plus displacement.
  bool genElementAddress(std::string_view Name, int Line, const Expr &Idx,
                         Reg &Base, int64_t &Disp) {
    std::optional<Symbol> S = lookup(Name);
    if (!S || S->K != Symbol::Kind::Array) {
      Err.set("'" + std::string(Name) + "' is not an array", Line);
      return false;
    }
    Reg BaseReg = arrayBaseReg(S->ArrayBase);
    if (Idx.Kind == ExprKind::Number) {
      Base = BaseReg;
      Disp = 4 * Idx.Number;
      return true;
    }
    Reg IdxReg = genExpr(Idx);
    if (!IdxReg.isValid())
      return false;
    Reg Scaled = F.newReg(RegClass::GPR);
    B.shl(Scaled, IdxReg, 2);
    Reg Addr = F.newReg(RegClass::GPR);
    B.add(Addr, BaseReg, Scaled);
    Base = Addr;
    Disp = 0;
    return true;
  }

  /// Materializes the truth value of \p E as 0/1 in a register: preload 1,
  /// branch to the join when the condition holds, overwrite with 0 on the
  /// fall-through path.
  Reg materializeCond(const Expr &E) {
    ensureOpenBlock();
    Reg R = F.newReg(RegClass::GPR);
    B.li(R, 1);
    BlockId DoneBlk = newBlock("cond.done");
    genCondBranch(E, DoneBlk, /*BranchWhenTrue=*/true);
    BlockId FalseBlk = newBlock("cond.false");
    moveBlockAfterCurrent(FalseBlk);
    switchTo(FalseBlk);
    B.li(R, 0);
    moveBlockAfterCurrent(DoneBlk);
    switchTo(DoneBlk);
    return R;
  }

  /// If the current block already ends with a branch (mid-condition code
  /// for short-circuit chains), opens a fresh fall-through block so
  /// subsequent emission is well-formed.
  void ensureOpenBlock() {
    if (F.terminatorOf(B.insertBlock()) == InvalidId)
      return;
    BlockId Cont = newBlock("cont");
    moveBlockAfterCurrent(Cont);
    switchTo(Cont);
  }

  /// Repositions \p Target in the layout right after the current insert
  /// block, making it the fall-through successor.
  /// Both blocks are almost always near the end of the layout, so both
  /// searches start there.
  void moveBlockAfterCurrent(BlockId Target) {
    std::vector<BlockId> &Layout = F.layout();
    auto It = std::find(Layout.rbegin(), Layout.rend(), Target);
    GIS_ASSERT(It != Layout.rend(), "block missing from layout");
    Layout.erase(std::next(It).base());
    auto Cur = std::find(Layout.rbegin(), Layout.rend(), B.insertBlock());
    GIS_ASSERT(Cur != Layout.rend(), "insert block missing from layout");
    Layout.insert(Cur.base(), Target);
  }

  /// Emits code so control branches to \p Target exactly when \p E is
  /// true (when \p BranchWhenTrue) or false (otherwise); control falls
  /// through in the opposite case.  May create intermediate blocks for
  /// short-circuit operators.
  bool genCondBranch(const Expr &E, BlockId Target, bool BranchWhenTrue) {
    ensureOpenBlock();

    // Constant conditions fold: branch unconditionally or fall through.
    if (E.Kind == ExprKind::Number) {
      if ((E.Number != 0) == BranchWhenTrue)
        B.br(Target);
      return true;
    }

    if (E.Kind == ExprKind::Unary && E.UOp == UnOp::Not)
      return genCondBranch(*E.Lhs, Target, !BranchWhenTrue);

    if (E.Kind == ExprKind::Binary && isComparison(E.BOp)) {
      Reg L = genExpr(*E.Lhs);
      if (!L.isValid())
        return false;
      Reg CRReg = F.newReg(RegClass::CR);
      if (E.Rhs->Kind == ExprKind::Number) {
        B.cmpi(CRReg, L, E.Rhs->Number);
      } else {
        Reg R = genExpr(*E.Rhs);
        if (!R.isValid())
          return false;
        B.cmp(CRReg, L, R);
      }
      emitCompareBranch(E.BOp, CRReg, Target, BranchWhenTrue);
      return true;
    }

    if (E.Kind == ExprKind::Binary &&
        (E.BOp == BinOp::LogAnd || E.BOp == BinOp::LogOr)) {
      bool IsAnd = E.BOp == BinOp::LogAnd;
      if (IsAnd != BranchWhenTrue) {
        // AND branching-when-false (or OR branching-when-true): both
        // operands branch to the same target.
        if (!genCondBranch(*E.Lhs, Target, BranchWhenTrue))
          return false;
        return genCondBranch(*E.Rhs, Target, BranchWhenTrue);
      }
      // AND branching-when-true (or OR when-false): the first operand
      // short-circuits around the second.
      BlockId Skip = newBlock(IsAnd ? "and.skip" : "or.skip");
      if (!genCondBranch(*E.Lhs, Skip, !BranchWhenTrue))
        return false;
      if (!genCondBranch(*E.Rhs, Target, BranchWhenTrue))
        return false;
      moveBlockAfterCurrent(Skip);
      switchTo(Skip);
      return true;
    }

    // General value: compare against zero.
    Reg V = genExpr(E);
    if (!V.isValid())
      return false;
    Reg CRReg = F.newReg(RegClass::CR);
    B.cmpi(CRReg, V, 0);
    // true means "not equal to zero".
    if (BranchWhenTrue)
      B.bf(CRReg, CondBit::EQ, Target);
    else
      B.bt(CRReg, CondBit::EQ, Target);
    return true;
  }

  /// Emits the BT/BF for a comparison whose CR value is in \p CRReg.
  void emitCompareBranch(BinOp Op, Reg CRReg, BlockId Target,
                         bool BranchWhenTrue) {
    // Map the comparison to (bit, polarity): the comparison is true when
    // <bit> has value <polarity>.
    CondBit Bit;
    bool Polarity;
    switch (Op) {
    case BinOp::Lt:
      Bit = CondBit::LT;
      Polarity = true;
      break;
    case BinOp::Gt:
      Bit = CondBit::GT;
      Polarity = true;
      break;
    case BinOp::Ge: // not less-than
      Bit = CondBit::LT;
      Polarity = false;
      break;
    case BinOp::Le: // not greater-than
      Bit = CondBit::GT;
      Polarity = false;
      break;
    case BinOp::Eq:
      Bit = CondBit::EQ;
      Polarity = true;
      break;
    case BinOp::Ne:
      Bit = CondBit::EQ;
      Polarity = false;
      break;
    default:
      gis_unreachable("not a comparison");
    }
    bool BranchOnSet = Polarity == BranchWhenTrue;
    if (BranchOnSet)
      B.bt(CRReg, Bit, Target);
    else
      B.bf(CRReg, Bit, Target);
  }

  //===--------------------------------------------------------------------===
  // Statements
  //===--------------------------------------------------------------------===

  /// True when \p S contains a 'continue' binding to the enclosing loop
  /// (nested loops capture their own).
  static bool containsContinue(const Stmt &S) {
    switch (S.Kind) {
    case StmtKind::Continue:
      return true;
    case StmtKind::While:
    case StmtKind::For:
      return false; // inner loop owns its continues
    case StmtKind::Block:
      for (const Stmt *Child : S.Body)
        if (containsContinue(*Child))
          return true;
      return false;
    case StmtKind::If:
      return (S.Then && containsContinue(*S.Then)) ||
             (S.Else && containsContinue(*S.Else));
    default:
      return false;
    }
  }

  bool genStmt(const Stmt &S) {
    if (Err.Set)
      return false;
    switch (S.Kind) {
    case StmtKind::Block: {
      pushScope();
      for (const Stmt *Child : S.Body) {
        if (Terminated)
          break; // unreachable code after return/break/continue: dropped
        if (!genStmt(*Child)) {
          popScope();
          return false;
        }
      }
      popScope();
      return true;
    }
    case StmtKind::DeclScalar: {
      Reg R = F.newReg(RegClass::GPR);
      if (!declareScalar(S.Name, R, S.Line))
        return false;
      if (S.Value)
        return genExprInto(*S.Value, R);
      return true;
    }
    case StmtKind::DeclArray: {
      std::string Name = F.name();
      Name += '.';
      Name += S.Name;
      Name += '.';
      appendUInt(Name, NextLabel++);
      const GlobalArray *G = M.allocateGlobal(std::move(Name), S.ArraySize);
      if (!G) {
        Err.set(tooLarge(S.Name), S.Line);
        return false;
      }
      return declareArray(S.Name, G->Address, S.Line);
    }
    case StmtKind::AssignVar: {
      std::optional<Symbol> Sym = lookup(S.Name);
      if (!Sym || Sym->K != Symbol::Kind::Scalar) {
        Err.set(notScalar(S.Name), S.Line);
        return false;
      }
      return genExprInto(*S.Value, Sym->ScalarReg);
    }
    case StmtKind::AssignIndex: {
      Reg Base;
      int64_t Disp = 0;
      if (!genElementAddress(S.Name, S.Line, *S.Index, Base, Disp))
        return false;
      Reg V = genExpr(*S.Value);
      if (!V.isValid())
        return false;
      B.store(V, Base, Disp);
      return true;
    }
    case StmtKind::If: {
      BlockId Join = newBlock("if.join");
      if (S.Else) {
        BlockId Else = newBlock("if.else");
        if (!genCondBranch(*S.Value, Else, /*BranchWhenTrue=*/false))
          return false;
        BlockId Then = newBlock("if.then");
        moveBlockAfterCurrent(Then);
        switchTo(Then);
        if (!genStmt(*S.Then))
          return false;
        if (!Terminated)
          B.br(Join);
        moveBlockAfterCurrent(Else);
        switchTo(Else);
        if (!genStmt(*S.Else))
          return false;
        moveBlockAfterCurrent(Join);
        if (!Terminated) {
          // fall through into Join
        }
        switchTo(Join);
        return true;
      }
      if (!genCondBranch(*S.Value, Join, /*BranchWhenTrue=*/false))
        return false;
      BlockId Then = newBlock("if.then");
      moveBlockAfterCurrent(Then);
      switchTo(Then);
      if (!genStmt(*S.Then))
        return false;
      moveBlockAfterCurrent(Join);
      switchTo(Join);
      return true;
    }
    case StmtKind::While: {
      // Loop inversion (guard + bottom test), the shape the paper's XL
      // compiler emits (Figure 2 is a bottom-test loop): the compare and
      // loop-closing branch stay in one block, where the delay heuristic
      // sees the compare->branch slots.  The condition is evaluated once
      // as an entry guard and once per iteration -- the same evaluation
      // sequence as the top-test form.
      BlockId Exit = newBlock("while.exit");
      if (!genCondBranch(*S.Value, Exit, /*BranchWhenTrue=*/false))
        return false;
      BlockId Body = newBlock("while.body");
      moveBlockAfterCurrent(Body);
      switchTo(Body);
      // 'continue' must re-test; give it a dedicated latch only when the
      // body actually uses it.
      bool HasContinue = containsContinue(*S.Then);
      BlockId Latch = HasContinue ? newBlock("while.latch") : InvalidId;
      LoopTargets.push_back({HasContinue ? Latch : InvalidId, Exit});
      bool OK = genStmt(*S.Then);
      LoopTargets.pop_back();
      if (!OK)
        return false;
      if (HasContinue) {
        moveBlockAfterCurrent(Latch);
        switchTo(Latch);
      }
      if (!Terminated &&
          !genCondBranch(*S.Value, Body, /*BranchWhenTrue=*/true))
        return false;
      moveBlockAfterCurrent(Exit);
      switchTo(Exit);
      return true;
    }
    case StmtKind::For: {
      // Same inversion as While; the step block doubles as the bottom
      // test (and as the 'continue' target), keeping increment + compare
      // + branch together like the paper's BL10.
      if (S.ForInit && !genStmt(*S.ForInit))
        return false;
      BlockId Exit = newBlock("for.exit");
      BlockId Step = newBlock("for.step");
      if (S.Value &&
          !genCondBranch(*S.Value, Exit, /*BranchWhenTrue=*/false))
        return false;
      BlockId Body = newBlock("for.body");
      moveBlockAfterCurrent(Body);
      switchTo(Body);
      LoopTargets.push_back({Step, Exit});
      bool OK = genStmt(*S.Then);
      LoopTargets.pop_back();
      if (!OK)
        return false;
      moveBlockAfterCurrent(Step);
      switchTo(Step);
      if (S.ForStep && !genStmt(*S.ForStep))
        return false;
      if (!Terminated) {
        if (S.Value) {
          if (!genCondBranch(*S.Value, Body, /*BranchWhenTrue=*/true))
            return false;
        } else {
          B.br(Body);
        }
      }
      moveBlockAfterCurrent(Exit);
      switchTo(Exit);
      return true;
    }
    case StmtKind::Return: {
      if (S.Value) {
        Reg V = genExpr(*S.Value);
        if (!V.isValid())
          return false;
        B.ret(V);
      } else {
        B.ret();
      }
      Terminated = true;
      return true;
    }
    case StmtKind::Break:
    case StmtKind::Continue: {
      if (LoopTargets.empty()) {
        Err.set(S.Kind == StmtKind::Break ? "'break' outside a loop"
                                          : "'continue' outside a loop",
                S.Line);
        return false;
      }
      BlockId Target = S.Kind == StmtKind::Break
                           ? LoopTargets.back().BreakTarget
                           : LoopTargets.back().ContinueTarget;
      GIS_ASSERT(Target != InvalidId,
                 "continue without a latch (containsContinue missed it)");
      B.br(Target);
      Terminated = true;
      return true;
    }
    case StmtKind::ExprStmt: {
      // Bare print(...) has no result; other calls and expressions
      // evaluate for side effects.
      if (S.Value->Kind == ExprKind::Call && S.Value->Name == "print") {
        UseList Args;
        for (const Expr *A : S.Value->Args) {
          Reg R = genExpr(*A);
          if (!R.isValid())
            return false;
          Args.push_back(R);
        }
        B.call("print", std::move(Args));
        return true;
      }
      return genExpr(*S.Value).isValid();
    }
    }
    gis_unreachable("invalid statement kind");
  }

  struct LoopTarget {
    BlockId ContinueTarget;
    BlockId BreakTarget;
  };

  Module &M;
  Function &F;
  const FuncDecl &Decl;
  IRBuilder B;
  CodeGenError &Err;
  std::vector<Symbol> Symbols;
  std::vector<size_t> ScopeMarks;
  std::unordered_map<std::string_view, uint32_t> Innermost;
  std::vector<std::pair<int64_t, Reg>> ArrayBaseRegs;
  std::vector<LoopTarget> LoopTargets;
  bool Terminated = false;
  unsigned NextLabel = 0;
};

} // namespace

CompileResult gis::generateIR(const Program &Prog) {
  CompileResult Result;
  auto M = std::make_unique<Module>();
  CodeGenError Err;

  for (const GlobalArrayDecl &G : Prog.GlobalArrays)
    if (!M->allocateGlobal(std::string(G.Name), G.Size)) {
      Result.Error = tooLarge(G.Name);
      Result.Line = G.Line;
      return Result;
    }

  for (const FuncDecl &Decl : Prog.Functions) {
    Function &F = M->createFunction(std::string(Decl.Name));
    FunctionCodeGen Gen(*M, F, Decl, Err);
    if (!Gen.run()) {
      Result.Error = Err.Set ? Err.Message : "code generation failed";
      Result.Line = Err.Line;
      return Result;
    }
  }

  std::vector<std::string> Problems = verifyModule(*M);
  if (!Problems.empty()) {
    Result.Error = "internal: generated ill-formed IR: " + Problems.front();
    return Result;
  }
  Result.M = std::move(M);
  return Result;
}

CompileResult gis::compileMiniC(std::string_view Source) {
  MiniCParseResult Parsed = parseMiniC(Source);
  if (!Parsed.ok()) {
    CompileResult R;
    R.Error = Parsed.Error;
    R.Line = Parsed.Line;
    return R;
  }
  return generateIR(*Parsed.Prog);
}

std::unique_ptr<Module> gis::compileMiniCOrDie(std::string_view Source) {
  CompileResult R = compileMiniC(Source);
  if (!R.ok()) {
    std::fprintf(stderr, "mini-C compile error at line %d: %s\n", R.Line,
                 R.Error.c_str());
    std::abort();
  }
  return std::move(R.M);
}
