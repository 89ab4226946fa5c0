//===- frontend/Parser.cpp - Mini-C parser ---------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"
#include "support/Assert.h"

using namespace gis;

namespace {

/// The diagnostic for input nested deeper than MaxNestingDepth.
constexpr const char *TooDeep = "nesting deeper than 256 levels";
static_assert(MaxNestingDepth == 256, "TooDeep spells the bound");

/// Recursive-descent parser over the token stream.  Nodes and lists go to
/// the Program's arena; lists are gathered on scratch stacks that every
/// nesting level shares, then copied out whole.
class MiniCParser {
public:
  MiniCParser(const std::vector<Token> &Tokens, Program &Prog)
      : Tokens(Tokens), Prog(Prog), Arena(Prog.Arena) {}

  /// Parses the whole token stream into Prog; false (with the diagnostic
  /// in Err and ErrLine) on the first error.
  bool run() {
    while (!at(TokKind::End)) {
      if (!expect(TokKind::KwInt, "declarations start with 'int'"))
        return false;
      size_t Start = Pos;
      if (!expect(TokKind::Identifier, "expected a name after 'int'"))
        return false;
      const Token &Name = *Cur;

      if (at(TokKind::LBracket)) {
        // Global array.
        advance();
        if (!expect(TokKind::Number, "expected array size"))
          return false;
        int64_t Size = Cur->Value;
        if (!expect(TokKind::RBracket, "expected ']'") ||
            !expect(TokKind::Semi, "expected ';'"))
          return false;
        Prog.GlobalArrays.push_back({Name.Text, Size, Name.Line});
        continue;
      }

      // Function.
      FuncDecl Fn;
      Fn.Name = Name.Text;
      Fn.Line = Name.Line;
      if (!expect(TokKind::LParen, "expected '(' after function name"))
        return false;
      size_t Mark = Params.size();
      if (!at(TokKind::RParen)) {
        while (true) {
          if (!expect(TokKind::KwInt, "parameters are 'int NAME'"))
            return false;
          if (!expect(TokKind::Identifier, "expected parameter name"))
            return false;
          Params.push_back(Cur->Text);
          if (at(TokKind::Comma)) {
            advance();
            continue;
          }
          break;
        }
      }
      Fn.Params = Arena.copy(
          std::span<const std::string_view>(Params).subspan(Mark));
      Params.resize(Mark);
      if (!expect(TokKind::RParen, "expected ')'"))
        return false;
      Fn.Body = parseBlock();
      if (!Fn.Body)
        return false;
      Fn.NumTokens = static_cast<unsigned>(Pos - Start);
      Prog.Functions.push_back(Fn);
    }
    return true;
  }

  std::string Err;
  int ErrLine = 0;

private:
  //===--------------------------------------------------------------------===
  // Token plumbing
  //===--------------------------------------------------------------------===

  const Token &peek(size_t Ahead = 0) const {
    size_t Idx = Pos + Ahead;
    return Idx < Tokens.size() ? Tokens[Idx] : Tokens.back();
  }

  bool at(TokKind K) const { return Tokens[Pos].Kind == K; }

  /// Consumes the current token, leaving it in Cur (the End token is
  /// never consumed past).
  void advance() {
    Cur = &Tokens[Pos];
    if (Pos + 1 < Tokens.size())
      ++Pos;
  }

  /// Consumes a token of kind \p K (leaving it in Cur); records an error
  /// otherwise.
  bool expect(TokKind K, const char *Msg) {
    if (!at(K)) {
      error(std::string(Msg) + " (found " + tokKindName(peek().Kind) + ")");
      return false;
    }
    advance();
    return true;
  }

  void error(std::string Msg) { error(std::move(Msg), peek().Line); }

  void error(std::string Msg, int Line) {
    if (Err.empty()) {
      Err = std::move(Msg);
      ErrLine = Line;
    }
  }

  /// One level of statement or expression recursion, for the lifetime of
  /// the guard; ok() is false past MaxNestingDepth.
  class Nest {
  public:
    Nest(MiniCParser &P, unsigned &Depth, int Line) : Depth(Depth) {
      if (++Depth > MaxNestingDepth)
        P.error(TooDeep, Line);
    }
    Nest(const Nest &) = delete;
    Nest &operator=(const Nest &) = delete;
    ~Nest() { --Depth; }
    bool ok() const { return Depth <= MaxNestingDepth; }

  private:
    unsigned &Depth;
  };

  //===--------------------------------------------------------------------===
  // Statements
  //===--------------------------------------------------------------------===

  Stmt *newStmt(StmtKind Kind, int Line) {
    Stmt *S = Arena.make<Stmt>();
    S->Kind = Kind;
    S->Line = Line;
    return S;
  }

  Stmt *parseBlock() {
    if (!expect(TokKind::LBrace, "expected '{'"))
      return nullptr;
    Stmt *S = newStmt(StmtKind::Block, Cur->Line);
    size_t Mark = Stmts.size();
    while (!at(TokKind::RBrace)) {
      if (at(TokKind::End)) {
        error("unexpected end of input inside a block");
        return nullptr;
      }
      Stmt *Child = parseStmt();
      if (!Child)
        return nullptr;
      Stmts.push_back(Child);
    }
    advance(); // consume '}'
    S->Body = Arena.copy(std::span<Stmt *const>(Stmts).subspan(Mark));
    Stmts.resize(Mark);
    return S;
  }

  /// A "simple" statement for for-headers: declaration or assignment or
  /// expression, without the trailing semicolon.
  Stmt *parseSimple() {
    if (at(TokKind::KwInt))
      return parseDecl(/*ConsumeSemi=*/false);
    return parseAssignOrExpr(/*ConsumeSemi=*/false);
  }

  Stmt *parseDecl(bool ConsumeSemi) {
    advance(); // 'int'
    if (!expect(TokKind::Identifier, "expected a name after 'int'"))
      return nullptr;
    Stmt *S = newStmt(StmtKind::DeclScalar, Cur->Line);
    S->Name = Cur->Text;
    if (at(TokKind::LBracket)) {
      advance();
      if (!expect(TokKind::Number, "expected array size"))
        return nullptr;
      S->Kind = StmtKind::DeclArray;
      S->ArraySize = Cur->Value;
      if (!expect(TokKind::RBracket, "expected ']'"))
        return nullptr;
    } else if (at(TokKind::Assign)) {
      advance();
      S->Value = parseExpr();
      if (!S->Value)
        return nullptr;
    }
    if (ConsumeSemi && !expect(TokKind::Semi, "expected ';'"))
      return nullptr;
    return S;
  }

  Stmt *parseAssignOrExpr(bool ConsumeSemi) {
    Stmt *S = newStmt(StmtKind::ExprStmt, peek().Line);

    // Lookahead for the assignment forms.
    if (at(TokKind::Identifier) && peek(1).Kind == TokKind::Assign) {
      advance();
      S->Kind = StmtKind::AssignVar;
      S->Name = Cur->Text;
      advance(); // '='
      S->Value = parseExpr();
      if (!S->Value)
        return nullptr;
    } else if (at(TokKind::Identifier) && peek(1).Kind == TokKind::LBracket &&
               isIndexAssign()) {
      advance();
      S->Kind = StmtKind::AssignIndex;
      S->Name = Cur->Text;
      advance(); // '['
      S->Index = parseExpr();
      if (!S->Index)
        return nullptr;
      if (!expect(TokKind::RBracket, "expected ']'") ||
          !expect(TokKind::Assign, "expected '=' after subscript"))
        return nullptr;
      S->Value = parseExpr();
      if (!S->Value)
        return nullptr;
    } else {
      S->Value = parseExpr();
      if (!S->Value)
        return nullptr;
    }
    if (ConsumeSemi && !expect(TokKind::Semi, "expected ';'"))
      return nullptr;
    return S;
  }

  /// Scans ahead over a balanced bracket group to see whether "NAME [ ...
  /// ] =" follows (distinguishing "a[i] = e;" from the expression
  /// "a[i] + 1;").
  bool isIndexAssign() const {
    size_t K = Pos + 1; // at '['
    int Depth = 0;
    while (K < Tokens.size()) {
      TokKind Kind = Tokens[K].Kind;
      if (Kind == TokKind::LBracket)
        ++Depth;
      else if (Kind == TokKind::RBracket) {
        --Depth;
        if (Depth == 0)
          return K + 1 < Tokens.size() &&
                 Tokens[K + 1].Kind == TokKind::Assign;
      } else if (Kind == TokKind::Semi || Kind == TokKind::End) {
        return false;
      }
      ++K;
    }
    return false;
  }

  /// A statement nested in a block or a control statement: one level.
  Stmt *parseStmt() {
    Nest N(*this, StmtDepth, peek().Line);
    if (!N.ok())
      return nullptr;
    switch (peek().Kind) {
    case TokKind::LBrace:
      return parseBlock();
    case TokKind::KwInt:
      return parseDecl(/*ConsumeSemi=*/true);
    case TokKind::KwIf: {
      advance();
      Stmt *S = newStmt(StmtKind::If, Cur->Line);
      if (!expect(TokKind::LParen, "expected '(' after 'if'"))
        return nullptr;
      S->Value = parseExpr();
      if (!S->Value || !expect(TokKind::RParen, "expected ')'"))
        return nullptr;
      S->Then = parseStmt();
      if (!S->Then)
        return nullptr;
      if (at(TokKind::KwElse)) {
        advance();
        S->Else = parseStmt();
        if (!S->Else)
          return nullptr;
      }
      return S;
    }
    case TokKind::KwWhile: {
      advance();
      Stmt *S = newStmt(StmtKind::While, Cur->Line);
      if (!expect(TokKind::LParen, "expected '(' after 'while'"))
        return nullptr;
      S->Value = parseExpr();
      if (!S->Value || !expect(TokKind::RParen, "expected ')'"))
        return nullptr;
      S->Then = parseStmt();
      if (!S->Then)
        return nullptr;
      return S;
    }
    case TokKind::KwFor: {
      advance();
      Stmt *S = newStmt(StmtKind::For, Cur->Line);
      if (!expect(TokKind::LParen, "expected '(' after 'for'"))
        return nullptr;
      if (!at(TokKind::Semi)) {
        S->ForInit = parseSimple();
        if (!S->ForInit)
          return nullptr;
      }
      if (!expect(TokKind::Semi, "expected ';' in 'for'"))
        return nullptr;
      if (!at(TokKind::Semi)) {
        S->Value = parseExpr();
        if (!S->Value)
          return nullptr;
      }
      if (!expect(TokKind::Semi, "expected second ';' in 'for'"))
        return nullptr;
      if (!at(TokKind::RParen)) {
        S->ForStep = parseSimple();
        if (!S->ForStep)
          return nullptr;
      }
      if (!expect(TokKind::RParen, "expected ')'"))
        return nullptr;
      S->Then = parseStmt();
      if (!S->Then)
        return nullptr;
      return S;
    }
    case TokKind::KwReturn: {
      advance();
      Stmt *S = newStmt(StmtKind::Return, Cur->Line);
      if (!at(TokKind::Semi)) {
        S->Value = parseExpr();
        if (!S->Value)
          return nullptr;
      }
      if (!expect(TokKind::Semi, "expected ';'"))
        return nullptr;
      return S;
    }
    case TokKind::KwBreak:
    case TokKind::KwContinue: {
      advance();
      Stmt *S = newStmt(Cur->Kind == TokKind::KwBreak ? StmtKind::Break
                                                      : StmtKind::Continue,
                        Cur->Line);
      if (!expect(TokKind::Semi, "expected ';'"))
        return nullptr;
      return S;
    }
    default:
      return parseAssignOrExpr(/*ConsumeSemi=*/true);
    }
  }

  //===--------------------------------------------------------------------===
  // Expressions (precedence climbing)
  //===--------------------------------------------------------------------===

  Expr *newExpr(ExprKind Kind, int Line, unsigned Depth) {
    Expr *E = Arena.make<Expr>();
    E->Kind = Kind;
    E->Line = Line;
    E->Depth = static_cast<uint16_t>(Depth);
    return E;
  }

  Expr *parseExpr() { return parseLevel(0); }

  /// The binary operator a token spells and its precedence level (0 is
  /// ||, 5 is * / %); false for any other token.
  static bool binaryOp(TokKind K, BinOp &Op, unsigned &Level) {
    switch (K) {
    case TokKind::PipePipe:
      Op = BinOp::LogOr, Level = 0;
      return true;
    case TokKind::AmpAmp:
      Op = BinOp::LogAnd, Level = 1;
      return true;
    case TokKind::EqEq:
      Op = BinOp::Eq, Level = 2;
      return true;
    case TokKind::NotEq:
      Op = BinOp::Ne, Level = 2;
      return true;
    case TokKind::Lt:
      Op = BinOp::Lt, Level = 3;
      return true;
    case TokKind::Gt:
      Op = BinOp::Gt, Level = 3;
      return true;
    case TokKind::Le:
      Op = BinOp::Le, Level = 3;
      return true;
    case TokKind::Ge:
      Op = BinOp::Ge, Level = 3;
      return true;
    case TokKind::Plus:
      Op = BinOp::Add, Level = 4;
      return true;
    case TokKind::Minus:
      Op = BinOp::Sub, Level = 4;
      return true;
    case TokKind::Star:
      Op = BinOp::Mul, Level = 5;
      return true;
    case TokKind::Slash:
      Op = BinOp::Div, Level = 5;
      return true;
    case TokKind::Percent:
      Op = BinOp::Rem, Level = 5;
      return true;
    default:
      return false;
    }
  }

  /// One left-associative precedence level: Level 0 is ||, 5 is * / %,
  /// and the operands of level 5 are unary expressions.  Every operand
  /// after the first deepens the tree by one level.
  Expr *parseLevel(unsigned Level) {
    Expr *L = Level == 5 ? parseUnary() : parseLevel(Level + 1);
    BinOp Op;
    unsigned OpLevel;
    while (L && binaryOp(peek().Kind, Op, OpLevel) && OpLevel == Level) {
      advance();
      int OpLine = Cur->Line;
      Expr *R = Level == 5 ? parseUnary() : parseLevel(Level + 1);
      if (!R)
        return nullptr;
      unsigned Depth = std::max(L->Depth, R->Depth) + 1u;
      if (Depth > MaxNestingDepth) {
        error(TooDeep, OpLine);
        return nullptr;
      }
      Expr *E = newExpr(ExprKind::Binary, L->Line, Depth);
      E->BOp = Op;
      E->Lhs = L;
      E->Rhs = R;
      L = E;
    }
    return L;
  }

  Expr *parseUnary() {
    if (at(TokKind::Minus) || at(TokKind::Bang)) {
      UnOp Op = at(TokKind::Minus) ? UnOp::Neg : UnOp::Not;
      advance();
      int Line = Cur->Line;
      Nest N(*this, ExprDepth, Line);
      if (!N.ok())
        return nullptr;
      Expr *Operand = parseUnary();
      if (!Operand)
        return nullptr;
      Expr *E = newExpr(ExprKind::Unary, Line, Operand->Depth + 1u);
      E->UOp = Op;
      E->Lhs = Operand;
      return E;
    }
    return parsePrimary();
  }

  Expr *parsePrimary() {
    if (at(TokKind::Number)) {
      advance();
      Expr *E = newExpr(ExprKind::Number, Cur->Line, 0);
      E->Number = Cur->Value;
      return E;
    }
    if (at(TokKind::LParen)) {
      advance();
      Nest N(*this, ExprDepth, Cur->Line);
      if (!N.ok())
        return nullptr;
      Expr *E = parseExpr();
      if (!E || !expect(TokKind::RParen, "expected ')'"))
        return nullptr;
      if (E->Depth + 1u > MaxNestingDepth) {
        error(TooDeep, Cur->Line);
        return nullptr;
      }
      ++E->Depth;
      return E;
    }
    if (at(TokKind::Identifier)) {
      advance();
      const Token &Name = *Cur;
      if (at(TokKind::LParen)) {
        advance();
        Nest N(*this, ExprDepth, Cur->Line);
        if (!N.ok())
          return nullptr;
        Expr *E = newExpr(ExprKind::Call, Name.Line, 1);
        E->Name = Name.Text;
        size_t Mark = Args.size();
        if (!at(TokKind::RParen)) {
          while (true) {
            Expr *Arg = parseExpr();
            if (!Arg)
              return nullptr;
            E->Depth = std::max<unsigned>(E->Depth, Arg->Depth + 1u);
            Args.push_back(Arg);
            if (at(TokKind::Comma)) {
              advance();
              continue;
            }
            break;
          }
        }
        if (!expect(TokKind::RParen, "expected ')' after arguments"))
          return nullptr;
        if (E->Depth > MaxNestingDepth) {
          error(TooDeep, Name.Line);
          return nullptr;
        }
        E->Args = Arena.copy(std::span<Expr *const>(Args).subspan(Mark));
        Args.resize(Mark);
        return E;
      }
      if (at(TokKind::LBracket)) {
        advance();
        Nest N(*this, ExprDepth, Cur->Line);
        if (!N.ok())
          return nullptr;
        Expr *E = newExpr(ExprKind::Index, Name.Line, 0);
        E->Name = Name.Text;
        E->Lhs = parseExpr();
        if (!E->Lhs || !expect(TokKind::RBracket, "expected ']'"))
          return nullptr;
        if (E->Lhs->Depth + 1u > MaxNestingDepth) {
          error(TooDeep, Name.Line);
          return nullptr;
        }
        E->Depth = static_cast<uint16_t>(E->Lhs->Depth + 1u);
        return E;
      }
      Expr *E = newExpr(ExprKind::Var, Name.Line, 0);
      E->Name = Name.Text;
      return E;
    }
    error("expected an expression (found " + tokKindName(peek().Kind) + ")");
    return nullptr;
  }

  const std::vector<Token> &Tokens;
  Program &Prog;
  AstArena &Arena;
  size_t Pos = 0;
  const Token *Cur = nullptr;
  unsigned StmtDepth = 0; ///< statements being parsed, innermost included
  unsigned ExprDepth = 0; ///< parentheses, unary operators, calls and
                          ///< subscripts being parsed
  // Scratch stacks for the lists being gathered at every open level.
  std::vector<Stmt *> Stmts;
  std::vector<Expr *> Args;
  std::vector<std::string_view> Params;
};

} // namespace

MiniCParseResult gis::parseMiniC(std::string_view Source) {
  MiniCParseResult R;
  auto Prog = std::make_unique<Program>();
  // The source copy and the nodes of a generated program fit in 24 bytes
  // per source byte (12 did not); larger programs take further, doubling
  // chunks.
  Prog->Arena.reserve(std::min<size_t>(24 * Source.size() + 1024, 1 << 20));
  std::span<char> Text = Prog->Arena.copy(std::span<const char>(Source));
  LexResult Lexed = lexMiniC(std::string_view(Text.data(), Text.size()));
  if (!Lexed.ok()) {
    R.Error = std::move(Lexed.Error);
    R.Line = Lexed.Line;
    return R;
  }
  MiniCParser P(Lexed.Tokens, *Prog);
  if (!P.run()) {
    R.Error = P.Err.empty() ? "parse error" : std::move(P.Err);
    R.Line = P.ErrLine;
    return R;
  }
  R.Prog = std::move(Prog);
  return R;
}
