//===- frontend/Parser.cpp - Mini-C parser ---------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"
#include "support/Assert.h"

using namespace gis;

namespace {

/// Recursive-descent parser over the token stream.
class MiniCParser {
public:
  explicit MiniCParser(std::vector<Token> Tokens)
      : Tokens(std::move(Tokens)) {}

  MiniCParseResult run() {
    auto Prog = std::make_unique<Program>();
    while (!at(TokKind::End)) {
      if (!expect(TokKind::KwInt, "declarations start with 'int'"))
        return fail();
      if (!expect(TokKind::Identifier, "expected a name after 'int'"))
        return fail();
      Token Name = Cur;

      if (at(TokKind::LBracket)) {
        // Global array.
        advance();
        if (!expect(TokKind::Number, "expected array size"))
          return fail();
        Token Size = Cur;
        if (!expect(TokKind::RBracket, "expected ']'") ||
            !expect(TokKind::Semi, "expected ';'"))
          return fail();
        Prog->GlobalArrays.push_back({Name.Text, Size.Value, Name.Line});
        continue;
      }

      // Function.
      FuncDecl Fn;
      Fn.Name = Name.Text;
      Fn.Line = Name.Line;
      if (!expect(TokKind::LParen, "expected '(' after function name"))
        return fail();
      if (!at(TokKind::RParen)) {
        while (true) {
          if (!expect(TokKind::KwInt, "parameters are 'int NAME'"))
            return fail();
          if (!expect(TokKind::Identifier, "expected parameter name"))
            return fail();
          Token P = Cur;
          Fn.Params.push_back(P.Text);
          if (at(TokKind::Comma)) {
            advance();
            continue;
          }
          break;
        }
      }
      if (!expect(TokKind::RParen, "expected ')'"))
        return fail();
      Fn.Body = parseBlock();
      if (!Fn.Body)
        return fail();
      Prog->Functions.push_back(std::move(Fn));
    }
    MiniCParseResult R;
    R.Prog = std::move(Prog);
    return R;
  }

private:
  //===--------------------------------------------------------------------===
  // Token plumbing
  //===--------------------------------------------------------------------===

  const Token &peek(size_t Ahead = 0) const {
    size_t Idx = Pos + Ahead;
    return Idx < Tokens.size() ? Tokens[Idx] : Tokens.back();
  }

  bool at(TokKind K) const { return peek().Kind == K; }

  void advance() {
    Cur = peek();
    if (Pos < Tokens.size() - 1)
      ++Pos;
  }

  /// Consumes a token of kind \p K (leaving it in Cur); records an error
  /// otherwise.
  bool expect(TokKind K, const std::string &Msg) {
    if (!at(K)) {
      error(Msg + " (found " + tokKindName(peek().Kind) + ")");
      return false;
    }
    advance();
    return true;
  }

  void error(const std::string &Msg) {
    if (Err.empty()) {
      Err = Msg;
      ErrLine = peek().Line;
    }
  }

  MiniCParseResult fail() {
    MiniCParseResult R;
    R.Error = Err.empty() ? "parse error" : Err;
    R.Line = ErrLine;
    return R;
  }

  //===--------------------------------------------------------------------===
  // Statements
  //===--------------------------------------------------------------------===

  std::unique_ptr<Stmt> parseBlock() {
    if (!expect(TokKind::LBrace, "expected '{'"))
      return nullptr;
    auto S = std::make_unique<Stmt>();
    S->Kind = StmtKind::Block;
    S->Line = Cur.Line;
    while (!at(TokKind::RBrace)) {
      if (at(TokKind::End)) {
        error("unexpected end of input inside a block");
        return nullptr;
      }
      auto Child = parseStmt();
      if (!Child)
        return nullptr;
      S->Body.push_back(std::move(Child));
    }
    advance(); // consume '}'
    return S;
  }

  /// A "simple" statement for for-headers: declaration or assignment or
  /// expression, without the trailing semicolon.
  std::unique_ptr<Stmt> parseSimple() {
    if (at(TokKind::KwInt))
      return parseDecl(/*ConsumeSemi=*/false);
    return parseAssignOrExpr(/*ConsumeSemi=*/false);
  }

  std::unique_ptr<Stmt> parseDecl(bool ConsumeSemi) {
    advance(); // 'int'
    if (!expect(TokKind::Identifier, "expected a name after 'int'"))
      return nullptr;
    Token Name = Cur;
    auto S = std::make_unique<Stmt>();
    S->Line = Name.Line;
    S->Name = Name.Text;
    if (at(TokKind::LBracket)) {
      advance();
      if (!expect(TokKind::Number, "expected array size"))
        return nullptr;
      Token Size = Cur;
      if (!expect(TokKind::RBracket, "expected ']'"))
        return nullptr;
      S->Kind = StmtKind::DeclArray;
      S->ArraySize = Size.Value;
    } else {
      S->Kind = StmtKind::DeclScalar;
      if (at(TokKind::Assign)) {
        advance();
        S->Value = parseExpr();
        if (!S->Value)
          return nullptr;
      }
    }
    if (ConsumeSemi && !expect(TokKind::Semi, "expected ';'"))
      return nullptr;
    return S;
  }

  std::unique_ptr<Stmt> parseAssignOrExpr(bool ConsumeSemi) {
    auto S = std::make_unique<Stmt>();
    S->Line = peek().Line;

    // Lookahead for the assignment forms.
    if (at(TokKind::Identifier) && peek(1).Kind == TokKind::Assign) {
      advance();
      S->Kind = StmtKind::AssignVar;
      S->Name = Cur.Text;
      advance(); // '='
      S->Value = parseExpr();
      if (!S->Value)
        return nullptr;
    } else if (at(TokKind::Identifier) && peek(1).Kind == TokKind::LBracket &&
               isIndexAssign()) {
      advance();
      S->Kind = StmtKind::AssignIndex;
      S->Name = Cur.Text;
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
      S->Kind = StmtKind::ExprStmt;
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

  std::unique_ptr<Stmt> parseStmt() {
    switch (peek().Kind) {
    case TokKind::LBrace:
      return parseBlock();
    case TokKind::KwInt:
      return parseDecl(/*ConsumeSemi=*/true);
    case TokKind::KwIf: {
      advance();
      auto S = std::make_unique<Stmt>();
      S->Kind = StmtKind::If;
      S->Line = Cur.Line;
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
      auto S = std::make_unique<Stmt>();
      S->Kind = StmtKind::While;
      S->Line = Cur.Line;
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
      auto S = std::make_unique<Stmt>();
      S->Kind = StmtKind::For;
      S->Line = Cur.Line;
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
      auto S = std::make_unique<Stmt>();
      S->Kind = StmtKind::Return;
      S->Line = Cur.Line;
      if (!at(TokKind::Semi)) {
        S->Value = parseExpr();
        if (!S->Value)
          return nullptr;
      }
      if (!expect(TokKind::Semi, "expected ';'"))
        return nullptr;
      return S;
    }
    case TokKind::KwBreak: {
      advance();
      auto S = std::make_unique<Stmt>();
      S->Kind = StmtKind::Break;
      S->Line = Cur.Line;
      if (!expect(TokKind::Semi, "expected ';'"))
        return nullptr;
      return S;
    }
    case TokKind::KwContinue: {
      advance();
      auto S = std::make_unique<Stmt>();
      S->Kind = StmtKind::Continue;
      S->Line = Cur.Line;
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

  std::unique_ptr<Expr> parseExpr() { return parseLogOr(); }

  std::unique_ptr<Expr> makeBinary(BinOp Op, std::unique_ptr<Expr> L,
                                   std::unique_ptr<Expr> R) {
    auto E = std::make_unique<Expr>();
    E->Kind = ExprKind::Binary;
    E->BOp = Op;
    E->Line = L->Line;
    E->Lhs = std::move(L);
    E->Rhs = std::move(R);
    return E;
  }

  std::unique_ptr<Expr> parseLogOr() {
    auto L = parseLogAnd();
    while (L && at(TokKind::PipePipe)) {
      advance();
      auto R = parseLogAnd();
      if (!R)
        return nullptr;
      L = makeBinary(BinOp::LogOr, std::move(L), std::move(R));
    }
    return L;
  }

  std::unique_ptr<Expr> parseLogAnd() {
    auto L = parseEquality();
    while (L && at(TokKind::AmpAmp)) {
      advance();
      auto R = parseEquality();
      if (!R)
        return nullptr;
      L = makeBinary(BinOp::LogAnd, std::move(L), std::move(R));
    }
    return L;
  }

  std::unique_ptr<Expr> parseEquality() {
    auto L = parseRelational();
    while (L && (at(TokKind::EqEq) || at(TokKind::NotEq))) {
      BinOp Op = at(TokKind::EqEq) ? BinOp::Eq : BinOp::Ne;
      advance();
      auto R = parseRelational();
      if (!R)
        return nullptr;
      L = makeBinary(Op, std::move(L), std::move(R));
    }
    return L;
  }

  std::unique_ptr<Expr> parseRelational() {
    auto L = parseAdditive();
    while (L && (at(TokKind::Lt) || at(TokKind::Gt) || at(TokKind::Le) ||
                 at(TokKind::Ge))) {
      BinOp Op = at(TokKind::Lt)   ? BinOp::Lt
                 : at(TokKind::Gt) ? BinOp::Gt
                 : at(TokKind::Le) ? BinOp::Le
                                   : BinOp::Ge;
      advance();
      auto R = parseAdditive();
      if (!R)
        return nullptr;
      L = makeBinary(Op, std::move(L), std::move(R));
    }
    return L;
  }

  std::unique_ptr<Expr> parseAdditive() {
    auto L = parseMultiplicative();
    while (L && (at(TokKind::Plus) || at(TokKind::Minus))) {
      BinOp Op = at(TokKind::Plus) ? BinOp::Add : BinOp::Sub;
      advance();
      auto R = parseMultiplicative();
      if (!R)
        return nullptr;
      L = makeBinary(Op, std::move(L), std::move(R));
    }
    return L;
  }

  std::unique_ptr<Expr> parseMultiplicative() {
    auto L = parseUnary();
    while (L && (at(TokKind::Star) || at(TokKind::Slash) ||
                 at(TokKind::Percent))) {
      BinOp Op = at(TokKind::Star)    ? BinOp::Mul
                 : at(TokKind::Slash) ? BinOp::Div
                                      : BinOp::Rem;
      advance();
      auto R = parseUnary();
      if (!R)
        return nullptr;
      L = makeBinary(Op, std::move(L), std::move(R));
    }
    return L;
  }

  std::unique_ptr<Expr> parseUnary() {
    if (at(TokKind::Minus) || at(TokKind::Bang)) {
      UnOp Op = at(TokKind::Minus) ? UnOp::Neg : UnOp::Not;
      advance();
      int Line = Cur.Line;
      auto Operand = parseUnary();
      if (!Operand)
        return nullptr;
      auto E = std::make_unique<Expr>();
      E->Kind = ExprKind::Unary;
      E->UOp = Op;
      E->Line = Line;
      E->Lhs = std::move(Operand);
      return E;
    }
    return parsePrimary();
  }

  std::unique_ptr<Expr> parsePrimary() {
    if (at(TokKind::Number)) {
      advance();
      auto E = std::make_unique<Expr>();
      E->Kind = ExprKind::Number;
      E->Number = Cur.Value;
      E->Line = Cur.Line;
      return E;
    }
    if (at(TokKind::LParen)) {
      advance();
      auto E = parseExpr();
      if (!E || !expect(TokKind::RParen, "expected ')'"))
        return nullptr;
      return E;
    }
    if (at(TokKind::Identifier)) {
      advance();
      Token Name = Cur;
      if (at(TokKind::LParen)) {
        advance();
        auto E = std::make_unique<Expr>();
        E->Kind = ExprKind::Call;
        E->Name = Name.Text;
        E->Line = Name.Line;
        if (!at(TokKind::RParen)) {
          while (true) {
            auto Arg = parseExpr();
            if (!Arg)
              return nullptr;
            E->Args.push_back(std::move(Arg));
            if (at(TokKind::Comma)) {
              advance();
              continue;
            }
            break;
          }
        }
        if (!expect(TokKind::RParen, "expected ')' after arguments"))
          return nullptr;
        return E;
      }
      if (at(TokKind::LBracket)) {
        advance();
        auto E = std::make_unique<Expr>();
        E->Kind = ExprKind::Index;
        E->Name = Name.Text;
        E->Line = Name.Line;
        E->Lhs = parseExpr();
        if (!E->Lhs || !expect(TokKind::RBracket, "expected ']'"))
          return nullptr;
        return E;
      }
      auto E = std::make_unique<Expr>();
      E->Kind = ExprKind::Var;
      E->Name = Name.Text;
      E->Line = Name.Line;
      return E;
    }
    error("expected an expression (found " + tokKindName(peek().Kind) + ")");
    return nullptr;
  }

  std::vector<Token> Tokens;
  size_t Pos = 0;
  Token Cur;
  std::string Err;
  int ErrLine = 0;
};

} // namespace

MiniCParseResult gis::parseMiniC(std::string_view Source) {
  LexResult Lexed = lexMiniC(Source);
  if (!Lexed.ok()) {
    MiniCParseResult R;
    R.Error = Lexed.Error;
    R.Line = Lexed.Line;
    return R;
  }
  return MiniCParser(std::move(Lexed.Tokens)).run();
}
