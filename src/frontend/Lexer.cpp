//===- frontend/Lexer.cpp - Mini-C lexer -----------------------------------===//

#include "frontend/Lexer.h"

#include "support/Assert.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <array>
#include <cstdint>

using namespace gis;

namespace {

/// Identifier characters, by the "C" locale's classes (support/StringUtils.h).
bool isIdentStart(char C) {
  return C == '_' || (isAsciiAlnum(C) && !isAsciiDigit(C));
}
bool isIdentChar(char C) { return C == '_' || isAsciiAlnum(C); }

/// The keyword spelled \p Word, or Identifier.
TokKind keywordKind(std::string_view Word) {
  switch (Word.size()) {
  case 2:
    return Word == "if" ? TokKind::KwIf : TokKind::Identifier;
  case 3:
    return Word == "int"   ? TokKind::KwInt
           : Word == "for" ? TokKind::KwFor
                           : TokKind::Identifier;
  case 4:
    return Word == "else" ? TokKind::KwElse : TokKind::Identifier;
  case 5:
    return Word == "while"   ? TokKind::KwWhile
           : Word == "break" ? TokKind::KwBreak
                             : TokKind::Identifier;
  case 6:
    return Word == "return" ? TokKind::KwReturn : TokKind::Identifier;
  case 8:
    return Word == "continue" ? TokKind::KwContinue : TokKind::Identifier;
  default:
    return TokKind::Identifier;
  }
}

/// The kind of a one-character token, or End for a character that does
/// not start one on its own.
constexpr std::array<TokKind, 256> SingleCharKinds = [] {
  std::array<TokKind, 256> T{};
  T['('] = TokKind::LParen;
  T[')'] = TokKind::RParen;
  T['{'] = TokKind::LBrace;
  T['}'] = TokKind::RBrace;
  T['['] = TokKind::LBracket;
  T[']'] = TokKind::RBracket;
  T[';'] = TokKind::Semi;
  T[','] = TokKind::Comma;
  T['+'] = TokKind::Plus;
  T['-'] = TokKind::Minus;
  T['*'] = TokKind::Star;
  T['/'] = TokKind::Slash;
  T['%'] = TokKind::Percent;
  return T;
}();

} // namespace

LexResult gis::lexMiniC(std::string_view Source) {
  LexResult Result;
  // Generated mini-C averages about 2.5 bytes per token (one-space
  // indentation and separators); the vector grows past this only on
  // denser input, or past a million tokens.
  Result.Tokens.reserve(std::min<size_t>(Source.size() / 2 + 16, 1 << 20));
  const char *const Begin = Source.data();
  const char *const End = Begin + Source.size();
  const char *P = Begin;
  int Line = 1;

  auto Fail = [&](std::string Msg) {
    Result.Error = std::move(Msg);
    Result.Line = Line;
    return std::move(Result);
  };
  auto Next = [&]() -> char { return P + 1 < End ? P[1] : '\0'; };
  auto Push = [&](TokKind Kind, size_t Length) {
    Token &T = Result.Tokens.emplace_back();
    T.Kind = Kind;
    T.Line = Line;
    P += Length;
  };

  while (P < End) {
    char C = *P;
    if (isAsciiSpace(C)) {
      Line += C == '\n';
      ++P;
      continue;
    }
    // Comments.
    if (C == '/' && Next() == '/') {
      while (P < End && *P != '\n')
        ++P;
      continue;
    }
    if (C == '/' && Next() == '*') {
      P += 2;
      while (P < End && !(*P == '*' && Next() == '/')) {
        Line += *P == '\n';
        ++P;
      }
      if (P >= End)
        return Fail("unterminated block comment");
      P += 2;
      continue;
    }

    if (isIdentStart(C)) {
      const char *Start = P;
      while (P < End && isIdentChar(*P))
        ++P;
      std::string_view Word(Start, static_cast<size_t>(P - Start));
      Token &T = Result.Tokens.emplace_back();
      T.Kind = keywordKind(Word);
      T.Line = Line;
      if (T.Kind == TokKind::Identifier)
        T.Text = Word;
      continue;
    }

    if (isAsciiDigit(C)) {
      int64_t V = 0;
      for (; P < End && isAsciiDigit(*P); ++P) {
        int64_t D = *P - '0';
        if (V > (INT64_MAX - D) / 10)
          return Fail("integer out of range");
        V = V * 10 + D;
      }
      Token &T = Result.Tokens.emplace_back();
      T.Kind = TokKind::Number;
      T.Line = Line;
      T.Value = V;
      continue;
    }

    if (TokKind K = SingleCharKinds[static_cast<unsigned char>(C)];
        K != TokKind::End) {
      Push(K, 1);
      continue;
    }

    bool NextIsEq = Next() == '=';
    switch (C) {
    case '=':
      Push(NextIsEq ? TokKind::EqEq : TokKind::Assign, NextIsEq ? 2 : 1);
      break;
    case '<':
      Push(NextIsEq ? TokKind::Le : TokKind::Lt, NextIsEq ? 2 : 1);
      break;
    case '>':
      Push(NextIsEq ? TokKind::Ge : TokKind::Gt, NextIsEq ? 2 : 1);
      break;
    case '!':
      Push(NextIsEq ? TokKind::NotEq : TokKind::Bang, NextIsEq ? 2 : 1);
      break;
    case '&':
      if (Next() != '&')
        return Fail("expected '&&'");
      Push(TokKind::AmpAmp, 2);
      break;
    case '|':
      if (Next() != '|')
        return Fail("expected '||'");
      Push(TokKind::PipePipe, 2);
      break;
    default:
      return Fail(std::string("unexpected character '") + C + "'");
    }
  }

  Token &EndTok = Result.Tokens.emplace_back();
  EndTok.Kind = TokKind::End;
  EndTok.Line = Line;
  return Result;
}

std::string gis::tokKindName(TokKind K) {
  switch (K) {
  case TokKind::End:
    return "end of input";
  case TokKind::Identifier:
    return "identifier";
  case TokKind::Number:
    return "number";
  case TokKind::KwInt:
    return "'int'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwWhile:
    return "'while'";
  case TokKind::KwFor:
    return "'for'";
  case TokKind::KwReturn:
    return "'return'";
  case TokKind::KwBreak:
    return "'break'";
  case TokKind::KwContinue:
    return "'continue'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::Semi:
    return "';'";
  case TokKind::Comma:
    return "','";
  case TokKind::Assign:
    return "'='";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::Lt:
    return "'<'";
  case TokKind::Gt:
    return "'>'";
  case TokKind::Le:
    return "'<='";
  case TokKind::Ge:
    return "'>='";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::NotEq:
    return "'!='";
  case TokKind::AmpAmp:
    return "'&&'";
  case TokKind::PipePipe:
    return "'||'";
  case TokKind::Bang:
    return "'!'";
  }
  gis_unreachable("invalid token kind");
}
