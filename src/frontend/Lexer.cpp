//===- frontend/Lexer.cpp - Mini-C lexer -----------------------------------===//

#include "frontend/Lexer.h"

#include "support/Assert.h"

#include <cctype>
#include <cstdint>
#include <map>

using namespace gis;

LexResult gis::lexMiniC(std::string_view Source) {
  LexResult Result;
  size_t Pos = 0;
  int Line = 1;

  static const std::map<std::string_view, TokKind> Keywords = {
      {"int", TokKind::KwInt},       {"if", TokKind::KwIf},
      {"else", TokKind::KwElse},     {"while", TokKind::KwWhile},
      {"for", TokKind::KwFor},       {"return", TokKind::KwReturn},
      {"break", TokKind::KwBreak},   {"continue", TokKind::KwContinue},
  };

  auto Fail = [&](std::string Msg) {
    Result.Error = std::move(Msg);
    Result.Line = Line;
    return Result;
  };

  auto Peek = [&](size_t Ahead = 0) -> char {
    return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
  };

  while (Pos < Source.size()) {
    char C = Source[Pos];
    if (C == '\n') {
      ++Line;
      ++Pos;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++Pos;
      continue;
    }
    // Comments.
    if (C == '/' && Peek(1) == '/') {
      while (Pos < Source.size() && Source[Pos] != '\n')
        ++Pos;
      continue;
    }
    if (C == '/' && Peek(1) == '*') {
      Pos += 2;
      while (Pos < Source.size() &&
             !(Source[Pos] == '*' && Peek(1) == '/')) {
        if (Source[Pos] == '\n')
          ++Line;
        ++Pos;
      }
      if (Pos >= Source.size())
        return Fail("unterminated block comment");
      Pos += 2;
      continue;
    }

    Token T;
    T.Line = Line;

    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = Pos;
      while (Pos < Source.size() &&
             (std::isalnum(static_cast<unsigned char>(Source[Pos])) ||
              Source[Pos] == '_'))
        ++Pos;
      std::string_view Word = Source.substr(Start, Pos - Start);
      auto It = Keywords.find(Word);
      if (It != Keywords.end()) {
        T.Kind = It->second;
      } else {
        T.Kind = TokKind::Identifier;
        T.Text = std::string(Word);
      }
      Result.Tokens.push_back(std::move(T));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(C))) {
      int64_t V = 0;
      while (Pos < Source.size() &&
             std::isdigit(static_cast<unsigned char>(Source[Pos]))) {
        int64_t Digit = Source[Pos] - '0';
        if (V > (INT64_MAX - Digit) / 10)
          return Fail("integer out of range");
        V = V * 10 + Digit;
        ++Pos;
      }
      T.Kind = TokKind::Number;
      T.Value = V;
      Result.Tokens.push_back(std::move(T));
      continue;
    }

    auto Two = [&](char Next, TokKind TwoKind, TokKind OneKind) {
      if (Peek(1) == Next) {
        T.Kind = TwoKind;
        Pos += 2;
      } else {
        T.Kind = OneKind;
        ++Pos;
      }
      Result.Tokens.push_back(T);
    };

    switch (C) {
    case '(':
      T.Kind = TokKind::LParen;
      ++Pos;
      Result.Tokens.push_back(T);
      break;
    case ')':
      T.Kind = TokKind::RParen;
      ++Pos;
      Result.Tokens.push_back(T);
      break;
    case '{':
      T.Kind = TokKind::LBrace;
      ++Pos;
      Result.Tokens.push_back(T);
      break;
    case '}':
      T.Kind = TokKind::RBrace;
      ++Pos;
      Result.Tokens.push_back(T);
      break;
    case '[':
      T.Kind = TokKind::LBracket;
      ++Pos;
      Result.Tokens.push_back(T);
      break;
    case ']':
      T.Kind = TokKind::RBracket;
      ++Pos;
      Result.Tokens.push_back(T);
      break;
    case ';':
      T.Kind = TokKind::Semi;
      ++Pos;
      Result.Tokens.push_back(T);
      break;
    case ',':
      T.Kind = TokKind::Comma;
      ++Pos;
      Result.Tokens.push_back(T);
      break;
    case '+':
      T.Kind = TokKind::Plus;
      ++Pos;
      Result.Tokens.push_back(T);
      break;
    case '-':
      T.Kind = TokKind::Minus;
      ++Pos;
      Result.Tokens.push_back(T);
      break;
    case '*':
      T.Kind = TokKind::Star;
      ++Pos;
      Result.Tokens.push_back(T);
      break;
    case '/':
      T.Kind = TokKind::Slash;
      ++Pos;
      Result.Tokens.push_back(T);
      break;
    case '%':
      T.Kind = TokKind::Percent;
      ++Pos;
      Result.Tokens.push_back(T);
      break;
    case '=':
      Two('=', TokKind::EqEq, TokKind::Assign);
      break;
    case '<':
      Two('=', TokKind::Le, TokKind::Lt);
      break;
    case '>':
      Two('=', TokKind::Ge, TokKind::Gt);
      break;
    case '!':
      Two('=', TokKind::NotEq, TokKind::Bang);
      break;
    case '&':
      if (Peek(1) != '&')
        return Fail("expected '&&'");
      T.Kind = TokKind::AmpAmp;
      Pos += 2;
      Result.Tokens.push_back(T);
      break;
    case '|':
      if (Peek(1) != '|')
        return Fail("expected '||'");
      T.Kind = TokKind::PipePipe;
      Pos += 2;
      Result.Tokens.push_back(T);
      break;
    default:
      return Fail(std::string("unexpected character '") + C + "'");
    }
  }

  Token End;
  End.Kind = TokKind::End;
  End.Line = Line;
  Result.Tokens.push_back(std::move(End));
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
