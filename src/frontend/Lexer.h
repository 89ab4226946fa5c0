//===- frontend/Lexer.h - Mini-C lexer --------------------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lexer for the mini-C language that feeds the GIS scheduler.  Mini-C is
/// the C subset the paper's examples are written in (Figure 1's minmax
/// compiles verbatim modulo declarations): int scalars and arrays, the
/// usual operators, if/else, while, for, break/continue, functions, and a
/// print builtin.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_FRONTEND_LEXER_H
#define GIS_FRONTEND_LEXER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gis {

/// Token kinds of mini-C.
enum class TokKind : uint8_t {
  End,
  Identifier,
  Number,
  // Keywords.
  KwInt,
  KwIf,
  KwElse,
  KwWhile,
  KwFor,
  KwReturn,
  KwBreak,
  KwContinue,
  // Punctuation and operators.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Semi,
  Comma,
  Assign,     // =
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Lt,
  Gt,
  Le,
  Ge,
  EqEq,
  NotEq,
  AmpAmp,
  PipePipe,
  Bang,
};

/// One token with its source line (1-based) for diagnostics.
struct Token {
  TokKind Kind = TokKind::End;
  int Line = 0;
  std::string_view Text; ///< identifier spelling: a view into the source
  int64_t Value = 0;     ///< number value
};

/// Result of lexing: tokens or an error.
struct LexResult {
  std::vector<Token> Tokens;
  std::string Error;
  int Line = 0;

  bool ok() const { return Error.empty(); }
};

/// Lexes \p Source.  Comments: // to end of line and /* ... */.  The
/// tokens' Text views point into \p Source, which must outlive them.
LexResult lexMiniC(std::string_view Source);

/// Returns a printable name of a token kind ("identifier", "'+'", ...).
std::string tokKindName(TokKind K);

} // namespace gis

#endif // GIS_FRONTEND_LEXER_H
