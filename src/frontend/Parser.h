//===- frontend/Parser.h - Mini-C parser ------------------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for mini-C.
///
/// Grammar sketch:
/// \code
///   program  := (globalArray | function)*
///   global   := "int" NAME "[" NUM "]" ";"
///   function := "int" NAME "(" ("int" NAME ("," "int" NAME)*)? ")" block
///   stmt     := "int" NAME ("=" expr)? ";" | "int" NAME "[" NUM "]" ";"
///             | NAME "=" expr ";" | NAME "[" expr "]" "=" expr ";"
///             | "if" "(" expr ")" stmt ("else" stmt)?
///             | "while" "(" expr ")" stmt
///             | "for" "(" simple? ";" expr? ";" simple? ")" stmt
///             | "return" expr? ";" | "break" ";" | "continue" ";"
///             | expr ";" | block
///   expr     := logical-or with C precedence over
///               || && == != < > <= >= + - * / % and unary - !
/// \endcode
///
/// The parser bounds how deep the tree it builds nests (MaxNestingDepth),
/// so parsing, code generation and teardown never recurse past a fixed
/// depth whatever the input.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_FRONTEND_PARSER_H
#define GIS_FRONTEND_PARSER_H

#include "frontend/Ast.h"

#include <memory>
#include <string>
#include <string_view>

namespace gis {

/// The deepest nesting a program may have, counted separately for
/// statements (each statement inside another adds a level; a function
/// body's statements are at level 1) and for expressions (each pair of
/// parentheses, unary operator, call, subscript and each operand of a
/// left-associative chain after its first adds a level; Expr::Depth).
/// Deeper input is a diagnostic on the line that crosses the bound.  Like
/// clang's default bracket depth it is far beyond any real program, and
/// at the bound both the parser's and the code generator's recursion stay
/// within a few hundred kilobytes of stack.
constexpr unsigned MaxNestingDepth = 256;

/// Result of parsing mini-C source.
struct MiniCParseResult {
  std::unique_ptr<Program> Prog;
  std::string Error;
  int Line = 0;

  bool ok() const { return Prog != nullptr; }
};

/// Parses mini-C source into an AST.
MiniCParseResult parseMiniC(std::string_view Source);

} // namespace gis

#endif // GIS_FRONTEND_PARSER_H
