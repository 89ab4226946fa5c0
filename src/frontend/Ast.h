//===- frontend/Ast.h - Mini-C abstract syntax tree -------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST node definitions for mini-C.  Plain structs owned through
/// unique_ptr; a Kind discriminator selects the variant (the project
/// avoids RTTI, following the LLVM conventions).
///
//===----------------------------------------------------------------------===//

#ifndef GIS_FRONTEND_AST_H
#define GIS_FRONTEND_AST_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gis {

//===----------------------------------------------------------------------===
// Expressions
//===----------------------------------------------------------------------===

/// Expression node kinds.
enum class ExprKind : uint8_t {
  Number,   ///< integer literal
  Var,      ///< scalar variable reference
  Index,    ///< array element a[e]
  Unary,    ///< -e or !e
  Binary,   ///< arithmetic / comparison / logical
  Call,     ///< f(args)
};

/// Binary operators (logical && / || short-circuit in codegen).
enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Lt,
  Gt,
  Le,
  Ge,
  Eq,
  Ne,
  LogAnd,
  LogOr,
};

/// Unary operators.
enum class UnOp : uint8_t { Neg, Not };

/// One expression node.
struct Expr {
  ExprKind Kind;
  int Line = 0;

  int64_t Number = 0;            // Number
  std::string Name;              // Var / Index / Call
  UnOp UOp = UnOp::Neg;          // Unary
  BinOp BOp = BinOp::Add;        // Binary
  std::unique_ptr<Expr> Lhs;     // Unary operand / Binary lhs / Index expr
  std::unique_ptr<Expr> Rhs;     // Binary rhs
  std::vector<std::unique_ptr<Expr>> Args; // Call
};

//===----------------------------------------------------------------------===
// Statements
//===----------------------------------------------------------------------===

/// Statement node kinds.
enum class StmtKind : uint8_t {
  DeclScalar,  ///< int x;  or  int x = e;
  DeclArray,   ///< int a[N];
  AssignVar,   ///< x = e;
  AssignIndex, ///< a[i] = e;
  If,
  While,
  For,
  Return,
  Break,
  Continue,
  ExprStmt,    ///< e;  (e.g. a bare call)
  Block,
};

struct Stmt {
  StmtKind Kind;
  int Line = 0;

  std::string Name;                 // decls / assignments
  int64_t ArraySize = 0;            // DeclArray
  std::unique_ptr<Expr> Index;      // AssignIndex subscript
  std::unique_ptr<Expr> Value;      // initializer / rhs / condition / return
  std::unique_ptr<Stmt> Then;       // If then / While body / For body
  std::unique_ptr<Stmt> Else;       // If else
  std::unique_ptr<Stmt> ForInit;    // For
  std::unique_ptr<Stmt> ForStep;    // For
  std::vector<std::unique_ptr<Stmt>> Body; // Block
};

//===----------------------------------------------------------------------===
// Declarations
//===----------------------------------------------------------------------===

/// A function definition.
struct FuncDecl {
  std::string Name;
  std::vector<std::string> Params;
  std::unique_ptr<Stmt> Body; // Block
  int Line = 0;
};

/// A global array declaration: `int NAME[SIZE];` at file scope.
struct GlobalArrayDecl {
  std::string Name;
  int64_t Size = 0;
  int Line = 0;
};

/// A whole translation unit.
struct Program {
  std::vector<GlobalArrayDecl> GlobalArrays;
  std::vector<FuncDecl> Functions;
};

} // namespace gis

#endif // GIS_FRONTEND_AST_H
