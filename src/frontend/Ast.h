//===- frontend/Ast.h - Mini-C abstract syntax tree -------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST node definitions for mini-C.  Plain, trivially destructible structs
/// allocated from the Program's arena and linked by raw pointers; names are
/// views into the source text the Program owns.  A Kind discriminator
/// selects the variant (the project avoids RTTI, following the LLVM
/// conventions).
///
//===----------------------------------------------------------------------===//

#ifndef GIS_FRONTEND_AST_H
#define GIS_FRONTEND_AST_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gis {

/// The bump allocator behind a Program's nodes, lists and source text:
/// one allocation per chunk instead of one per node, and no destructor
/// runs -- everything it holds is trivially destructible.
class AstArena {
public:
  /// Sizes the first chunk (later chunks double).
  void reserve(size_t Bytes) {
    if (Chunks.empty() && Bytes > NextChunkBytes)
      NextChunkBytes = Bytes;
  }

  /// A default-constructed \p T.
  template <typename T> T *make() {
    static_assert(std::is_trivially_destructible_v<T>);
    return new (allocate(sizeof(T), alignof(T))) T();
  }

  /// A copy of \p Items, valid as long as the arena.
  template <typename T> std::span<T> copy(std::span<const T> Items) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (Items.empty())
      return {};
    T *Data = static_cast<T *>(allocate(Items.size_bytes(), alignof(T)));
    std::copy(Items.begin(), Items.end(), Data);
    return {Data, Items.size()};
  }

private:
  void *allocate(size_t Bytes, size_t Align) {
    size_t Pad = (Align - reinterpret_cast<uintptr_t>(Cur) % Align) % Align;
    if (!Cur || Pad + Bytes > static_cast<size_t>(End - Cur)) {
      size_t Size = std::max(NextChunkBytes, Bytes + Align);
      Chunks.push_back(std::make_unique_for_overwrite<std::byte[]>(Size));
      Cur = Chunks.back().get();
      End = Cur + Size;
      NextChunkBytes = 2 * Size;
      Pad = (Align - reinterpret_cast<uintptr_t>(Cur) % Align) % Align;
    }
    void *P = Cur + Pad;
    Cur += Pad + Bytes;
    return P;
  }

  std::vector<std::unique_ptr<std::byte[]>> Chunks;
  std::byte *Cur = nullptr;
  std::byte *End = nullptr;
  size_t NextChunkBytes = 4096;
};

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
  ExprKind Kind = ExprKind::Number;
  UnOp UOp = UnOp::Neg;          // Unary
  BinOp BOp = BinOp::Add;        // Binary
  /// Levels of nesting below and including this node: one per operator,
  /// call, subscript and pair of parentheses (the parser bounds it).
  uint16_t Depth = 0;
  int Line = 0;

  int64_t Number = 0;            // Number
  std::string_view Name;         // Var / Index / Call
  Expr *Lhs = nullptr;           // Unary operand / Binary lhs / Index expr
  Expr *Rhs = nullptr;           // Binary rhs
  std::span<Expr *const> Args;   // Call
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
  StmtKind Kind = StmtKind::Block;
  int Line = 0;

  std::string_view Name;            // decls / assignments
  int64_t ArraySize = 0;            // DeclArray
  Expr *Index = nullptr;            // AssignIndex subscript
  Expr *Value = nullptr;            // initializer / rhs / condition / return
  Stmt *Then = nullptr;             // If then / While body / For body
  Stmt *Else = nullptr;             // If else
  Stmt *ForInit = nullptr;          // For
  Stmt *ForStep = nullptr;          // For
  std::span<Stmt *const> Body;      // Block
};

//===----------------------------------------------------------------------===
// Declarations
//===----------------------------------------------------------------------===

/// A function definition.
struct FuncDecl {
  std::string_view Name;
  std::span<const std::string_view> Params;
  Stmt *Body = nullptr; // Block
  int Line = 0;
  /// Tokens from the name to the closing brace: the code generator's hint
  /// for how many instructions the function will hold.
  unsigned NumTokens = 0;
};

/// A global array declaration: `int NAME[SIZE];` at file scope.
struct GlobalArrayDecl {
  std::string_view Name;
  int64_t Size = 0;
  int Line = 0;
};

/// A whole translation unit.  Its arena holds its nodes and a copy of the
/// source text every name views, so it outlives the string it was parsed
/// from.
struct Program {
  std::vector<GlobalArrayDecl> GlobalArrays;
  std::vector<FuncDecl> Functions;
  AstArena Arena;
};

} // namespace gis

#endif // GIS_FRONTEND_AST_H
