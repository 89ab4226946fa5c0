//===- tests/frontend_test.cpp - Mini-C frontend tests ---------------------===//
//
// Lexer, parser and code generator, culminating in the paper's Figure 1
// minmax program compiled from C source and executed.
//
//===----------------------------------------------------------------------===//

#include "frontend/CodeGen.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "sched/Pipeline.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

using namespace gis;

namespace {

/// Compiles and runs `main` with the given arguments.
ExecResult compileAndRun(const char *Source, std::vector<int64_t> Args = {},
                         std::function<void(Interpreter &)> Setup = nullptr) {
  auto M = compileMiniCOrDie(Source);
  Function *Main = M->findFunction("main");
  EXPECT_NE(Main, nullptr);
  Interpreter I(*M);
  EXPECT_EQ(Args.size(), Main->params().size());
  for (size_t K = 0; K != Args.size(); ++K)
    I.setReg(Main->params()[K], Args[K]);
  if (Setup)
    Setup(I);
  ExecResult R = I.run(*Main);
  EXPECT_FALSE(R.Trapped) << R.TrapReason;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===
// Lexer
//===----------------------------------------------------------------------===

TEST(LexerTest, TokensAndLines) {
  LexResult R = lexMiniC("int x = 42;\nwhile (x >= 0) { x = x - 1; }");
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_GE(R.Tokens.size(), 10u);
  EXPECT_EQ(R.Tokens[0].Kind, TokKind::KwInt);
  EXPECT_EQ(R.Tokens[1].Kind, TokKind::Identifier);
  EXPECT_EQ(R.Tokens[1].Text, "x");
  EXPECT_EQ(R.Tokens[2].Kind, TokKind::Assign);
  EXPECT_EQ(R.Tokens[3].Kind, TokKind::Number);
  EXPECT_EQ(R.Tokens[3].Value, 42);
  EXPECT_EQ(R.Tokens[5].Kind, TokKind::KwWhile);
  EXPECT_EQ(R.Tokens[5].Line, 2);
  // >= lexes as one token.
  bool SawGe = false;
  for (const Token &T : R.Tokens)
    SawGe |= T.Kind == TokKind::Ge;
  EXPECT_TRUE(SawGe);
}

TEST(LexerTest, Comments) {
  LexResult R = lexMiniC("int a; // line comment\n/* block\ncomment */ int b;");
  ASSERT_TRUE(R.ok());
  unsigned Ints = 0;
  for (const Token &T : R.Tokens)
    Ints += T.Kind == TokKind::KwInt;
  EXPECT_EQ(Ints, 2u);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(lexMiniC("int a @ b;").ok());
  EXPECT_FALSE(lexMiniC("a & b").ok());
  EXPECT_FALSE(lexMiniC("/* unterminated").ok());
}

// Literals accumulate in int64_t: the largest one lexes, one more is a
// diagnostic on its line instead of a signed overflow.
TEST(LexerTest, IntegerLiteralRange) {
  LexResult Max = lexMiniC("x = 9223372036854775807;");
  ASSERT_TRUE(Max.ok()) << Max.Error;
  ASSERT_GE(Max.Tokens.size(), 3u);
  EXPECT_EQ(Max.Tokens[2].Kind, TokKind::Number);
  EXPECT_EQ(Max.Tokens[2].Value, INT64_MAX);

  for (const char *Src : {"int a;\nx = 9223372036854775808;",
                          "int a;\nx = 99999999999999999999999;"}) {
    LexResult R = lexMiniC(Src);
    EXPECT_FALSE(R.ok()) << Src;
    EXPECT_EQ(R.Error, "integer out of range") << Src;
    EXPECT_EQ(R.Line, 2) << Src;
  }

  CompileResult C =
      compileMiniC("int main() {\n  return 99999999999999999999;\n}\n");
  EXPECT_FALSE(C.ok());
  EXPECT_EQ(C.Error, "integer out of range");
  EXPECT_EQ(C.Line, 2);
}

//===----------------------------------------------------------------------===
// Parser
//===----------------------------------------------------------------------===

TEST(MiniCParserTest, FunctionAndGlobals) {
  MiniCParseResult R = parseMiniC(R"(
int a[100];
int addmul(int x, int y) {
  return x + y * 2;
}
)");
  ASSERT_TRUE(R.ok()) << R.Error << " at line " << R.Line;
  ASSERT_EQ(R.Prog->GlobalArrays.size(), 1u);
  EXPECT_EQ(R.Prog->GlobalArrays[0].Name, "a");
  EXPECT_EQ(R.Prog->GlobalArrays[0].Size, 100);
  EXPECT_EQ(R.Prog->GlobalArrays[0].Line, 2);
  ASSERT_EQ(R.Prog->Functions.size(), 1u);
  const FuncDecl &F = R.Prog->Functions[0];
  EXPECT_EQ(F.Name, "addmul");
  ASSERT_EQ(F.Params.size(), 2u);
  EXPECT_EQ(F.Params[1], "y");
  // Body: one return whose value is x + (y * 2) (precedence).
  ASSERT_EQ(F.Body->Body.size(), 1u);
  const Stmt &Ret = *F.Body->Body[0];
  EXPECT_EQ(Ret.Kind, StmtKind::Return);
  EXPECT_EQ(Ret.Value->BOp, BinOp::Add);
  EXPECT_EQ(Ret.Value->Rhs->BOp, BinOp::Mul);
}

TEST(MiniCParserTest, StatementForms) {
  MiniCParseResult R = parseMiniC(R"(
int f(int n) {
  int i;
  int acc = 0;
  int buf[8];
  for (i = 0; i < n; i = i + 1) {
    if (i % 2 == 0) { acc = acc + i; } else acc = acc - 1;
    buf[i % 8] = acc;
    if (acc > 100) break;
    while (acc < 0) { acc = acc + 3; continue; }
  }
  print(acc);
  return acc;
}
)");
  ASSERT_TRUE(R.ok()) << R.Error << " at line " << R.Line;
}

TEST(MiniCParserTest, Diagnostics) {
  MiniCParseResult R = parseMiniC("int f( { }");
  EXPECT_FALSE(R.ok());
  EXPECT_GT(R.Line, 0);

  EXPECT_FALSE(parseMiniC("int f() { return 1 }").ok());  // missing ';'
  EXPECT_FALSE(parseMiniC("int f() { x = ; }").ok());     // missing expr
  EXPECT_FALSE(parseMiniC("f() {}").ok());                // missing 'int'
}

// The daemon sends these strings to clients as "ERR frontend line N: ...",
// so each distinct message is pinned with its line: one input per message
// of the lexer, the parser and the code generator.  "expected '=' after
// subscript" has no input: the parser takes the a[i] = e form only when
// the balanced bracket group is followed by '='.
TEST(MiniCParserTest, DiagnosticsArePinned) {
  struct Case {
    const char *Source;
    const char *Error;
    int Line;
  };
  const Case Cases[] = {
      // Lexer.
      {"int main() {\n  /* open\n}\n", "unterminated block comment", 4},
      {"int main() {\n  return 99999999999999999999;\n}\n",
       "integer out of range", 2},
      {"int main() {\n  return 1 & 2;\n}\n", "expected '&&'", 2},
      {"int main() {\n  return 1 | 2;\n}\n", "expected '||'", 2},
      {"int main() {\n  return 1 @ 2;\n}\n", "unexpected character '@'", 2},
      // Parser: every expect() message, then the two error() messages.
      {"\nf() {}\n", "declarations start with 'int' (found identifier)", 2},
      {"int\n(", "expected a name after 'int' (found '(')", 2},
      {"int main() {\n  int 5;\n}\n",
       "expected a name after 'int' (found number)", 2},
      {"int a[\nb];\n", "expected array size (found identifier)", 2},
      {"int main() {\n  int a[b];\n}\n",
       "expected array size (found identifier)", 2},
      {"int a[4\n;\n", "expected ']' (found ';')", 2},
      {"int main() {\n  return a[1 2];\n}\n", "expected ']' (found number)",
       2},
      {"int a[4]\nint b[4];\n", "expected ';' (found 'int')", 2},
      {"int main() {\n  return 1\n}\n", "expected ';' (found '}')", 3},
      {"int f\n;\n", "expected '(' after function name (found ';')", 2},
      {"int f(\nx) {}\n", "parameters are 'int NAME' (found identifier)", 2},
      {"int f(int\n3) {}\n", "expected parameter name (found number)", 2},
      {"int f(int a\n{}\n", "expected ')' (found '{')", 2},
      {"int f()\nreturn 0;\n", "expected '{' (found 'return')", 2},
      {"int main() {\n  if 1) return 0;\n}\n",
       "expected '(' after 'if' (found number)", 2},
      {"int main() {\n  while 1) return 0;\n}\n",
       "expected '(' after 'while' (found number)", 2},
      {"int main() {\n  for ;;) return 0;\n}\n",
       "expected '(' after 'for' (found ';')", 2},
      {"int main() {\n  for (x = 0) return 0;\n}\n",
       "expected ';' in 'for' (found ')')", 2},
      {"int main() {\n  for (; 1) return 0;\n}\n",
       "expected second ';' in 'for' (found ')')", 2},
      {"int main() {\n  return f(1;\n}\n",
       "expected ')' after arguments (found ';')", 2},
      {"int main() {\n  int x;\n", "unexpected end of input inside a block",
       3},
      {"int main() {\n  x = ;\n}\n", "expected an expression (found ';')", 2},
      // Code generator.
      {"int main() {\n  int x;\n  int x;\n}\n", "redeclaration of 'x'", 3},
      {"int f(int a,\n      int a) {\n  return a;\n}\n",
       "redeclaration of 'a'", 1},
      {"int main() {\n  return y;\n}\n", "'y' is not a scalar variable", 2},
      {"int a[4];\nint main() {\n  a = 1;\n}\n",
       "'a' is not a scalar variable", 3},
      {"int main() {\n  int x;\n  return x[0];\n}\n", "'x' is not an array",
       3},
      {"int main() {\n  int x;\n  x[0] = 1;\n}\n", "'x' is not an array", 3},
      {"int main() {\n  break;\n}\n", "'break' outside a loop", 2},
      {"int main() {\n  continue;\n}\n", "'continue' outside a loop", 2},
      {"int a[1];\nint b[4611686018427387904];\n",
       "array 'b' does not fit in the address space", 2},
      {"int main() {\n  int b[2305843009213693952];\n}\n",
       "array 'b' does not fit in the address space", 2},
      // The nesting bound (MaxNestingDepth).
      {"int main() {\n  return -!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-"
       "!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-"
       "!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-"
       "!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-"
       "!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-"
       "!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-"
       "!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-"
       "!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-"
       "!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-!-1;\n}\n",
       "nesting deeper than 256 levels", 2},
  };
  for (const Case &C : Cases) {
    CompileResult R = compileMiniC(C.Source);
    EXPECT_FALSE(R.ok()) << C.Source;
    EXPECT_EQ(R.Error, C.Error) << C.Source;
    EXPECT_EQ(R.Line, C.Line) << C.Source;
  }
}

namespace {

/// main returning an expression \p N levels deep: "int main() {",
/// "return", then one level per line (level K opens on line K + 2), the
/// leaf "1", the closers, then \p Tail after main.
std::string nestedExpr(unsigned N, const char *Open, const char *Close,
                       const char *Tail = "") {
  std::string S = "int main() {\nreturn\n";
  for (unsigned K = 0; K != N; ++K)
    S += Open;
  S += "1";
  for (unsigned K = 0; K != N; ++K)
    S += Close;
  return S + ";\n}\n" + Tail;
}

/// main with statements \p N levels deep: "int main() {", then one level
/// per line (level K opens on line K + 1), the innermost "return 0;" and
/// the closers.
std::string nestedStmts(unsigned N, const char *Open, const char *Close) {
  std::string S = "int main() {\n";
  for (unsigned K = 1; K < N; ++K)
    S += Open;
  S += "return 0;\n";
  for (unsigned K = 1; K < N; ++K)
    S += Close;
  return S + "}\n";
}

} // namespace

// The parser bounds how deep the tree it builds nests, so no input makes
// parsing, code generation or teardown recurse without bound (a daemon
// worker's stack is finite).  Input at the bound compiles and runs; one
// level more is a diagnostic on the line that crosses it.
TEST(MiniCParserTest, NestingIsBounded) {
  const unsigned Max = MaxNestingDepth;
  const std::string TooDeep = "nesting deeper than 256 levels";
  struct Shape {
    const char *What;
    std::function<std::string(unsigned)> Make;
    int64_t Value;    ///< main's result at the bound
    bool IsStatement; ///< level K opens on line K + 1, not K + 2
  };
  const Shape Shapes[] = {
      {"parentheses", [](unsigned N) { return nestedExpr(N, "(\n", ")"); }, 1,
       false},
      {"unary operators", [](unsigned N) { return nestedExpr(N, "-\n", ""); },
       1, false},
      // N + 1 operands: the first adds no level.
      {"a left-associative chain",
       [](unsigned N) { return nestedExpr(N, "1 +\n", ""); },
       static_cast<int64_t>(Max) + 1, false},
      {"calls",
       [](unsigned N) {
         return nestedExpr(N, "f(\n", ")", "int f(int x) { return x; }\n");
       },
       1, false},
      {"blocks", [](unsigned N) { return nestedStmts(N, "{\n", "}\n"); }, 0,
       true},
      {"if statements",
       [](unsigned N) { return nestedStmts(N, "if (1)\n", ""); }, 0, true},
      {"while loops",
       [](unsigned N) { return nestedStmts(N, "while (1)\n", ""); }, 0, true},
  };
  for (const Shape &S : Shapes) {
    CompileResult R = compileMiniC(S.Make(Max));
    ASSERT_TRUE(R.ok()) << S.What << ": " << R.Error << " at line " << R.Line;
    Interpreter I(*R.M);
    ExecResult E = I.run(*R.M->findFunction("main"));
    EXPECT_FALSE(E.Trapped) << S.What << ": " << E.TrapReason;
    EXPECT_EQ(E.ReturnValue, S.Value) << S.What;

    CompileResult Over = compileMiniC(S.Make(Max + 1));
    EXPECT_FALSE(Over.ok()) << S.What;
    EXPECT_EQ(Over.Error, TooDeep) << S.What;
    EXPECT_EQ(Over.Line, static_cast<int>(Max) + (S.IsStatement ? 2 : 3))
        << S.What;
  }

  // Far past the bound -- the inputs that used to overflow the stack: a
  // diagnostic.
  for (const std::string &Deep :
       {nestedExpr(10000, "(", ")"), nestedExpr(20000, "1+", ""),
        nestedStmts(10000, "{", "}")}) {
    CompileResult R = compileMiniC(Deep);
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.Error, TooDeep);
  }
}

//===----------------------------------------------------------------------===
// Code generation + execution
//===----------------------------------------------------------------------===

TEST(CodeGenTest, ArithmeticAndPrecedence) {
  ExecResult R = compileAndRun(R"(
int main() {
  return 2 + 3 * 4 - 10 / 2 - 7 % 3;
}
)");
  EXPECT_EQ(R.ReturnValue, 2 + 12 - 5 - 1);
}

TEST(CodeGenTest, UnaryOperators) {
  ExecResult R = compileAndRun(R"(
int main() {
  int a = -5;
  int b = !0;
  int c = !7;
  return a + b * 10 + c;
}
)");
  EXPECT_EQ(R.ReturnValue, -5 + 10 + 0);
}

TEST(CodeGenTest, ComparisonsAsValues) {
  ExecResult R = compileAndRun(R"(
int main() {
  int t = 3 < 5;
  int f = 3 > 5;
  int e = 4 == 4;
  int n = 4 != 4;
  int le = 4 <= 4;
  int ge = 3 >= 4;
  return t * 100000 + f * 10000 + e * 1000 + n * 100 + le * 10 + ge;
}
)");
  EXPECT_EQ(R.ReturnValue, 100000 + 0 + 1000 + 0 + 10 + 0);
}

TEST(CodeGenTest, ShortCircuitEvaluation) {
  // The right operand of && must not execute when the left is false:
  // here it would trap with division by zero.
  ExecResult R = compileAndRun(R"(
int main(int x) {
  if (x != 0 && 10 / x > 2) {
    return 1;
  }
  return 0;
}
)",
                               {0});
  EXPECT_EQ(R.ReturnValue, 0);

  ExecResult R2 = compileAndRun(R"(
int main(int x) {
  if (x == 0 || 10 / x > 2) {
    return 1;
  }
  return 0;
}
)",
                                {0});
  EXPECT_EQ(R2.ReturnValue, 1);
}

TEST(CodeGenTest, WhileAndFor) {
  ExecResult R = compileAndRun(R"(
int main(int n) {
  int acc = 0;
  int i = 0;
  while (i < n) {
    acc = acc + i;
    i = i + 1;
  }
  for (i = 0; i < n; i = i + 1) acc = acc + 1;
  return acc;
}
)",
                               {10});
  EXPECT_EQ(R.ReturnValue, 45 + 10);
}

TEST(CodeGenTest, BreakAndContinue) {
  ExecResult R = compileAndRun(R"(
int main() {
  int acc = 0;
  int i;
  for (i = 0; i < 100; i = i + 1) {
    if (i % 2 == 0) continue;
    if (i > 10) break;
    acc = acc + i;   /* 1 + 3 + 5 + 7 + 9 */
  }
  return acc;
}
)");
  EXPECT_EQ(R.ReturnValue, 25);
}

TEST(CodeGenTest, ArraysLocalAndGlobal) {
  ExecResult R = compileAndRun(R"(
int g[16];
int main() {
  int loc[8];
  int i;
  for (i = 0; i < 8; i = i + 1) {
    loc[i] = i * i;
    g[i] = loc[i] + 1;
  }
  return g[7] + loc[3];
}
)");
  EXPECT_EQ(R.ReturnValue, 50 + 9);
}

TEST(CodeGenTest, FunctionCalls) {
  ExecResult R = compileAndRun(R"(
int square(int x) { return x * x; }
int twice(int x) { return x + x; }
int main(int n) {
  return square(twice(n)) + twice(square(n));
}
)",
                               {3});
  EXPECT_EQ(R.ReturnValue, 36 + 18);
}

TEST(CodeGenTest, RecursionWorks) {
  ExecResult R = compileAndRun(R"(
int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }
)");
  EXPECT_EQ(R.ReturnValue, 144);
}

TEST(CodeGenTest, PrintBuiltin) {
  ExecResult R = compileAndRun(R"(
int main() {
  int i;
  for (i = 0; i < 3; i = i + 1) print(i * 10);
  return 0;
}
)");
  ASSERT_EQ(R.Printed.size(), 3u);
  EXPECT_EQ(R.Printed[0], 0);
  EXPECT_EQ(R.Printed[1], 10);
  EXPECT_EQ(R.Printed[2], 20);
}

TEST(CodeGenTest, SemanticErrors) {
  EXPECT_FALSE(compileMiniC("int main() { return y; }").ok());
  EXPECT_FALSE(compileMiniC("int main() { int x; int x; return 0; }").ok());
  EXPECT_FALSE(compileMiniC("int main() { break; }").ok());
  EXPECT_FALSE(compileMiniC("int a[4]; int main() { return a; }").ok());
  EXPECT_FALSE(compileMiniC("int main() { int x; return x[0]; }").ok());
}

// An array must end, with the padding before the next one, inside the
// int64_t address space: the front end reports the declaration and its
// line instead of wrapping an address.
TEST(CodeGenTest, RejectsArraysOutsideTheAddressSpace) {
  CompileResult R = compileMiniC(
      "int a[4611686018427387904];\nint b[1];\nint main() { return 0; }\n");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "array 'a' does not fit in the address space");
  EXPECT_EQ(R.Line, 1);
  R = compileMiniC("int a[1];\nint main() {\n  int b[2305843009213693000];\n"
                   "  return 0;\n}\n");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "array 'b' does not fit in the address space");
  EXPECT_EQ(R.Line, 3);
  EXPECT_TRUE(compileMiniC("int a[0];\nint main() { int b[8]; return 0; }\n")
                  .ok());
}

TEST(CodeGenTest, GeneratedIRIsWellFormed) {
  auto M = compileMiniCOrDie(R"(
int f(int a, int b) {
  int c = a;
  while (a > 0 && b > 0) {
    if (a > b) a = a - b; else b = b - a;
  }
  return a + b + c;
}
)");
  EXPECT_TRUE(verifyModule(*M).empty());
}

//===----------------------------------------------------------------------===
// Figure 1: the paper's minmax program, from C source
//===----------------------------------------------------------------------===

namespace {

// Figure 1 of the paper, adapted to mini-C (declarations split, the
// array passed via a global, print instead of printf).
const char *MinmaxSource = R"(
int a[64];
int minmax(int n) {
  int i;
  int u;
  int v;
  int min = a[0];
  int max = min;
  i = 1;
  while (i < n) {
    u = a[i];
    v = a[i + 1];
    if (u > v) {
      if (u > max) max = u;
      if (v < min) min = v;
    }
    else {
      if (v > max) max = v;
      if (u < min) min = u;
    }
    i = i + 2;
  }
  print(min);
  print(max);
  return 0;
}
)";

} // namespace

TEST(CodeGenTest, MinmaxFigure1FromSource) {
  auto M = compileMiniCOrDie(MinmaxSource);
  Function *F = M->findFunction("minmax");
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(verifyModule(*M).empty());

  int64_t Base = M->globals()[0].Address;
  Interpreter I(*M);
  int64_t A[] = {5, 3, 9, -2, 7, 7, 0, 100, -50, 6};
  for (int K = 0; K != 10; ++K)
    I.storeWord(Base + 4 * K, A[K]);
  I.setReg(F->params()[0], 9);
  ExecResult R = I.run(*F);
  ASSERT_FALSE(R.Trapped) << R.TrapReason;
  ASSERT_EQ(R.Printed.size(), 2u);
  EXPECT_EQ(R.Printed[0], -50);
  EXPECT_EQ(R.Printed[1], 100);
}

TEST(CodeGenTest, MinmaxSchedulesAndStaysCorrect) {
  auto M = compileMiniCOrDie(MinmaxSource);
  Function *F = M->findFunction("minmax");
  PipelineOptions Opts;
  PipelineStats Stats = schedulePipeline(*F, MachineDescription::rs6k(), Opts);
  EXPECT_TRUE(verifyModule(*M).empty());
  EXPECT_GT(Stats.Global.UsefulMotions + Stats.Global.SpeculativeMotions, 0u);

  int64_t Base = M->globals()[0].Address;
  Interpreter I(*M);
  int64_t A[] = {5, 3, 9, -2, 7, 7, 0, 100, -50, 6};
  for (int K = 0; K != 10; ++K)
    I.storeWord(Base + 4 * K, A[K]);
  I.setReg(F->params()[0], 9);
  ExecResult R = I.run(*F);
  ASSERT_FALSE(R.Trapped) << R.TrapReason;
  ASSERT_EQ(R.Printed.size(), 2u);
  EXPECT_EQ(R.Printed[0], -50);
  EXPECT_EQ(R.Printed[1], 100);
}
