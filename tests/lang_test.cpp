#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "lang/lexer.h"
#include "lang/parser.h"
#include "tests/scalar_reference.h"

namespace xcv::lang {
namespace {

using expr::Expr;

Bindings XyBindings() {
  return {{"x", Expr::Variable("x", 0)}, {"y", Expr::Variable("y", 1)}};
}

double EvalAt(const Expr& e, double x, double y = 0.0) {
  const double env[2] = {x, y};
  return oracle::EvalDouble(e, std::span<const double>(env, 2));
}

TEST(Lexer, BasicTokens) {
  auto tokens = Tokenize("x + 2.5e-1 * (y)");
  ASSERT_EQ(tokens.size(), 8u);  // incl. EOF
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[0].text, "x");
  EXPECT_EQ(tokens[1].kind, TokenKind::kPlus);
  EXPECT_EQ(tokens[2].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ(tokens[2].number, 0.25);
  EXPECT_EQ(tokens.back().kind, TokenKind::kEof);
}

TEST(Lexer, KeywordsAndComparisons) {
  auto tokens = Tokenize("if x <= 1 then y else def let < > >=");
  EXPECT_EQ(tokens[0].kind, TokenKind::kKwIf);
  EXPECT_EQ(tokens[2].kind, TokenKind::kLe);
  EXPECT_EQ(tokens[4].kind, TokenKind::kKwThen);
  EXPECT_EQ(tokens[6].kind, TokenKind::kKwElse);
  EXPECT_EQ(tokens[7].kind, TokenKind::kKwDef);
  EXPECT_EQ(tokens[8].kind, TokenKind::kKwLet);
  EXPECT_EQ(tokens[9].kind, TokenKind::kLt);
  EXPECT_EQ(tokens[10].kind, TokenKind::kGt);
  EXPECT_EQ(tokens[11].kind, TokenKind::kGe);
}

TEST(Lexer, CommentsAndLineTracking) {
  auto tokens = Tokenize("x # a comment\n+ y");
  ASSERT_GE(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].kind, TokenKind::kPlus);
  EXPECT_EQ(tokens[1].line, 2);
}

TEST(Lexer, RejectsUnknownCharacter) {
  EXPECT_THROW(Tokenize("x @ y"), ParseError);
  try {
    Tokenize("x\n  @");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("2:3"), std::string::npos);
  }
}

// Literals are decimal and convert through the document codec: strtod's
// hex floats and an overflow to infinity are errors naming the literal,
// and so is a literal run into letters, digits or a second point.
TEST(Lexer, NumbersAreDecimalAndFinite) {
  for (const auto& [source, literal] :
       {std::pair<const char*, const char*>{"1e999", "1e999"},
        {"x + 0x1p3", "0x1p3"},
        {"2x", "2x"},
        {"1e + 2", "1e"},
        {"1.5.2", "1.5.2"},
        {"1_0", "1_0"}}) {
    try {
      Tokenize(source);
      FAIL() << "tokenized " << source;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + std::string(literal) + "'"),
                std::string::npos)
          << source << ": " << e.what();
    }
  }
  for (const auto& [source, value] :
       {std::pair<const char*, double>{".5", 0.5}, {"2.", 2.0},
        {"2.5e-1", 0.25}, {"2.e2", 200.0}, {"1e-400", 0.0}}) {
    const auto tokens = Tokenize(source);
    ASSERT_EQ(tokens.size(), 2u) << source;
    EXPECT_EQ(tokens[0].kind, TokenKind::kNumber) << source;
    EXPECT_EQ(tokens[0].text, source);
    EXPECT_EQ(tokens[0].number, value) << source;
  }
  const auto tokens = Tokenize("3*x+1e-3");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].number, 3.0);
  EXPECT_EQ(tokens[4].number, 1e-3);
}

TEST(Parser, PrecedenceAndAssociativity) {
  auto b = XyBindings();
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("1 + 2 * 3", b), 0), 7.0);
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("(1 + 2) * 3", b), 0), 9.0);
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("8 - 4 - 2", b), 0), 2.0);
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("8 / 4 / 2", b), 0), 1.0);
  // '^' is right-associative: 2^3^2 = 2^9 = 512.
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("2 ^ 3 ^ 2", b), 0), 512.0);
  // Unary minus binds below '^': -2^2 would parse as -(2^2) in most CAS,
  // here '-' applies to the whole power expression.
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("-2 ^ 2", b), 0), 4.0 * 0 - 4.0);
}

TEST(Parser, UnaryMinusAndVariables) {
  auto b = XyBindings();
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("-x + y", b), 2.0, 5.0), 3.0);
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("--x", b), 2.0), 2.0);
}

TEST(Parser, BuiltinFunctions) {
  auto b = XyBindings();
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("exp(log(x))", b), 2.5), 2.5);
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("sqrt(x^2)", b), 3.0), 3.0);
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("min(x, y)", b), 1.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("max(x, y)", b), 1.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("pow(x, 3)", b), 2.0), 8.0);
  EXPECT_NEAR(EvalAt(ParseExpression("lambertw(1)", b), 0.0),
              0.5671432904097838, 1e-12);
  EXPECT_DOUBLE_EQ(EvalAt(ParseExpression("abs(-x)", b), 4.0), 4.0);
  EXPECT_NEAR(EvalAt(ParseExpression("cbrt(27)", b), 0.0), 3.0, 1e-12);
}

TEST(Parser, BuiltinConstants) {
  auto b = XyBindings();
  EXPECT_NEAR(EvalAt(ParseExpression("pi", b), 0.0), M_PI, 1e-15);
  EXPECT_NEAR(EvalAt(ParseExpression("euler_e", b), 0.0), M_E, 1e-15);
}

TEST(Parser, IfThenElse) {
  auto b = XyBindings();
  Expr e = ParseExpression("if x < 1 then 10 else 20", b);
  EXPECT_DOUBLE_EQ(EvalAt(e, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(EvalAt(e, 1.5), 20.0);
  // '>=' is normalized by operand swap.
  Expr ge = ParseExpression("if x >= 1 then 10 else 20", b);
  EXPECT_DOUBLE_EQ(EvalAt(ge, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(EvalAt(ge, 0.5), 20.0);
  // Nested.
  Expr nested = ParseExpression(
      "if x < 0 then 0-1 else if x < 1 then 0 else 1", b);
  EXPECT_DOUBLE_EQ(EvalAt(nested, -5.0), -1.0);
  EXPECT_DOUBLE_EQ(EvalAt(nested, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(EvalAt(nested, 5.0), 1.0);
}

TEST(Parser, ProgramWithDefsAndLets) {
  auto b = XyBindings();
  Expr e = ParseProgram(R"(
    # PBE-style enhancement factor
    let kappa = 0.804;
    let mu = 0.2195149727645171;
    def fx(s) = 1 + kappa - kappa / (1 + mu * s^2 / kappa);
    fx(x) * y
  )", b);
  const double fx1 = 1.0 + 0.804 - 0.804 / (1.0 + 0.2195149727645171 / 0.804);
  EXPECT_NEAR(EvalAt(e, 1.0, 2.0), 2.0 * fx1, 1e-14);
}

TEST(Parser, FunctionsComposeAndInline) {
  auto b = XyBindings();
  Expr e = ParseProgram(R"(
    def sq(t) = t * t;
    def quart(t) = sq(sq(t));
    quart(x)
  )", b);
  EXPECT_DOUBLE_EQ(EvalAt(e, 2.0), 16.0);
}

TEST(Parser, FunctionParametersShadowBindings) {
  auto b = XyBindings();
  Expr e = ParseProgram(R"(
    def f(x) = x + 1;
    f(y)
  )", b);
  // The parameter x shadows the global binding inside f.
  EXPECT_DOUBLE_EQ(EvalAt(e, 100.0, 5.0), 6.0);
}

TEST(Parser, RejectsRecursion) {
  auto b = XyBindings();
  EXPECT_THROW(ParseProgram("def f(t) = f(t); f(x)", b), ParseError);
}

TEST(Parser, RejectsUnknownIdentifier) {
  auto b = XyBindings();
  EXPECT_THROW(ParseExpression("x + zz", b), ParseError);
}

TEST(Parser, RejectsUnknownFunction) {
  auto b = XyBindings();
  EXPECT_THROW(ParseExpression("frobnicate(x)", b), ParseError);
}

TEST(Parser, RejectsArityMismatch) {
  auto b = XyBindings();
  EXPECT_THROW(ParseExpression("exp(x, y)", b), ParseError);
  EXPECT_THROW(ParseExpression("min(x)", b), ParseError);
  EXPECT_THROW(ParseProgram("def f(a, b) = a + b; f(x)", b), ParseError);
}

TEST(Parser, RejectsRedefinition) {
  auto b = XyBindings();
  EXPECT_THROW(ParseProgram("let a = 1; let a = 2; a", b), ParseError);
  EXPECT_THROW(ParseProgram("def f(t) = t; def f(t) = t; f(x)", b),
               ParseError);
}

TEST(Parser, RejectsTrailingTokens) {
  auto b = XyBindings();
  EXPECT_THROW(ParseExpression("x + 1 )", b), ParseError);
  EXPECT_THROW(ParseExpression("x x", b), ParseError);
}

TEST(Parser, ErrorsCarryPosition) {
  auto b = XyBindings();
  try {
    ParseExpression("x +\n* y", b);
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("2:1"), std::string::npos);
  }
}

TEST(Parser, UnterminatedDefBody) {
  auto b = XyBindings();
  EXPECT_THROW(ParseProgram("def f(t) = t + 1", b), ParseError);
}

}  // namespace
}  // namespace xcv::lang
