#include "lang/lexer.h"

#include <cctype>
#include <optional>
#include <sstream>
#include <string_view>

#include "support/json.h"

namespace xcv::lang {

namespace {

[[noreturn]] void Fail(int line, int column, const std::string& what) {
  std::ostringstream os;
  os << line << ":" << column << ": " << what;
  throw ParseError(os.str());
}

TokenKind KeywordOrIdent(const std::string& word) {
  if (word == "def") return TokenKind::kKwDef;
  if (word == "let") return TokenKind::kKwLet;
  if (word == "if") return TokenKind::kKwIf;
  if (word == "then") return TokenKind::kKwThen;
  if (word == "else") return TokenKind::kKwElse;
  return TokenKind::kIdent;
}

}  // namespace

std::vector<Token> Tokenize(const std::string& source) {
  std::vector<Token> tokens;
  int line = 1, column = 1;
  std::size_t i = 0;
  const std::size_t n = source.size();

  auto push = [&](TokenKind kind, std::string text, double number = 0.0) {
    tokens.push_back(Token{kind, std::move(text), number, line, column});
  };
  auto advance = [&](std::size_t count = 1) {
    for (std::size_t k = 0; k < count && i < n; ++k) {
      if (source[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
      ++i;
    }
  };

  while (i < n) {
    const char c = source[i];
    if (c == '#') {  // comment to end of line
      while (i < n && source[i] != '\n') advance();
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
      // The literal is the decimal the scan reads; a letter, digit, '_' or
      // '.' right after it (0x1p3, 2x, 1e, 1.5.2) makes the whole run
      // malformed rather than a number followed by something else.
      const std::string_view rest = std::string_view(source).substr(i);
      const std::size_t len = json::DecimalLength(rest);
      std::size_t run = len;
      while (run < rest.size() &&
             (std::isalnum(static_cast<unsigned char>(rest[run])) ||
              rest[run] == '_' || rest[run] == '.'))
        ++run;
      const std::string literal(rest.substr(0, run));
      if (run > len) Fail(line, column, "malformed number '" + literal + "'");
      const std::optional<double> value = json::DecimalToDouble(literal);
      if (!value)
        Fail(line, column, "number '" + literal + "' overflows a double");
      push(TokenKind::kNumber, literal, *value);
      advance(len);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(source[j])) ||
                       source[j] == '_'))
        ++j;
      std::string word = source.substr(i, j - i);
      push(KeywordOrIdent(word), word);
      advance(j - i);
      continue;
    }
    switch (c) {
      case '+': push(TokenKind::kPlus, "+"); advance(); continue;
      case '-': push(TokenKind::kMinus, "-"); advance(); continue;
      case '*': push(TokenKind::kStar, "*"); advance(); continue;
      case '/': push(TokenKind::kSlash, "/"); advance(); continue;
      case '^': push(TokenKind::kCaret, "^"); advance(); continue;
      case '(': push(TokenKind::kLParen, "("); advance(); continue;
      case ')': push(TokenKind::kRParen, ")"); advance(); continue;
      case ',': push(TokenKind::kComma, ","); advance(); continue;
      case ';': push(TokenKind::kSemicolon, ";"); advance(); continue;
      case '=': push(TokenKind::kAssign, "="); advance(); continue;
      case '<':
        if (i + 1 < n && source[i + 1] == '=') {
          push(TokenKind::kLe, "<=");
          advance(2);
        } else {
          push(TokenKind::kLt, "<");
          advance();
        }
        continue;
      case '>':
        if (i + 1 < n && source[i + 1] == '=') {
          push(TokenKind::kGe, ">=");
          advance(2);
        } else {
          push(TokenKind::kGt, ">");
          advance();
        }
        continue;
      default:
        Fail(line, column, std::string("unexpected character '") + c + "'");
    }
  }
  push(TokenKind::kEof, "<eof>");
  return tokens;
}

std::string TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kNumber: return "number";
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kCaret: return "'^'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kAssign: return "'='";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kKwDef: return "'def'";
    case TokenKind::kKwLet: return "'let'";
    case TokenKind::kKwIf: return "'if'";
    case TokenKind::kKwThen: return "'then'";
    case TokenKind::kKwElse: return "'else'";
    case TokenKind::kEof: return "end of input";
  }
  return "<?>";
}

}  // namespace xcv::lang
