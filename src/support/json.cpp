#include "support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "support/check.h"

namespace xcv::json {

std::string JsonDouble(double v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::At(const std::string& key) const {
  const JsonValue* v = Find(key);
  XCV_CHECK_MSG(v != nullptr, "JSON document missing key '" << key << "'");
  return *v;
}

double JsonValue::AsDouble() const {
  if (kind == Kind::kNumber) return number;
  XCV_CHECK_MSG(kind == Kind::kString, "expected a number");
  if (str == "inf") return std::numeric_limits<double>::infinity();
  if (str == "-inf") return -std::numeric_limits<double>::infinity();
  if (str == "nan") return std::numeric_limits<double>::quiet_NaN();
  XCV_CHECK_MSG(false, "expected a number, got '" << str << "'");
  return 0.0;
}

const std::string& JsonValue::AsString() const {
  XCV_CHECK_MSG(kind == Kind::kString, "expected a string");
  return str;
}

bool JsonValue::AsBool() const {
  XCV_CHECK_MSG(kind == Kind::kBool, "expected a boolean");
  return boolean;
}

std::int64_t CheckedInteger(double v, std::int64_t lo, std::int64_t hi,
                            const std::string& field) {
  XCV_CHECK_MSG(std::isfinite(v) && v == std::floor(v) &&
                    v >= static_cast<double>(lo) &&
                    v <= static_cast<double>(hi),
                field << " must be an integer in [" << lo << ", " << hi
                      << "], got " << v);
  return static_cast<std::int64_t>(v);
}

namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

char Cursor::Peek() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  XCV_CHECK_MSG(pos_ < text_.size(), "unexpected end of JSON");
  return text_[pos_];
}

void Cursor::Expect(char c) {
  XCV_CHECK_MSG(Peek() == c, "expected '" << c << "' at offset " << pos_);
  ++pos_;
}

void Cursor::Open(char bracket) {
  XCV_CHECK_MSG(Peek() != bracket || depth_ < kMaxDepth,
                "JSON nesting deeper than " << kMaxDepth << " levels at offset "
                                            << pos_);
  Expect(bracket);
  ++depth_;
  first_ = true;
}

void Cursor::BeginObject() { Open('{'); }
void Cursor::BeginArray() { Open('['); }

// At a boundary of the innermost open container: consumes its closing
// `bracket` and returns true, or the ',' before the next member (none
// before the first) and returns false.
bool Cursor::Close(char bracket) {
  const char c = Peek();
  if (c == bracket) {
    ++pos_;
    --depth_;
    first_ = false;  // the closed container was an element of its parent
    return true;
  }
  if (!first_) {
    XCV_CHECK_MSG(c == ',', "expected ',' or '" << bracket << "' at offset "
                                                << pos_);
    ++pos_;
  }
  first_ = false;
  return false;
}

bool Cursor::NextKey(std::string* key) {
  if (Close('}')) return false;
  String(key);
  Expect(':');
  return true;
}

bool Cursor::NextElement() { return !Close(']'); }

void Cursor::String(std::string* out) {
  Expect('"');
  if (out != nullptr) out->clear();
  for (;;) {
    std::size_t stop = pos_;
    while (stop < text_.size() && text_[stop] != '"' && text_[stop] != '\\')
      ++stop;
    XCV_CHECK_MSG(stop < text_.size(), "unterminated string");
    if (out != nullptr) out->append(text_.data() + pos_, stop - pos_);
    pos_ = stop + 1;
    if (text_[stop] == '"') return;
    XCV_CHECK_MSG(pos_ < text_.size(), "unterminated escape");
    const char e = text_[pos_++];
    char decoded = e;
    switch (e) {
      case '"':
      case '\\':
      case '/': break;
      case 'n': decoded = '\n'; break;
      case 't': decoded = '\t'; break;
      case 'r': decoded = '\r'; break;
      case 'b': decoded = '\b'; break;
      case 'f': decoded = '\f'; break;
      case 'u': {
        XCV_CHECK_MSG(pos_ + 4 <= text_.size(), "short \\u escape");
        int code = 0;
        for (int i = 0; i < 4; ++i) {
          const int digit = HexDigit(text_[pos_ + i]);
          XCV_CHECK_MSG(digit >= 0, "\\u escape needs four hex digits at "
                                    "offset "
                                        << pos_);
          code = code * 16 + digit;
        }
        pos_ += 4;
        // The writers only escape control characters; anything beyond
        // Latin-1 would need surrogate handling this reader omits.
        XCV_CHECK_MSG(code < 256, "unsupported \\u escape");
        decoded = static_cast<char>(code);
        break;
      }
      default:
        XCV_CHECK_MSG(false, "bad escape '\\" << e << "'");
    }
    if (out != nullptr) *out += decoded;
  }
}

// RFC 8259 numbers only, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?;
// strtod alone would also take inf, nan, hex, and a leading '+' or '.'.
// The text is a std::string's, so the scan stops at its closing NUL.
double Cursor::ReadNumber() {
  Peek();
  const char* const begin = text_.data() + pos_;
  const char* p = begin;
  const auto digits = [&p] {
    const char* const first = p;
    while (*p >= '0' && *p <= '9') ++p;
    return p > first;
  };
  if (*p == '-') ++p;
  bool ok = true;
  if (*p == '0')
    ++p;
  else
    ok = digits();
  if (ok && *p == '.') {
    ++p;
    ok = digits();
  }
  if (ok && (*p == 'e' || *p == 'E')) {
    ++p;
    if (*p == '+' || *p == '-') ++p;
    ok = digits();
  }
  // The literal ends here: "01", "0x10" and "1.5.2" are not numbers.
  XCV_CHECK_MSG(ok && !std::isalnum(static_cast<unsigned char>(*p)) &&
                    *p != '.' && *p != '+' && *p != '-',
                "bad JSON number at offset " << pos_);
  // strtod converts exactly the checked span: the byte after it cannot
  // continue a number.
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  XCV_CHECK(end == p);
  XCV_CHECK_MSG(std::isfinite(value),
                "JSON number at offset " << pos_ << " overflows a double");
  pos_ += static_cast<std::size_t>(p - begin);
  return value;
}

double Cursor::Number() {
  if (Peek() != '"') return ReadNumber();
  String(&token_);
  if (token_ == "inf") return std::numeric_limits<double>::infinity();
  if (token_ == "-inf") return -std::numeric_limits<double>::infinity();
  if (token_ == "nan") return std::numeric_limits<double>::quiet_NaN();
  XCV_CHECK_MSG(false, "expected a number, got '" << token_ << "'");
  return 0.0;
}

bool Cursor::Keyword(std::string_view word) {
  Peek();
  if (text_.substr(pos_, word.size()) != word) return false;
  pos_ += word.size();
  return true;
}

bool Cursor::Bool() {
  if (Keyword("true")) return true;
  XCV_CHECK_MSG(Keyword("false"), "expected a boolean at offset " << pos_);
  return false;
}

void Cursor::Skip() {
  switch (Peek()) {
    case '{':
      BeginObject();
      while (NextKey(nullptr)) Skip();
      return;
    case '[':
      BeginArray();
      while (NextElement()) Skip();
      return;
    case '"':
      String(nullptr);
      return;
    case 't':
    case 'f':
      Bool();
      return;
    case 'n':
      XCV_CHECK_MSG(Keyword("null"), "bad JSON keyword at offset " << pos_);
      return;
    default:
      ReadNumber();
  }
}

JsonValue Cursor::Value() {
  JsonValue v;
  switch (Peek()) {
    case '{': {
      v.kind = JsonValue::Kind::kObject;
      BeginObject();
      std::string key;
      while (NextKey(&key)) v.object.emplace_back(std::move(key), Value());
      break;
    }
    case '[':
      v.kind = JsonValue::Kind::kArray;
      BeginArray();
      while (NextElement()) v.array.push_back(Value());
      break;
    case '"':
      v.kind = JsonValue::Kind::kString;
      String(&v.str);
      break;
    case 't':
    case 'f':
      v.kind = JsonValue::Kind::kBool;
      v.boolean = Bool();
      break;
    case 'n':
      XCV_CHECK_MSG(Keyword("null"), "bad JSON keyword at offset " << pos_);
      break;
    default:
      v.kind = JsonValue::Kind::kNumber;
      v.number = ReadNumber();
  }
  return v;
}

void Cursor::End() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  XCV_CHECK_MSG(pos_ == text_.size(), "trailing bytes after JSON document");
}

JsonValue ParseJson(const std::string& text) {
  Cursor cursor(text);
  JsonValue v = cursor.Value();
  cursor.End();
  return v;
}

int SchemaVersionOf(const JsonValue& root) {
  constexpr std::int64_t kMin = std::numeric_limits<int>::min();
  constexpr std::int64_t kMax = std::numeric_limits<int>::max();
  if (const JsonValue* sv = root.Find("schema_version"))
    return static_cast<int>(
        CheckedInteger(sv->AsDouble(), kMin, kMax, "schema_version"));
  if (const JsonValue* v = root.Find("version"))
    return static_cast<int>(
        CheckedInteger(v->AsDouble(), kMin, kMax, "version"));
  return 1;
}

void RequireSupportedSchema(const JsonValue& root, const char* format_name,
                            int supported_major) {
  const int major = SchemaVersionOf(root);
  XCV_CHECK_MSG(major >= 1, format_name << " document declares invalid "
                                           "schema_version "
                                        << major);
  XCV_CHECK_MSG(major <= supported_major,
                format_name << " document has schema_version " << major
                            << " but this build reads at most version "
                            << supported_major
                            << " — written by a newer xcv; upgrade to read "
                               "it");
}

}  // namespace xcv::json
