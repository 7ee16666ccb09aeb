#include "support/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "support/check.h"

namespace xcv::json {

// ---- Numbers ----------------------------------------------------------------

void AppendDouble(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "\"nan\"";
  } else if (std::isinf(v)) {
    out += v > 0 ? "\"inf\"" : "\"-inf\"";
  } else {
    char buf[32];  // the longest is "-2.2250738585072014e-308", 24 bytes
    const auto end =
        std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                      17)
            .ptr;
    out.append(buf, end);
  }
}

std::string JsonDouble(double v) {
  std::string out;
  AppendDouble(out, v);
  return out;
}

namespace {

// The end of the run of digits that starts at `i`.
std::size_t Digits(std::string_view text, std::size_t i) {
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') ++i;
  return i;
}

// std::from_chars reports a literal below the least subnormal and one beyond
// the largest double alike. Only the first is below 1, which the decimal
// exponent of its leading nonzero digit tells (the exponent part saturated).
bool BelowOne(std::string_view literal) {
  const std::size_t mantissa_end =
      std::min(literal.find_first_of("eE"), literal.size());
  const std::size_t point = std::min(literal.find('.'), mantissa_end);
  // A literal out of range has a nonzero digit in its mantissa.
  const std::size_t first = literal.find_first_of("123456789");
  std::int64_t lead = static_cast<std::int64_t>(point) -
                      static_cast<std::int64_t>(first) - (first < point);
  if (mantissa_end < literal.size()) {
    std::size_t j = mantissa_end + 1;
    const bool negative = literal[j] == '-';
    j += literal[j] == '-' || literal[j] == '+';
    std::int64_t exponent = 0;
    for (; j < literal.size(); ++j)
      exponent = std::min<std::int64_t>(exponent * 10 + (literal[j] - '0'),
                                        std::int64_t{1} << 40);
    lead += negative ? -exponent : exponent;
  }
  return lead < 0;
}

// Converts `literal`, a whole decimal literal some grammar above accepted,
// so that only range can fail. Nullopt means it overflows a double.
std::optional<double> Convert(std::string_view literal) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(literal.data(), literal.data() + literal.size(), value);
  if (ec == std::errc::result_out_of_range) {
    if (!BelowOne(literal)) return std::nullopt;
    return literal[0] == '-' ? -0.0 : 0.0;
  }
  XCV_CHECK(ec == std::errc() && end == literal.data() + literal.size());
  return value;
}

}  // namespace

std::size_t DecimalLength(std::string_view text) {
  const std::size_t start = !text.empty() && text[0] == '-' ? 1 : 0;
  std::size_t end = Digits(text, start);
  std::size_t digits = end - start;
  if (end < text.size() && text[end] == '.') {
    const std::size_t point = end;
    end = Digits(text, point + 1);
    digits += end - point - 1;
  }
  if (digits == 0) return 0;
  if (end < text.size() && (text[end] == 'e' || text[end] == 'E')) {
    std::size_t j = end + 1;
    if (j < text.size() && (text[j] == '+' || text[j] == '-')) ++j;
    const std::size_t exp_end = Digits(text, j);
    if (exp_end > j) end = exp_end;
  }
  return end;
}

std::optional<double> DecimalToDouble(std::string_view text) {
  if (text.empty() || DecimalLength(text) != text.size()) return std::nullopt;
  return Convert(text);
}

void AppendHex64(std::string& out, std::uint64_t v) {
  char buf[16];
  char* const end = std::to_chars(buf, buf + sizeof(buf), v, 16).ptr;
  out.append(16 - static_cast<std::size_t>(end - buf), '0');
  out.append(buf, end);
}

std::optional<std::uint64_t> Hex64(std::string_view text) {
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v, 16);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return v;
}

// ---- Writer and values ------------------------------------------------------

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
// std::from_chars alone would also take inf, nan, and a leading '.', and
// stop inside "01" or "0x10". The text is a std::string's, so the scan
// stops at its closing NUL.
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
  const std::optional<double> value =
      Convert({begin, static_cast<std::size_t>(p - begin)});
  XCV_CHECK_MSG(value.has_value(),
                "JSON number at offset " << pos_ << " overflows a double");
  pos_ += static_cast<std::size_t>(p - begin);
  return *value;
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
