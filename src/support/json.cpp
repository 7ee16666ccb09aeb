#include "support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

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

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue Parse() {
    JsonValue v = ParseValue();
    SkipSpace();
    XCV_CHECK_MSG(pos_ == text_.size(), "trailing bytes after JSON document");
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char Peek() {
    SkipSpace();
    XCV_CHECK_MSG(pos_ < text_.size(), "unexpected end of JSON");
    return text_[pos_];
  }

  void Expect(char c) {
    XCV_CHECK_MSG(Peek() == c, "expected '" << c << "' at offset " << pos_);
    ++pos_;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue ParseValue() {
    const char c = Peek();
    if (c == '{' || c == '[') {
      XCV_CHECK_MSG(depth_ < kMaxDepth, "JSON nesting deeper than "
                                            << kMaxDepth << " levels at offset "
                                            << pos_);
      ++depth_;
      JsonValue v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.str = ParseString();
      return v;
    }
    if (c == 't' || c == 'f') return ParseKeyword();
    if (c == 'n') return ParseKeyword();
    return ParseNumber();
  }

  JsonValue ParseObject() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    Expect('{');
    if (Consume('}')) return v;
    for (;;) {
      std::string key = ParseString();
      Expect(':');
      v.object.emplace_back(std::move(key), ParseValue());
      if (Consume(',')) continue;
      Expect('}');
      return v;
    }
  }

  JsonValue ParseArray() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    Expect('[');
    if (Consume(']')) return v;
    for (;;) {
      v.array.push_back(ParseValue());
      if (Consume(',')) continue;
      Expect(']');
      return v;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        XCV_CHECK_MSG(pos_ < text_.size(), "unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            XCV_CHECK_MSG(pos_ + 4 <= text_.size(), "short \\u escape");
            const std::string hex(text_.substr(pos_, 4));
            pos_ += 4;
            const long code = std::strtol(hex.c_str(), nullptr, 16);
            // The writers only escape control characters; anything beyond
            // Latin-1 would need surrogate handling this reader omits.
            XCV_CHECK_MSG(code >= 0 && code < 256, "unsupported \\u escape");
            out += static_cast<char>(code);
            break;
          }
          default:
            XCV_CHECK_MSG(false, "bad escape '\\" << e << "'");
        }
        continue;
      }
      out += c;
    }
    XCV_CHECK_MSG(false, "unterminated string");
    return out;
  }

  JsonValue ParseKeyword() {
    static constexpr std::string_view kTrue = "true", kFalse = "false",
                                      kNull = "null";
    SkipSpace();
    JsonValue v;
    auto match = [&](std::string_view kw) {
      if (text_.substr(pos_, kw.size()) != kw) return false;
      pos_ += kw.size();
      return true;
    };
    if (match(kTrue)) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
    } else if (match(kFalse)) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = false;
    } else if (match(kNull)) {
      v.kind = JsonValue::Kind::kNull;
    } else {
      XCV_CHECK_MSG(false, "bad JSON keyword at offset " << pos_);
    }
    return v;
  }

  // RFC 8259 numbers only, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?;
  // strtod alone would also take inf, nan, hex, and a leading '+' or '.'.
  // The text is a std::string's, so the scan stops at its closing NUL.
  JsonValue ParseNumber() {
    SkipSpace();
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
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = value;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects currently open
};

}  // namespace

JsonValue ParseJson(const std::string& text) {
  JsonParser parser(text);
  return parser.Parse();
}

std::size_t SkipBalanced(const std::string& text, std::size_t start) {
  if (start >= text.size() || (text[start] != '{' && text[start] != '['))
    return std::string::npos;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = start; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character (may run off the end: torn file)
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        if (--depth == 0) return i + 1;
        break;
      default: break;
    }
  }
  return std::string::npos;
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
