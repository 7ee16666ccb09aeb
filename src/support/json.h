// Minimal JSON machinery shared by every JSON the repo reads or writes: the
// support/document.h documents, job specs, HTTP bodies, and the
// `xcv --format=json` output document.
//
// Conventions chosen for exact resume:
//   * doubles print as %.17g, which round-trips every finite binary64;
//   * non-finite values print as the strings "inf"/"-inf"/"nan" (JSON has
//     no literals for them); readers accept numbers or those strings;
//   * numbers parse in RFC 8259 grammar only, and one that overflows a
//     double is an error (subnormal underflow is kept).
// No external JSON dependency: the writer helpers and the one reader, a
// pull cursor (Cursor below), live in json.cpp.
//
// The number codec below is also the one `xcv` flags and XCLang literals
// convert through: std::to_chars and std::from_chars, exact and
// independent of the C locale.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xcv::json {

// ---- Numbers ----------------------------------------------------------------

/// Appends `v` as documents spell it: the bytes of printf's %.17g for a
/// finite value (std::to_chars in general form at precision 17, which the
/// standard defines as %.17g), else the quoted "inf"/"-inf"/"nan".
void AppendDouble(std::string& out, double v);
/// AppendDouble into a new string.
std::string JsonDouble(double v);

/// Length of the decimal literal at the front of `text`, 0 when none starts
/// there: -?(D+(\.D*)?|\.D+)([eE][+-]?D+)? with D a digit, so an exponent
/// marker without digits is left out. Flags and XCLang literals use this
/// grammar; JSON's (Cursor) is the narrower RFC 8259 one.
std::size_t DecimalLength(std::string_view text);

/// `text` as a double when the whole of it is one decimal literal
/// (DecimalLength): the value strtod gives it, exactly rounded. A nonzero
/// literal too small to round to the least subnormal reads as a zero of its
/// sign, as with strtod. Hex, "inf", "nan", blanks and a value beyond the
/// largest double give nullopt.
std::optional<double> DecimalToDouble(std::string_view text);

/// Appends `v` as 16 lowercase hex digits (printf's %016llx).
void AppendHex64(std::string& out, std::uint64_t v);
/// The inverse of AppendHex64: hex digits of either case whose value fits
/// 64 bits, and nothing else (no sign, "0x" or blanks); nullopt otherwise.
std::optional<std::uint64_t> Hex64(std::string_view text);

std::string JsonEscape(const std::string& s);

/// Parsed JSON value (tree of vectors; objects keep insertion order).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First value under `key`, or nullptr — unknown keys are simply ignored
  /// by readers, which is what keeps the formats backward-compatible.
  const JsonValue* Find(const std::string& key) const;
  /// Find, but throws xcv::InternalError when the key is missing.
  const JsonValue& At(const std::string& key) const;
  /// Number, or one of the quoted non-finite tokens.
  double AsDouble() const;
  const std::string& AsString() const;
  bool AsBool() const;
};

/// `v` as an integer in [lo, hi] (|lo|, |hi| at most 2^53). Integer fields
/// of documents and flags arrive as doubles, and converting a non-finite or
/// out-of-range double to an integer type is undefined, so readers check
/// every such field here before narrowing it. Throws xcv::InternalError
/// naming `field` unless `v` is finite, integral and in range.
std::int64_t CheckedInteger(double v, std::int64_t lo, std::int64_t hi,
                            const std::string& field);

/// Largest integer every smaller one of which a double holds exactly — the
/// upper bound for 64-bit counters read through CheckedInteger.
inline constexpr std::int64_t kMaxExactInteger = std::int64_t{1} << 53;

/// Deepest array/object nesting the reader accepts. Every document the
/// repo writes nests fewer than ten levels; the bound keeps hostile input
/// (a body of a million '[') from overflowing the recursive reader's stack.
inline constexpr int kMaxDepth = 256;

/// Pull cursor over one JSON text, the repo's one JSON reader. A caller
/// walks the text value by value: it opens an object or array and steps
/// through its members or elements, reads a scalar, skips a value, or
/// materializes the next value as a JsonValue. So support/document.h
/// streams a document record by record and never builds a tree of the
/// whole file; a torn file needs no separate bracket scanner, since the
/// cursor stops where the text does. Every read keeps one grammar: nesting
/// up to kMaxDepth, RFC 8259 numbers, `\u` escapes of exactly four hex
/// digits. Text the grammar refuses, a value of the wrong type, and the end
/// of the text inside a value throw xcv::InternalError; the cursor is then
/// left where it stopped.
class Cursor {
 public:
  /// `text` must outlive the cursor.
  explicit Cursor(const std::string& text) : text_(text) {}
  explicit Cursor(std::string&&) = delete;

  /// Opens the object (array) that comes next.
  void BeginObject();
  void BeginArray();
  /// Steps to the next member of the innermost open object: reads its key
  /// into `*key` (a null `key` skips it) and returns true (the member's
  /// value comes next), or consumes the closing '}' and returns false.
  bool NextKey(std::string* key);
  /// Steps to the next element of the innermost open array: true when a
  /// value comes next, false after consuming the closing ']'.
  bool NextElement();

  /// Reads a string into `*out`, reusing its capacity; a null `out` skips
  /// the string.
  void String(std::string* out);
  /// Reads a number, or one of the quoted tokens "inf"/"-inf"/"nan".
  double Number();
  bool Bool();
  /// Skips the next value, checking it as Value() would, allocating nothing.
  void Skip();
  /// Materializes the next value. An object keeps every member in order,
  /// so a repeated key reads first-wins through JsonValue::Find.
  JsonValue Value();
  /// Requires that only whitespace remains.
  void End();

  /// Objects and arrays currently open.
  int depth() const { return depth_; }

 private:
  char Peek();  // next non-space byte; throws at the end of the text
  void Expect(char c);
  void Open(char bracket);
  bool Close(char bracket);
  bool Keyword(std::string_view word);
  double ReadNumber();  // a number literal only

  std::string_view text_;  // a std::string's: text_.data()[size] is NUL
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool first_ = false;  // the innermost open container has no element yet
  std::string token_;   // reused for the quoted non-finite tokens
};

/// Parses one JSON document: Cursor::Value, then Cursor::End (trailing
/// bytes are an error). Throws xcv::InternalError on malformed input.
JsonValue ParseJson(const std::string& text);

// ---- Schema versioning ------------------------------------------------------
//
// Every on-disk document (campaign checkpoint, verdict cache, xcvd queue
// journal, job spec) carries an explicit `"schema_version": <major>` field
// (the node ledger only its `"version"`). One compatibility rule, shared by
// every reader:
//   * absent field      → major 1 (documents written before versioning);
//   * major <= supported → load; unknown *fields* are ignored by the
//     readers, which is how minor, additive format growth ships;
//   * major >  supported → the document comes from a newer writer whose
//     layout this binary cannot be trusted to interpret: a clear, named
//     error (never a silent misparse).

/// The document's declared schema major: `schema_version` when present,
/// else the legacy `version` field, else 1.
int SchemaVersionOf(const JsonValue& root);

/// Enforces the compatibility rule above for a document of kind
/// `format_name` (used in the error message). Throws xcv::InternalError
/// naming the document's version and the newest this binary supports.
void RequireSupportedSchema(const JsonValue& root, const char* format_name,
                            int supported_major);

}  // namespace xcv::json
