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
// No external JSON dependency: the writer helpers and the small
// recursive-descent reader live in json.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace xcv::json {

/// %.17g for finite values; "inf"/"-inf"/"nan" (quoted) otherwise.
std::string JsonDouble(double v);
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

/// Deepest array/object nesting ParseJson accepts. Every document the repo
/// writes nests fewer than ten levels; the bound keeps hostile input (a
/// body of a million '[') from overflowing the recursive reader's stack.
inline constexpr int kMaxDepth = 256;

/// Parses one JSON document (trailing bytes are an error). Throws
/// xcv::InternalError on malformed input, including nesting deeper than
/// kMaxDepth.
JsonValue ParseJson(const std::string& text);

/// Given `text[start]` == '{' or '[', returns the index one past the
/// matching close bracket — string- and escape-aware, so braces inside
/// string values do not confuse it. Returns std::string::npos when the
/// value is incomplete (a torn document) or `start` is not a bracket.
/// support/document.cpp carves intact records out of torn files with it.
std::size_t SkipBalanced(const std::string& text, std::size_t start);

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
