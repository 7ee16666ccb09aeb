// The number codec (support/json.h) audited against the C library it
// replaced: the writer's bytes must equal snprintf("%.17g") and the reader's
// bits must equal strtod's, over random bit patterns, random decimal
// literals and an edge table; the verdict cache's hex scope codec must
// equal "%016llx" and refuse what strtoull used to bend.
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/verdict_cache.h"
#include "support/check.h"
#include "support/io.h"
#include "support/json.h"

namespace xcv {
namespace {

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string Printf17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Reads every literal of `literals` through the document reader (one JSON
// array, so the cursor's number path is what converts them) and through
// json::DecimalToDouble (the flag and XCLang path), and checks both
// against strtod bit for bit.
void ExpectReadsAsStrtod(const std::vector<std::string>& literals) {
  std::string doc = "[";
  for (std::size_t i = 0; i < literals.size(); ++i) {
    if (i) doc += ',';
    doc += literals[i];
  }
  doc += ']';
  json::Cursor cursor(doc);
  cursor.BeginArray();
  std::size_t mismatches = 0;
  for (const std::string& literal : literals) {
    ASSERT_TRUE(cursor.NextElement());
    const double expected = std::strtod(literal.c_str(), nullptr);
    const double read = cursor.Number();
    const std::optional<double> decimal = json::DecimalToDouble(literal);
    if (Bits(read) != Bits(expected) || !decimal.has_value() ||
        Bits(*decimal) != Bits(expected)) {
      if (++mismatches <= 5)
        ADD_FAILURE() << literal << ": strtod " << Printf17g(expected)
                      << ", reader " << Printf17g(read);
    }
  }
  EXPECT_FALSE(cursor.NextElement());
  cursor.End();
  EXPECT_EQ(mismatches, 0u) << "of " << literals.size();
}

// A million random bit patterns: finite ones print as %.17g does and read
// back as strtod reads that text (which is the value itself, as %.17g
// round-trips); non-finite ones print as the quoted tokens.
TEST(Codec, WriterMatchesPrintfAndReaderMatchesStrtodOnRandomBits) {
  std::mt19937_64 rng(20260);
  constexpr std::size_t kPatterns = 1'000'000;
  std::vector<std::string> literals;
  literals.reserve(kPatterns);
  std::size_t byte_mismatches = 0, non_finite = 0;
  std::string out;
  for (std::size_t i = 0; i < kPatterns; ++i) {
    const double v = std::bit_cast<double>(rng());
    out.clear();
    json::AppendDouble(out, v);
    if (!std::isfinite(v)) {
      ++non_finite;
      EXPECT_EQ(out, std::isnan(v) ? "\"nan\""
                     : v > 0       ? "\"inf\""
                                   : "\"-inf\"");
      continue;
    }
    const std::string expected = Printf17g(v);
    if (out != expected && ++byte_mismatches <= 5)
      ADD_FAILURE() << "AppendDouble " << out << ", %.17g " << expected;
    EXPECT_EQ(json::JsonDouble(v), out);
    literals.push_back(expected);
  }
  EXPECT_EQ(byte_mismatches, 0u);
  EXPECT_GT(non_finite, 0u);  // the exponent-all-ones patterns came up
  ExpectReadsAsStrtod(literals);
}

// Shorter and longer decimal spellings than the writer's: random digit
// strings at random precisions and exponents across the whole range,
// underflow and overflow edges included, must round as strtod rounds.
TEST(Codec, ReaderMatchesStrtodOnRandomDecimals) {
  std::mt19937_64 rng(7);
  std::vector<std::string> literals;
  char buf[64];
  for (int i = 0; i < 300'000; ++i) {
    const double v = std::bit_cast<double>(rng() & ~(std::uint64_t{1} << 63));
    if (!std::isfinite(v)) continue;
    const int precision = 1 + static_cast<int>(rng() % 25);
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    literals.push_back((rng() & 1) ? std::string("-") + buf : buf);
    // Digits and an exponent drawn independently: some under- or overflow.
    std::string digits = std::to_string(rng() % 100000000000ull);
    const int exponent = static_cast<int>(rng() % 700) - 350;
    literals.push_back(digits + "e" + std::to_string(exponent));
    literals.push_back("0." + digits + "E+" + std::to_string(rng() % 320));
  }
  // Filter the literals whose strtod value is infinite: those are the
  // overflow errors the next test covers.
  std::vector<std::string> finite;
  for (const std::string& s : literals)
    if (std::isfinite(std::strtod(s.c_str(), nullptr))) finite.push_back(s);
  EXPECT_GT(finite.size(), 800'000u);
  ExpectReadsAsStrtod(finite);
}

// The edge table: signed zeros, the least subnormal, the subnormal-normal
// boundary (2.2250738585072011e-308 once hung strtod implementations),
// DBL_MAX and its rounding edge, every power of ten, 800-digit mantissas at
// and around the midpoints between neighbouring doubles, and underflow,
// which reads as a zero of its sign.
TEST(Codec, EdgeTableMatchesStrtod) {
  std::vector<std::string> literals = {
      "0", "-0", "0.0", "-0.0e-5", "5e-324", "-5e-324",
      "4.9406564584124654e-324", "2.4703282292062328e-324",
      "2.4703282292062327e-324", "2.2250738585072011e-308",
      "2.2250738585072012e-308", "2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623158e+308",
      "-1.7976931348623157E308", "1e-400", "-1e-400",
      "1e-99999999999999999999", "-0.000001e-320", "9007199254740993",
      "0.30000000000000004"};
  for (int e = -330; e <= 308; ++e)
    literals.push_back("1e" + std::to_string(e));
  std::mt19937_64 rng(800);
  char buf[1024];
  for (int i = 0; i < 400; ++i) {
    // The midpoint of two neighbouring doubles is exact in x87 long double,
    // and %.800Le prints its exact decimal expansion: 801 digits, ending in
    // zeros. Nudging its last digit moves it off the tie either way.
    const double lo = std::bit_cast<double>(rng() >> 2);  // finite, positive
    const long double mid =
        (static_cast<long double>(lo) +
         static_cast<long double>(std::nextafter(lo, INFINITY))) /
        2;
    std::snprintf(buf, sizeof(buf), "%.800Le", mid);
    std::string tie = buf;
    literals.push_back(tie);
    const std::size_t e = tie.find('e');
    literals.push_back(tie.substr(0, e - 1) + "1" + tie.substr(e));
    std::string below = tie;
    std::size_t d = e - 1;
    while (below[d] == '0') below[d--] = '9';
    if (below[d] != '.') {
      --below[d];
      literals.push_back(below);
    }
  }
  ExpectReadsAsStrtod(literals);
  for (const char* literal : {"1e-400", "-1e-400", "-0.000001e-320"}) {
    const std::optional<double> v = json::DecimalToDouble(literal);
    ASSERT_TRUE(v.has_value()) << literal;
    EXPECT_EQ(*v, 0.0) << literal;
    EXPECT_EQ(std::signbit(*v), literal[0] == '-') << literal;
  }
  // Writer edges: the same table in the other direction.
  for (const double v : {0.0, -0.0, 5e-324, -5e-324, DBL_MIN, DBL_MAX,
                         -DBL_MAX, 1e16, 1e17, 0.1, 123.0, 1e-5, 1e-4}) {
    std::string out;
    json::AppendDouble(out, v);
    EXPECT_EQ(out, Printf17g(v));
  }
}

// A literal beyond the largest double is the named error on every path,
// where strtod returned an infinity.
TEST(Codec, OverflowIsAnError) {
  for (const char* literal :
       {"1e400", "-1e400", "1.7976931348623159e308", "1e99999999999999999999",
        "100000000000000000000000000000000000000000000000000e300"}) {
    EXPECT_FALSE(json::DecimalToDouble(literal).has_value()) << literal;
    try {
      json::ParseJson(std::string("[") + literal + "]");
      FAIL() << "read " << literal;
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find("overflows a double"),
                std::string::npos)
          << e.what();
    }
  }
}

// Decimal only: the flag and XCLang grammar refuses what strtod also took.
TEST(Codec, DecimalGrammarRefusesHexInfNanAndBlanks) {
  for (const char* text : {"", "0x10", "0x1p3", "inf", "-inf", "nan",
                           "infinity", " 4", "4 ", "+4", "1e", "1e+", ".",
                           "-", "1.5.2", "1_000", "--1", "e5"})
    EXPECT_FALSE(json::DecimalToDouble(text).has_value()) << "'" << text << "'";
  for (const auto& [text, value] :
       {std::pair<const char*, double>{".05", 0.05}, {"2.", 2.0},
        {"2.5e-1", 0.25}, {"007", 7.0}, {"-3", -3.0}, {"1E3", 1000.0},
        {"2.e2", 200.0}}) {
    const std::optional<double> v = json::DecimalToDouble(text);
    ASSERT_TRUE(v.has_value()) << text;
    EXPECT_EQ(*v, value) << text;
  }
  EXPECT_EQ(json::DecimalLength("12.5e3x"), 6u);
  EXPECT_EQ(json::DecimalLength("1e+x"), 1u);
  EXPECT_EQ(json::DecimalLength("0x1p3"), 1u);
  EXPECT_EQ(json::DecimalLength(".x"), 0u);
}

TEST(Codec, Hex64MatchesPrintfAndRefusesSignsPrefixesAndBlanks) {
  std::mt19937_64 rng(16);
  char buf[32];
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t v = rng() >> (rng() % 64);
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    std::string out;
    json::AppendHex64(out, v);
    ASSERT_EQ(out, buf);
    ASSERT_EQ(json::Hex64(out), v);
  }
  EXPECT_EQ(json::Hex64("FF"), 255u);
  for (const char* text :
       {"", "-1", "0x12", " 12", "12 ", "+1", "g", "10000000000000000"})
    EXPECT_FALSE(json::Hex64(text).has_value()) << "'" << text << "'";
}

// A cache record whose scope is not plain hex is refused, in a file whose
// checksum holds: strtoull read "-1" as 0xffffffffffffffff, "0x12" as 0x12
// and " 12" as 0x12. The load keeps the entries before it.
TEST(Codec, CacheScopesMustBePlainHex) {
  cache::VerdictCache full;
  for (std::uint64_t scope : {0x11u, 0x12u, 0x13u})
    full.Store(scope, std::vector<Interval>{Interval(0.0, 1.0)},
               cache::CachedVerdict{});
  const std::string json = full.ToJson();
  const std::string second = "\"scope\": \"0000000000000012\"";
  ASSERT_NE(json.find(second), std::string::npos) << json;
  const std::string path = ::testing::TempDir() + "codec_bad_scope.json";
  for (const char* bad : {"-1", "0x12", " 12"}) {
    std::string text = json;
    text.replace(text.find(second), second.size(),
                 std::string("\"scope\": \"") + bad + "\"");
    cache::VerdictCache parsed;
    EXPECT_FALSE(parsed.FromJson(text)) << bad;
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os << support::AddDocumentChecksum(text);
    }
    cache::VerdictCache cache;
    support::LoadOutcome outcome;
    EXPECT_TRUE(cache.Load(path, &outcome)) << bad;
    EXPECT_TRUE(outcome.salvaged) << bad;
    EXPECT_EQ(outcome.records, 1u) << bad;
    EXPECT_EQ(cache.size(), 1u) << bad;
  }
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
  cache::VerdictCache round_trip;
  ASSERT_TRUE(round_trip.FromJson(json));
  EXPECT_EQ(round_trip.ToJson(), json);
}

}  // namespace
}  // namespace xcv
