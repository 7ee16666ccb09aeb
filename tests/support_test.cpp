#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/check.h"
#include "support/io.h"
#include "support/json.h"
#include "support/stopwatch.h"
#include "support/strings.h"
#include "support/table.h"

namespace xcv {
namespace {

TEST(Check, ThrowsOnFailure) {
  EXPECT_NO_THROW(XCV_CHECK(1 + 1 == 2));
  EXPECT_THROW(XCV_CHECK(1 + 1 == 3), InternalError);
}

TEST(Check, MessageContainsDetail) {
  try {
    XCV_CHECK_MSG(false, "value was " << 42);
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(-2.25), "-2.25");
  EXPECT_EQ(FormatDouble(1.0 / 3.0, 3), "0.333");
}

TEST(Strings, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(Strings, DisplayWidthCountsCodePoints) {
  EXPECT_EQ(DisplayWidth("abc"), 3u);
  EXPECT_EQ(DisplayWidth(""), 0u);
  // "✓" is a three-byte UTF-8 sequence but one display column.
  EXPECT_EQ(DisplayWidth("✓"), 1u);
  EXPECT_EQ(DisplayWidth("✓*"), 2u);
}

TEST(Strings, Padding) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("abcd", 2), "abcd");  // never truncates
  EXPECT_EQ(PadLeft("✓", 3), "  ✓");
}

TEST(Strings, StartsWithAndToLower) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_EQ(ToLower("VWN_RPA"), "vwn_rpa");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t;
  t.SetHeader({"Condition", "PBE", "LYP"});
  t.AddRow({"EC1", "✓", "✗"});
  t.AddRow({"A long condition name", "?", "−"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("Condition"), std::string::npos);
  EXPECT_NE(out.find("✓"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.NumColumns(), 3u);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t;
  t.SetHeader({"a", "b"});
  EXPECT_THROW(t.AddRow({"only one"}), InternalError);
}

TEST(TextTable, RejectsEmptyHeader) {
  TextTable t;
  EXPECT_THROW(t.SetHeader({}), InternalError);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
  EXPECT_GE(w.ElapsedMillis(), 0.0);
  w.Reset();
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
}

// Hostile nesting is a named error, not a stack overflow.
TEST(Json, NestingDepthIsBounded) {
  auto expect_depth_error = [](const std::string& text) {
    try {
      json::ParseJson(text);
      FAIL() << "expected InternalError";
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find("JSON nesting deeper than"),
                std::string::npos)
          << e.what();
    }
  };
  constexpr std::size_t kDeep = 100'000;
  expect_depth_error(std::string(kDeep, '['));
  std::string objects;
  for (std::size_t i = 0; i < kDeep; ++i) objects += "{\"a\":";
  expect_depth_error(objects);

  const auto at_limit = static_cast<std::size_t>(json::kMaxDepth);
  const std::string arrays =
      std::string(at_limit, '[') + std::string(at_limit, ']');
  json::JsonValue v = json::ParseJson(arrays);
  std::size_t depth = 1;
  for (const json::JsonValue* p = &v; !p->array.empty(); p = &p->array[0])
    ++depth;
  EXPECT_EQ(depth, at_limit);
  expect_depth_error("[" + arrays + "]");
}

// Numbers follow RFC 8259; strtod's wider grammar (inf, hex, '+', '.',
// leading zeros) and literals that overflow a double are named errors.
TEST(Json, NumbersFollowTheJsonGrammar) {
  for (const char* text :
       {"[inf]", "[-Infinity]", "[0x10]", "[+1]", "[.5]", "[01]", "[1e999]",
        "[-1e999]", "[1.]", "[1e]", "[-]", "[1.5.2]"}) {
    try {
      json::ParseJson(text);
      FAIL() << "accepted " << text;
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find("JSON number"), std::string::npos)
          << text << ": " << e.what();
    }
  }
  // Valid literals parse to exactly strtod's bits, subnormals included.
  for (const char* literal :
       {"-0", "0", "5e-324", "2.2250738585072014e-308",
        "1.7976931348623157e+308", "0.30000000000000004", "-12.5E+3",
        "1e-400"}) {
    const json::JsonValue v =
        json::ParseJson(std::string("[") + literal + "]");
    ASSERT_EQ(v.array.size(), 1u) << literal;
    const double expected = std::strtod(literal, nullptr);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.array[0].number),
              std::bit_cast<std::uint64_t>(expected))
        << literal;
  }
}

// Documents are read whole from a regular file in one sized read, and from
// a stream that cannot seek as it comes (`xcv cache-stats <(...)` hands the
// reader a pipe).
TEST(Io, ReadFileToStringReadsFilesAndPipes) {
  const std::string text = "{\"format\": \"x\"}\n" + std::string(4000, 'y');
  const std::string path = ::testing::TempDir() + "io_read_test.json";
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
  }
  std::string got;
  ASSERT_TRUE(support::ReadFileToString(path, &got));
  EXPECT_EQ(got, text);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], text.data(), text.size()),
            static_cast<ssize_t>(text.size()));
  ::close(fds[1]);
  got.clear();
  EXPECT_TRUE(
      support::ReadFileToString("/dev/fd/" + std::to_string(fds[0]), &got));
  ::close(fds[0]);
  EXPECT_EQ(got, text);
  { std::ofstream os(path, std::ios::binary | std::ios::trunc); }
  ASSERT_TRUE(support::ReadFileToString(path, &got));
  EXPECT_TRUE(got.empty());
  std::remove(path.c_str());
  EXPECT_FALSE(support::ReadFileToString(path, &got));
}

// A \u escape is exactly four hex digits: strtol's looser grammar (a sign,
// spaces, a "0x" prefix, a stop at the first non-digit) is an error.
TEST(Json, UnicodeEscapesNeedFourHexDigits) {
  for (const char* text :
       {R"("\u00zz")", R"("\u+0ff")", R"("\u 0ff")", R"("\u0x41")"}) {
    try {
      json::ParseJson(text);
      FAIL() << "accepted " << text;
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find("four hex digits"),
                std::string::npos)
          << text << ": " << e.what();
    }
  }
  EXPECT_EQ(json::ParseJson(R"("\u0041\u00fF\u0000")").str,
            std::string("A\xff\0", 3));
  EXPECT_THROW(json::ParseJson(R"("\u0100")"), InternalError);  // not Latin-1
  EXPECT_THROW(json::ParseJson(R"("\u004")"), InternalError);   // short
}

}  // namespace
}  // namespace xcv
