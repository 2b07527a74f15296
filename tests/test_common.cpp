// Tests for tce/common: contracts, checked/saturating arithmetic,
// strings, tables, and byte-unit formatting (including the paper's table
// convention).

#include <gtest/gtest.h>

#include <limits>

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/common/json.hpp"
#include "tce/common/parse.hpp"
#include "tce/common/rng.hpp"
#include "tce/common/strings.hpp"
#include "tce/common/table.hpp"
#include "tce/common/units.hpp"

namespace tce {
namespace {

// ---------------------------------------------------------------- checked

TEST(Checked, MulAndAddPassThrough) {
  EXPECT_EQ(checked_mul(480, 480), 230'400u);
  EXPECT_EQ(checked_add(1, 2), 3u);
  EXPECT_EQ(checked_mul(0, std::numeric_limits<std::uint64_t>::max()), 0u);
}

TEST(Checked, MulOverflowThrows) {
  const std::uint64_t big = std::uint64_t{1} << 63;
  EXPECT_THROW(checked_mul(big, 2), ContractViolation);
  EXPECT_THROW(checked_add(std::numeric_limits<std::uint64_t>::max(), 1),
               ContractViolation);
}

TEST(Checked, SaturatingClampsInsteadOfThrowing) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(saturating_mul(max, 2), max);
  EXPECT_EQ(saturating_add(max, 1), max);
  EXPECT_EQ(saturating_mul(3, 4), 12u);
}

TEST(Checked, ExactIsqrt) {
  EXPECT_EQ(exact_isqrt(0), 0u);
  EXPECT_EQ(exact_isqrt(1), 1u);
  EXPECT_EQ(exact_isqrt(64), 8u);
  EXPECT_EQ(exact_isqrt(65536), 256u);
  EXPECT_THROW(exact_isqrt(63), ContractViolation);
}

TEST(Checked, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_THROW(ceil_div(1, 0), ContractViolation);
}

// ------------------------------------------------------------------ parse

TEST(Parse, AcceptsPlainDecimal) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Parse, RejectsGarbageEmptyAndPartialNumbers) {
  // Every shape strtoul/atoi silently folds to 0 (or truncates at the
  // first bad character) must come back nullopt instead.
  EXPECT_EQ(parse_u64(""), std::nullopt);
  EXPECT_EQ(parse_u64("garbage"), std::nullopt);
  EXPECT_EQ(parse_u64("12abc"), std::nullopt);
  EXPECT_EQ(parse_u64(" 12"), std::nullopt);
  EXPECT_EQ(parse_u64("12 "), std::nullopt);
  EXPECT_EQ(parse_u64("-1"), std::nullopt);
  EXPECT_EQ(parse_u64("+1"), std::nullopt);
  EXPECT_EQ(parse_u64("0x10"), std::nullopt);
  EXPECT_EQ(parse_u64("1.5"), std::nullopt);
}

TEST(Parse, RejectsOverflow) {
  EXPECT_EQ(parse_u64("18446744073709551616"), std::nullopt);  // max+1
  EXPECT_EQ(parse_u64("99999999999999999999999"), std::nullopt);
}

TEST(Parse, RangeCheckedVariant) {
  EXPECT_EQ(parse_u64_in("8", 8, 64), 8u);
  EXPECT_EQ(parse_u64_in("64", 8, 64), 64u);
  EXPECT_EQ(parse_u64_in("7", 8, 64), std::nullopt);
  EXPECT_EQ(parse_u64_in("65", 8, 64), std::nullopt);
  EXPECT_EQ(parse_u64_in("junk", 0, 100), std::nullopt);
}

// ---------------------------------------------------------------- strings

TEST(Strings, TrimAndSplit) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(split("a, b ,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(is_identifier("T1"));
  EXPECT_TRUE(is_identifier("_x"));
  EXPECT_FALSE(is_identifier("1T"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a-b"));
}

TEST(Strings, JoinAndFixed) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(98.04, 1), "98.0");
}

// ------------------------------------------------------------------ units

TEST(Units, PaperConventionMatchesPublishedEntries) {
  // Exact entries from the paper's Tables 1-2.
  EXPECT_EQ(format_bytes_paper(117'964'800), "115.2MB");
  EXPECT_EQ(format_bytes_paper(1'769'472'000), "1.728GB");
  EXPECT_EQ(format_bytes_paper(110'592'000), "108.0MB");
  EXPECT_EQ(format_bytes_paper(58'982'400), "57.6MB");
}

TEST(Units, SiFormatting) {
  EXPECT_EQ(format_bytes_si(999), "999 B");
  EXPECT_EQ(format_bytes_si(1'500), "1.50 KB");
  EXPECT_EQ(format_bytes_si(2'000'000'000), "2.00 GB");
}

TEST(Units, SecondsPaperStyle) {
  EXPECT_EQ(format_seconds_paper(98.0), "98.0 sec.");
}

// ------------------------------------------------------------------ table

TEST(Table, AlignsColumns) {
  TextTable t({"name", "value"});
  t.set_right_aligned(1);
  t.add_row({"a", "1"});
  t.add_row({"long-name", "12345"});
  const std::string s = t.str();
  // All lines equal width up to trailing content.
  EXPECT_NE(s.find("name       value"), std::string::npos);
  EXPECT_NE(s.find("a              1"), std::string::npos);
  EXPECT_NE(s.find("long-name  12345"), std::string::npos);
}

TEST(Table, RejectsBadRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
  EXPECT_THROW(t.set_right_aligned(5), ContractViolation);
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformRealInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform_real(-1.0, 1.0);
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 1.0);
  }
}

// ------------------------------------------------------------------ json

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  // RFC 8259 §7: \uXXXX escapes, including a surrogate pair for a
  // codepoint beyond the BMP (U+1D11E, musical G clef).
  const json::Value v =
      json::parse("\"aA\\u00e9\\u4e2d\\ud834\\udd1e\"");
  EXPECT_EQ(v.string,
            "aA\xC3\xA9\xE4\xB8\xAD\xF0\x9D\x84\x9E");
}

TEST(Json, LoneOrMalformedSurrogatesAreRejected) {
  EXPECT_THROW(json::parse(R"("\ud834")"), Error);        // high, no low
  EXPECT_THROW(json::parse(R"("\ud834A")"), Error);  // high + non-low
  EXPECT_THROW(json::parse(R"("\udd1e")"), Error);        // bare low
  EXPECT_THROW(json::parse(R"("\uZZZZ")"), Error);        // not hex
  EXPECT_THROW(json::parse(R"("\u12")"), Error);          // truncated
}

TEST(Json, OversizedIntegerLiteralIsRejectedNotClamped) {
  // Regression: the integer branch used to re-parse the token with raw
  // strtoull, which clamps to UINT64_MAX on overflow with errno the
  // only witness.  A 21-digit literal must be a parse error, never a
  // silently clamped value.
  EXPECT_THROW(json::parse("123456789012345678901"), Error);
  EXPECT_THROW(json::parse("{\"bytes\": 999999999999999999999}"), Error);
  // The largest representable value still parses exactly.
  const json::Value v = json::parse("18446744073709551615");
  EXPECT_TRUE(v.is_integer);
  EXPECT_EQ(v.integer, 18446744073709551615ULL);
}

TEST(Json, ControlCharactersEscapeOnWriteAndRoundTrip) {
  // Raw control characters are illegal inside JSON strings; quote()
  // must emit escapes for all of 0x00..0x1F and the parser must map
  // them back to the identical bytes.
  std::string all;
  for (int c = 1; c < 0x20; ++c) all.push_back(static_cast<char>(c));
  all += "\"\\ plain";
  const std::string quoted = json::quote(all);
  for (char c : quoted) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << quoted;
  }
  EXPECT_EQ(json::parse(quoted).string, all);
}

TEST(Json, NonBmpStringSurvivesWriteParseWrite) {
  // UTF-8 payloads pass through quote() byte-identically, and escaped
  // and literal spellings of the same text parse to the same value.
  const std::string text = "caf\xC3\xA9 \xF0\x9D\x84\x9E end";
  const json::Value direct = json::parse(json::quote(text));
  EXPECT_EQ(direct.string, text);
  const json::Value escaped =
      json::parse("\"caf\\u00e9 \\ud834\\udd1e end\"");
  EXPECT_EQ(escaped.string, text);
}

}  // namespace
}  // namespace tce
