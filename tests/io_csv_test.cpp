// CSV dialect regression tests, centred on two fixed bugs:
//
//   * quote-state: an unquoted '"' appearing after field content
//     (`ab"cd,e`) used to flip the parser into quoted mode, swallowing
//     the comma and merging the fields; RFC 4180 treats it as a literal
//     character (a quote only opens a quoted field at field start);
//   * bare CR: a '\r' not followed by '\n' used to be silently dropped
//     mid-field (`a\rb` parsed as `ab`); it is a row terminator
//     (classic-Mac line ending), while quoted CRs stay literal.
//
// Both parse_csv (whole document) and read_csv_stream (chunked) implement
// the dialect, so everything here is asserted against both, plus a seeded
// fuzz-style round-trip property test through format_csv_row.
#include "io/csv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace sp::io {
namespace {

/// Runs the streaming parser over `text` and collects all rows.
std::optional<std::vector<CsvRow>> stream_all(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::vector<CsvRow> rows;
  const auto status = read_csv_stream(in, [&](CsvRow&& row, std::size_t) {
    rows.push_back(std::move(row));
    return true;
  });
  if (!status.ok) return std::nullopt;
  return rows;
}

/// Asserts parse_csv and read_csv_stream agree, returning the parse.
std::optional<std::vector<CsvRow>> parse_both(std::string_view text) {
  const auto parsed = parse_csv(text);
  const auto streamed = stream_all(text);
  EXPECT_EQ(parsed, streamed) << "parsers disagree on: " << text;
  return parsed;
}

TEST(CsvQuoteState, QuoteAfterContentIsLiteral) {
  // The original bug: `ab"cd,e` became one field `abcd,e`.
  const auto rows = parse_both("ab\"cd,e\n");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 1u);
  ASSERT_EQ((*rows)[0].size(), 2u);
  EXPECT_EQ((*rows)[0][0], "ab\"cd");
  EXPECT_EQ((*rows)[0][1], "e");
}

TEST(CsvQuoteState, QuoteAtFieldStartStillOpensQuotedField) {
  const auto rows = parse_both("a,\"b,c\",d\n");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ((*rows)[0].size(), 3u);
  EXPECT_EQ((*rows)[0][1], "b,c");
}

TEST(CsvQuoteState, MultipleLiteralQuotesMidField) {
  const auto rows = parse_both("say \"\"hi\"\",done\n");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ((*rows)[0].size(), 2u);
  EXPECT_EQ((*rows)[0][0], "say \"\"hi\"\"");
  EXPECT_EQ((*rows)[0][1], "done");
}

TEST(CsvQuoteState, TrailingContentAfterClosedQuoteThenQuote) {
  // `"ab"x"y`: quoted "ab", then literal x, then a mid-field quote —
  // all literal from there.
  const auto rows = parse_both("\"ab\"x\"y\n");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ((*rows)[0].size(), 1u);
  EXPECT_EQ((*rows)[0][0], "abx\"y");
}

TEST(CsvQuoteState, UnbalancedQuoteStillRejected) {
  EXPECT_FALSE(parse_csv("\"unclosed\n").has_value());
  EXPECT_FALSE(stream_all("\"unclosed\n").has_value());
  // A literal mid-field quote is NOT an unbalanced open quote.
  EXPECT_TRUE(parse_csv("ab\"cd\n").has_value());
  EXPECT_TRUE(stream_all("ab\"cd\n").has_value());
}

TEST(CsvBareCr, BareCrTerminatesRow) {
  // The original bug: `a\rb` parsed as one row [ab].
  const auto rows = parse_both("a\rb\n");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], CsvRow{"a"});
  EXPECT_EQ((*rows)[1], CsvRow{"b"});
}

TEST(CsvBareCr, ClassicMacDocument) {
  const auto rows = parse_both("a,b\rc,d\re,f\r");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0], (CsvRow{"a", "b"}));
  EXPECT_EQ((*rows)[1], (CsvRow{"c", "d"}));
  EXPECT_EQ((*rows)[2], (CsvRow{"e", "f"}));
}

TEST(CsvBareCr, CrlfIsStillOneTerminator) {
  const auto rows = parse_both("a,b\r\nc,d\r\n");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (CsvRow{"a", "b"}));
  EXPECT_EQ((*rows)[1], (CsvRow{"c", "d"}));
}

TEST(CsvBareCr, MixedTerminatorsInOneDocument) {
  const auto rows = parse_both("a\r\nb\rc\nd");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 4u);
  EXPECT_EQ((*rows)[0], CsvRow{"a"});
  EXPECT_EQ((*rows)[1], CsvRow{"b"});
  EXPECT_EQ((*rows)[2], CsvRow{"c"});
  EXPECT_EQ((*rows)[3], CsvRow{"d"});
}

TEST(CsvBareCr, QuotedCrStaysLiteral) {
  const auto rows = parse_both("\"a\rb\",c\n");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 1u);
  ASSERT_EQ((*rows)[0].size(), 2u);
  EXPECT_EQ((*rows)[0][0], "a\rb");
  EXPECT_EQ((*rows)[0][1], "c");
}

TEST(CsvBareCr, QuotedFieldFollowedByCrTerminator) {
  // The closing quote's lookahead must hand the CR to the unquoted state.
  const auto rows = parse_both("\"a\"\r\"b\"\r\n");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], CsvRow{"a"});
  EXPECT_EQ((*rows)[1], CsvRow{"b"});
}

TEST(CsvBareCr, StreamLineNumbersCountCrRows) {
  std::istringstream in("a\rb\rc\r");
  std::vector<std::size_t> lines;
  const auto status = read_csv_stream(in, [&](CsvRow&&, std::size_t line) {
    lines.push_back(line);
    return true;
  });
  EXPECT_TRUE(status.ok);
  EXPECT_EQ(lines, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(CsvRoundTrip, WriterQuotesEveryTerminatorAndQuote) {
  const CsvRow row{"plain", "has,comma", "has\"quote", "has\rcr", "has\nlf", ""};
  const auto rows = parse_both(format_csv_row(row) + "\n");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], row);
}

// Fuzz-style property test: any row of random fields drawn from an
// adversarial alphabet survives format_csv_row → parse_csv and
// format_csv_row → read_csv_stream byte-for-byte. Seeded, so failures
// reproduce; ASan/UBSan runs of this test double as a memory-safety fuzz
// of both parsers.
TEST(CsvRoundTrip, RandomRowsSurviveBothParsers) {
  std::mt19937_64 rng(20250806);
  // Heavy on the four structural characters; includes multi-byte UTF-8.
  const std::vector<std::string> atoms = {
      "\"", ",", "\r", "\n", "\r\n", "a", "xyz", "", " ", "\"\"", "é", "日本", "0"};
  std::uniform_int_distribution<std::size_t> atom_of(0, atoms.size() - 1);
  std::uniform_int_distribution<int> atoms_per_field(0, 6);
  std::uniform_int_distribution<int> fields_per_row(1, 5);
  std::uniform_int_distribution<int> rows_per_doc(1, 4);

  for (int iteration = 0; iteration < 500; ++iteration) {
    std::vector<CsvRow> document(static_cast<std::size_t>(rows_per_doc(rng)));
    std::string text;
    for (CsvRow& row : document) {
      row.resize(static_cast<std::size_t>(fields_per_row(rng)));
      for (std::string& field : row) {
        const int parts = atoms_per_field(rng);
        for (int p = 0; p < parts; ++p) field += atoms[atom_of(rng)];
      }
      text += format_csv_row(row) + "\n";
    }
    const auto parsed = parse_csv(text);
    ASSERT_TRUE(parsed.has_value()) << "iteration " << iteration << ": " << text;
    const auto streamed = stream_all(text);
    ASSERT_TRUE(streamed.has_value()) << "iteration " << iteration;
    EXPECT_EQ(*parsed, document) << "iteration " << iteration << ": " << text;
    EXPECT_EQ(*streamed, document) << "iteration " << iteration;
  }
}

TEST(CsvDevFull, WriteCsvFileReportsFailedFlush) {
  // A one-row file sits in the stream's buffer until it is closed; the
  // error of that last flush must reach the caller.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(write_csv_file("/dev/full", {{"v4_prefix", "v6_prefix"}}));
}

}  // namespace
}  // namespace sp::io
