// CSV dialect tests for io::CsvCursor, the one tokenizer behind
// parse_csv, read_csv_file, the snapshot reader and the sibling-list
// reader. They are centred on two fixed bugs:
//
//   * quote-state: an unquoted '"' appearing after field content
//     (`ab"cd,e`) used to flip the parser into quoted mode, swallowing
//     the comma and merging the fields; RFC 4180 treats it as a literal
//     character (a quote only opens a quoted field at field start);
//   * bare CR: a '\r' not followed by '\n' used to be silently dropped
//     mid-field (`a\rb` parsed as `ab`); it is a row terminator
//     (classic-Mac line ending), while quoted CRs stay literal.
//
// Every document here is also parsed by the character state machine the
// cursor replaced (reference_csv.h); CsvOracle holds parse_csv to it on
// seeded random documents, and the cursor's row lines to the chunked
// reference reader's.
#include "io/csv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "reference_csv.h"

namespace sp::io {
namespace {

/// Asserts parse_csv and the reference parser agree, returning the parse.
std::optional<std::vector<CsvRow>> parse_both(std::string_view text) {
  const auto parsed = parse_csv(text);
  EXPECT_EQ(parsed, testsupport::reference_parse_csv(text)) << "parsers disagree on: " << text;
  return parsed;
}

/// The line of every row the cursor reads, up to its end or a bad row.
std::vector<std::size_t> cursor_lines(std::string_view text) {
  CsvCursor cursor(text);
  std::vector<std::size_t> lines;
  while (cursor.next() == CsvCursor::Next::row) lines.push_back(cursor.line());
  return lines;
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
  EXPECT_FALSE(parse_both("\"unclosed\n").has_value());
  // A literal mid-field quote is NOT an unbalanced open quote.
  EXPECT_TRUE(parse_both("ab\"cd\n").has_value());
  // The cursor reports the open quote's row line, and keeps reporting it.
  CsvCursor cursor("a\n\"b\nc\",x\n\"open\nd\n");
  ASSERT_EQ(cursor.next(), CsvCursor::Next::row);
  ASSERT_EQ(cursor.next(), CsvCursor::Next::row);
  EXPECT_EQ(cursor.line(), 2u);
  EXPECT_EQ(cursor.fields()[0], "b\nc");
  EXPECT_EQ(cursor.next(), CsvCursor::Next::bad);
  EXPECT_EQ(cursor.line(), 4u);
  EXPECT_EQ(cursor.next(), CsvCursor::Next::bad);
  EXPECT_EQ(cursor.line(), 4u);
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

TEST(CsvBareCr, CursorLineNumbersCountCrRows) {
  EXPECT_EQ(cursor_lines("a\rb\rc\r"), (std::vector<std::size_t>{1, 2, 3}));
  // A CRLF is one line and blank lines count; inside quotes an LF counts
  // and a CR does not.
  EXPECT_EQ(cursor_lines("a\r\n\r\n\nb\r\"c\r\nd\"\n\"e\rf\"\ng"),
            (std::vector<std::size_t>{1, 4, 5, 7, 8}));
}

TEST(CsvCursor, QuotedFieldsOfAWideRowStayValid) {
  // Short quoted fields live in their column buffers' inline storage, so
  // a buffer that moved when the row grew would leave earlier views
  // pointing at stale bytes.
  std::string text;
  CsvRow want;
  for (int i = 0; i < 300; ++i) {
    want.push_back("f" + std::to_string(i) + ",");
    text += (i > 0 ? ",\"" : "\"") + want.back() + "\"";
  }
  CsvCursor cursor(text);
  ASSERT_EQ(cursor.next(), CsvCursor::Next::row);
  EXPECT_EQ(CsvRow(cursor.fields().begin(), cursor.fields().end()), want);
  EXPECT_EQ(cursor.next(), CsvCursor::Next::end);
}

TEST(CsvRoundTrip, WriterQuotesEveryTerminatorAndQuote) {
  const CsvRow row{"plain", "has,comma", "has\"quote", "has\rcr", "has\nlf", ""};
  const auto rows = parse_both(format_csv_row(row) + "\n");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], row);
}

// Fuzz-style property test: any row of random fields drawn from an
// adversarial alphabet survives format_csv_row → parse_csv byte-for-byte,
// in parse_csv and in the reference parser. Seeded, so failures
// reproduce; ASan/UBSan runs of this test double as a memory-safety fuzz
// of the cursor.
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
    const auto reference = testsupport::reference_parse_csv(text);
    ASSERT_TRUE(reference.has_value()) << "iteration " << iteration;
    EXPECT_EQ(*parsed, document) << "iteration " << iteration << ": " << text;
    EXPECT_EQ(*reference, document) << "iteration " << iteration;
  }
}

/// Random documents in every form the dialect allows: plain and quoted
/// fields (quoted commas, CRs, LFs, CRLFs and "" escapes, bytes after the
/// closing quote, literal mid-field quotes), LF, CRLF and bare-CR row
/// ends, blank lines, no final line break, and quotes left open.
std::string random_document(std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  static constexpr const char* kPlain[] = {"", "a", "xyz", "20.1.0.0/16", "0.5", " ", "ab\"cd",
                                           "\xc3\xa9"};
  static constexpr const char* kQuoted[] = {"", ",", "\r", "\n", "\r\n", "\"", "a", "x,y",
                                            "multi\nline", "q\"uote"};
  static constexpr const char* kTerminators[] = {"\n", "\n", "\r\n", "\r"};
  std::string doc;
  const std::size_t rows = pick(6);
  for (std::size_t r = 0; r < rows; ++r) {
    if (pick(8) == 0) doc += kTerminators[pick(4)];  // a blank line
    const std::size_t fields = 1 + pick(4);
    for (std::size_t f = 0; f < fields; ++f) {
      if (f > 0) doc.push_back(',');
      if (pick(3) != 0) {
        doc += kPlain[pick(std::size(kPlain))];
        continue;
      }
      doc.push_back('"');
      for (std::size_t parts = pick(4); parts > 0; --parts) {
        for (const char c : std::string_view(kQuoted[pick(std::size(kQuoted))])) {
          if (c == '"') doc.push_back('"');
          doc.push_back(c);
        }
      }
      if (pick(6) != 0) doc.push_back('"');  // else the quote stays open
      if (pick(6) == 0) doc += kPlain[pick(std::size(kPlain))];
    }
    doc += kTerminators[pick(4)];
  }
  if (pick(3) == 0) {  // no final line break
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == '\r')) doc.pop_back();
  }
  if (pick(8) == 0 && !doc.empty()) doc[pick(doc.size())] = "\",\r\n"[pick(4)];
  return doc;
}

TEST(CsvOracle, RandomDocumentsMatchReference) {
  std::mt19937_64 rng(23);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t quoted_lf = 0;
  std::size_t bare_cr = 0;
  for (int i = 0; i < 60'000; ++i) {
    const std::string doc = random_document(rng);
    EXPECT_EQ(parse_csv(doc), testsupport::reference_parse_csv(doc)) << doc;

    std::istringstream in(doc);
    std::vector<std::pair<CsvRow, std::size_t>> want;
    const auto status = testsupport::reference_read_csv_stream(
        in, [&](CsvRow&& row, std::size_t line) {
          want.emplace_back(std::move(row), line);
          return true;
        });
    CsvCursor cursor(doc);
    std::vector<std::pair<CsvRow, std::size_t>> got;
    CsvCursor::Next next;
    while ((next = cursor.next()) == CsvCursor::Next::row) {
      got.emplace_back(CsvRow(cursor.fields().begin(), cursor.fields().end()), cursor.line());
    }
    EXPECT_EQ(got, want) << doc;
    ASSERT_EQ(next == CsvCursor::Next::end, status.ok) << doc;
    if (!status.ok) {
      EXPECT_EQ(cursor.line(), status.error_line) << doc;
    }
    if (::testing::Test::HasFailure()) break;

    (status.ok ? accepted : rejected) += 1;
    // A quoted LF in any row but the last shifts the lines after it.
    bool shifts_lines = false;
    for (std::size_t r = 0; r + 1 < want.size(); ++r) {
      for (const std::string& field : want[r].first) {
        shifts_lines |= field.find('\n') != std::string::npos;
      }
    }
    quoted_lf += status.ok && shifts_lines ? 1 : 0;
    bool has_bare_cr = false;
    for (std::size_t k = 0; k < doc.size(); ++k) {
      has_bare_cr |= doc[k] == '\r' && (k + 1 == doc.size() || doc[k + 1] != '\n');
    }
    bare_cr += status.ok && has_bare_cr ? 1 : 0;
  }
  // Both outcomes, and accepted documents with quoted line breaks and
  // bare CRs, must be well represented.
  EXPECT_GT(accepted, 40'000u) << accepted;
  EXPECT_GT(rejected, 6'000u) << rejected;
  EXPECT_GT(quoted_lf, 10'000u) << quoted_lf;
  EXPECT_GT(bare_cr, 15'000u) << bare_cr;
}

TEST(CsvDevFull, WriteCsvFileReportsFailedFlush) {
  // A one-row file sits in the stream's buffer until it is closed; the
  // error of that last flush must reach the caller.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(write_csv_file("/dev/full", {{"v4_prefix", "v6_prefix"}}));
}

}  // namespace
}  // namespace sp::io
