// Tests for the published sibling-list artifact (core/sibling_list_io.h):
// round trips, rejected files with their (line, message) errors, and a
// differential test against the reader that read each list through the
// chunked reference tokenizer (reference_csv.h) and std::stod.
#include "core/sibling_list_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "io/csv.h"
#include "pipeline/campaign.h"
#include "reference_csv.h"

namespace sp::core {
namespace {

SiblingPair make_pair(const char* v4, const char* v6, double similarity = 1.0,
                      std::uint32_t shared = 1) {
  SiblingPair pair;
  pair.v4 = Prefix::must_parse(v4);
  pair.v6 = Prefix::must_parse(v6);
  pair.similarity = similarity;
  pair.shared_domains = shared;
  pair.v4_domain_count = shared;
  pair.v6_domain_count = shared;
  return pair;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

const std::string kHeaderLine =
    "v4_prefix,v6_prefix,similarity,shared_domains,v4_domains,v6_domains\n";

TEST(SiblingListIo, RoundTrips) {
  const std::string path = ::testing::TempDir() + "/sp_list_test.csv";
  const std::vector<SiblingPair> pairs = {
      make_pair("20.1.0.0/16", "2620:100::/48", 1.0, 3),
      make_pair("20.2.0.0/24", "2620:200::/96", 2.0 / 3.0, 2),
  };
  ASSERT_TRUE(write_sibling_list(path, pairs));
  const auto loaded = read_sibling_list(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].v4, pairs[0].v4);
  EXPECT_EQ((*loaded)[1].v6, pairs[1].v6);
  EXPECT_NEAR((*loaded)[1].similarity, 2.0 / 3.0, 1e-8);
  EXPECT_EQ((*loaded)[0].shared_domains, 3u);
  std::remove(path.c_str());
}

TEST(SiblingListIo, RejectsMalformedFiles) {
  const std::string path = ::testing::TempDir() + "/sp_list_bad.csv";
  // Wrong header.
  ASSERT_TRUE(sp::io::write_csv_file(path, {{"nope"}, {"20.1.0.0/16"}}));
  EXPECT_FALSE(read_sibling_list(path).has_value());
  // Swapped families.
  ASSERT_TRUE(sp::io::write_csv_file(
      path, {{"v4_prefix", "v6_prefix", "similarity", "shared_domains", "v4_domains",
              "v6_domains"},
             {"2620:100::/48", "20.1.0.0/16", "1.0", "1", "1", "1"}}));
  EXPECT_FALSE(read_sibling_list(path).has_value());
  // Unparsable similarity, and similarities that are not a finite value
  // in [0, 1] or not in the form the writer uses.
  for (const char* similarity : {"high", "nan", "inf", "-inf", "infinity", "-3.5", " 7e2", "7e2",
                                 "1.000000001", "+0.5", "0x0.8p0", " 0.5"}) {
    ASSERT_TRUE(sp::io::write_csv_file(
        path, {{"v4_prefix", "v6_prefix", "similarity", "shared_domains", "v4_domains",
                "v6_domains"},
               {"20.1.0.0/16", "2620:100::/48", similarity, "1", "1", "1"}}));
    SiblingListError error;
    EXPECT_FALSE(read_sibling_list(path, &error).has_value()) << similarity;
    EXPECT_EQ(error.message, "bad similarity") << similarity;
  }
  EXPECT_FALSE(read_sibling_list("/nonexistent/list.csv").has_value());
  EXPECT_FALSE(read_sibling_list(::testing::TempDir()).has_value());
  std::remove(path.c_str());
}

TEST(SiblingListIo, ReportsOffendingLineOnParseFailure) {
  const std::string path = ::testing::TempDir() + "/sp_list_lineno.csv";
  ASSERT_TRUE(sp::io::write_csv_file(
      path, {{"v4_prefix", "v6_prefix", "similarity", "shared_domains", "v4_domains",
              "v6_domains"},
             {"20.1.0.0/16", "2620:100::/48", "1.0", "1", "1", "1"},
             {"20.2.0.0/16", "2620:200::/48", "1.0", "1", "1", "1"},
             {"20.3.0.0/16", "2620:300::/48", "broken", "1", "1", "1"}}));
  SiblingListError error;
  EXPECT_FALSE(read_sibling_list(path, &error).has_value());
  EXPECT_EQ(error.line, 4u);
  EXPECT_EQ(error.message, "bad similarity");

  // A malformed header reports line 1; a missing file reports line 0.
  ASSERT_TRUE(sp::io::write_csv_file(path, {{"nope"}, {"20.1.0.0/16"}}));
  EXPECT_FALSE(read_sibling_list(path, &error).has_value());
  EXPECT_EQ(error.line, 1u);
  EXPECT_EQ(error.message, "malformed header");
  EXPECT_FALSE(read_sibling_list("/nonexistent/list.csv", &error).has_value());
  EXPECT_EQ(error.line, 0u);
  // A directory opens but cannot be read: a read error, not an empty list.
  EXPECT_FALSE(io::read_file_text(::testing::TempDir()).has_value());
  error = {};
  EXPECT_FALSE(read_sibling_list(::testing::TempDir(), &error).has_value());
  EXPECT_EQ(error.line, 0u);
  EXPECT_EQ(error.message, "cannot read file");
  std::remove(path.c_str());
}

TEST(SiblingListIo, ReadsListsOfThousandsOfRows) {
  const std::string path = ::testing::TempDir() + "/sp_list_large.csv";
  std::vector<SiblingPair> pairs;
  pairs.reserve(4000);
  for (int i = 0; i < 4000; ++i) {
    pairs.push_back(make_pair(("20." + std::to_string(i / 250) + "." +
                               std::to_string(i % 250) + ".0/24")
                                  .c_str(),
                              ("2620:" + std::to_string(i % 9000) + "::/48").c_str(),
                              (i % 100) / 100.0, static_cast<std::uint32_t>(i)));
  }
  ASSERT_TRUE(write_sibling_list(path, pairs));
  const auto loaded = read_sibling_list(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), pairs.size());
  EXPECT_EQ((*loaded)[0].v4, pairs[0].v4);
  EXPECT_EQ((*loaded)[3999].v4, pairs[3999].v4);
  EXPECT_EQ((*loaded)[3999].shared_domains, 3999u);
  std::remove(path.c_str());
}

/// The list reader before io::CsvCursor: rows streamed from the file by
/// the chunked reference tokenizer, the similarity read by std::stod.
std::optional<std::vector<SiblingPair>> reference_read_sibling_list(const std::string& path,
                                                                    SiblingListError& error) {
  static const io::CsvRow kHeader = {"v4_prefix",      "v6_prefix",  "similarity",
                                     "shared_domains", "v4_domains", "v6_domains"};
  const auto parse_count = [](const std::string& text, std::uint32_t& out) {
    const auto result = std::from_chars(text.data(), text.data() + text.size(), out);
    return result.ec == std::errc{} && result.ptr == text.data() + text.size();
  };
  const auto parse_double = [](const std::string& text, double& out) {
    try {
      std::size_t used = 0;
      out = std::stod(text, &used);
      return used == text.size();
    } catch (const std::exception&) {
      return false;
    }
  };
  const auto parse_row = [&](const io::CsvRow& row, SiblingPair& pair) -> const char* {
    if (row.size() != kHeader.size()) return "wrong column count";
    const auto v4 = Prefix::from_string(row[0]);
    if (!v4 || v4->family() != Family::v4) return "bad v4_prefix";
    const auto v6 = Prefix::from_string(row[1]);
    if (!v6 || v6->family() != Family::v6) return "bad v6_prefix";
    pair.v4 = *v4;
    pair.v6 = *v6;
    if (!parse_double(row[2], pair.similarity)) return "bad similarity";
    if (!parse_count(row[3], pair.shared_domains)) return "bad shared_domains";
    if (!parse_count(row[4], pair.v4_domain_count)) return "bad v4_domains";
    if (!parse_count(row[5], pair.v6_domain_count)) return "bad v6_domains";
    return nullptr;
  };

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = {0, "cannot open file"};
    return std::nullopt;
  }
  std::vector<SiblingPair> pairs;
  bool saw_header = false;
  SiblingListError row_error;
  const auto status =
      testsupport::reference_read_csv_stream(in, [&](io::CsvRow&& row, std::size_t line) {
        if (!saw_header) {
          if (row != kHeader) {
            row_error = {line, "malformed header"};
            return false;
          }
          saw_header = true;
          return true;
        }
        SiblingPair pair;
        if (const char* reason = parse_row(row, pair)) {
          row_error = {line, reason};
          return false;
        }
        pairs.push_back(pair);
        return true;
      });
  if (!row_error.message.empty()) {
    error = row_error;
  } else if (!status.ok) {
    error = {status.error_line, "unbalanced quote"};
  } else if (!saw_header) {
    error = {0, "empty file"};
  } else {
    return pairs;
  }
  return std::nullopt;
}

/// Reads `path` with both readers and expects the same outcome: the same
/// pairs, similarity bits included, or the same (line, message). Returns
/// the message, empty on accept.
std::string expect_same_read(const std::string& path, const std::string& label) {
  SiblingListError got_error;
  SiblingListError want_error;
  const auto got = read_sibling_list(path, &got_error);
  const auto want = reference_read_sibling_list(path, want_error);
  EXPECT_EQ(got.has_value(), want.has_value()) << label;
  if (!got || !want) {
    EXPECT_EQ(got_error.line, want_error.line) << label;
    EXPECT_EQ(got_error.message, want_error.message) << label;
    return want_error.message;
  }
  EXPECT_EQ(got->size(), want->size()) << label;
  for (std::size_t i = 0; i < std::min(got->size(), want->size()); ++i) {
    const SiblingPair& a = (*got)[i];
    const SiblingPair& b = (*want)[i];
    EXPECT_TRUE(a.v4 == b.v4 && a.v6 == b.v6 &&
                std::bit_cast<std::uint64_t>(a.similarity) ==
                    std::bit_cast<std::uint64_t>(b.similarity) &&
                a.shared_domains == b.shared_domains && a.v4_domain_count == b.v4_domain_count &&
                a.v6_domain_count == b.v6_domain_count)
        << label << ": pair " << i;
  }
  return {};
}

TEST(SiblingListOracle, CampaignListsMatchReference) {
  const std::string dir = ::testing::TempDir() + "/sp_list_oracle_campaign";
  std::filesystem::remove_all(dir);
  pipeline::CampaignConfig config;
  config.synth.months = 3;
  config.synth.organization_count = 50;
  config.synth.probe_count = 50;
  config.out_dir = dir;
  const auto report = pipeline::Campaign(config).run(/*resume=*/false);
  ASSERT_TRUE(report.ok) << report.error;

  std::size_t lists = 0;
  std::size_t pairs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(".csv") || !(name.starts_with("pairs-") || name.starts_with("siblings-"))) {
      continue;
    }
    EXPECT_EQ(expect_same_read(entry.path().string(), name), "") << name;
    pairs += read_sibling_list(entry.path().string()).value_or(std::vector<SiblingPair>{}).size();
    ++lists;
  }
  EXPECT_EQ(lists, 6u);
  EXPECT_GT(pairs, 100u);
  std::filesystem::remove_all(dir);
}

/// Random sibling lists in every form the CSV dialect allows, most with
/// one defect: a wrong column count, a bad field, a damaged header, a
/// quote left open mid-file, a quoted multi-line field or a changed byte.
/// Similarities stay in [0, 1] and in forms both readers parse alike.
class ListGenerator {
 public:
  explicit ListGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string next() {
    const std::size_t rows = 1 + pick(8);
    const int defect = pick(4) == 0 ? -1 : static_cast<int>(pick(6));
    const std::size_t defect_row = defect == 4 ? 0 : pick(rows);
    std::string doc;
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<std::string> fields;
      if (r == 0) {
        fields = {"v4_prefix", "v6_prefix", "similarity", "shared_domains", "v4_domains",
                  "v6_domains"};
      } else {
        fields = {draw(kV4), draw(kV6), draw(kSimilarities), draw(kCounts), draw(kCounts),
                  draw(kCounts)};
      }
      const bool here = r == defect_row;
      const std::size_t column = pick(6);
      if (here && defect == 0) {
        if (pick(2) == 0) {
          fields.pop_back();
        } else {
          fields.push_back(draw(kCounts));
        }
      } else if (here && defect == 1 && r > 0) {
        fields[column] = column == 0   ? draw(kBadV4)
                         : column == 1 ? draw(kBadV6)
                         : column == 2 ? draw(kBadSimilarities)
                                       : draw(kBadCounts);
      } else if (here && defect == 4) {
        fields[column] = draw(kBadHeader);
      }
      if (pick(10) == 0) doc += terminator();  // a blank line
      for (std::size_t f = 0; f < fields.size(); ++f) {
        if (f > 0) doc.push_back(',');
        if (here && defect == 2 && f == std::min(column, fields.size() - 1)) {
          doc += '"' + fields[f];  // the quote stays open
        } else if (here && defect == 3 && f == std::min(column, fields.size() - 1)) {
          doc += '"' + fields[f] + (pick(2) == 0 ? "\n" : "\r\n") + '"';
        } else if (pick(6) == 0) {
          doc += '"' + fields[f] + '"';
        } else {
          doc += fields[f];
        }
      }
      doc += terminator();
    }
    if (pick(3) == 0) {  // no final line break
      while (!doc.empty() && (doc.back() == '\n' || doc.back() == '\r')) doc.pop_back();
    }
    if (defect == 5 && !doc.empty()) doc[pick(doc.size())] = ",\"\r\n.:/x"[pick(8)];
    return doc;
  }

 private:
  static constexpr const char* kV4[] = {"20.1.0.0/16", "20.2.0.0/24", "0.0.0.0/0", "203.0.113.7/32"};
  static constexpr const char* kV6[] = {"2620:100::/48", "2620:200::/96", "::/0", "2001:db8::1/128"};
  static constexpr const char* kSimilarities[] = {
      "1.000000000", "0.000000000", "0.666666667", "1",   "0",
      "0.5",         ".25",         "1e-1",        "1.",  "0.333333333333333314829616256247"};
  static constexpr const char* kCounts[] = {"0", "1", "3", "17", "4294967295"};
  static constexpr const char* kBadV4[] = {"2620:100::/48", "20.1.0.0/33", "20.1.0.0", "", "nope"};
  static constexpr const char* kBadV6[] = {"20.1.0.0/16", "2620::/129", "2620::", "", "::/x"};
  static constexpr const char* kBadSimilarities[] = {"high", "", "0.5x", "1e", "--1", "0..5"};
  static constexpr const char* kBadCounts[] = {"-1", "4294967296", "x", "", "1.0", " 1"};
  static constexpr const char* kBadHeader[] = {"V4_prefix", "", "similarity ", "v6"};

  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

  template <std::size_t N>
  std::string draw(const char* const (&values)[N]) {
    return values[pick(N)];
  }

  std::string terminator() {
    const std::size_t roll = pick(10);
    return roll < 6 ? "\n" : roll < 8 ? "\r\n" : "\r";
  }

  std::mt19937_64 rng_;
};

TEST(SiblingListOracle, MalformedListsReportTheSameError) {
  const std::string path = ::testing::TempDir() + "/sp_list_oracle.csv";
  const std::string row = "20.1.0.0/16,2620:100::/48,0.5,1,2,3";
  for (const std::string& doc : {
           std::string(),
           std::string("\r\n\n\r"),
           kHeaderLine,
           kHeaderLine + "\r\n" + row + "\r\r\n",
           kHeaderLine + row + ",\"x\ny\"\n" + row + "\n",   // a multi-line row, a column too many
           kHeaderLine + "\"20.1.0.0/16\r\n\"" + row.substr(11) + "\n",
           kHeaderLine + row + "\n\"" + row + "\n" + row + "\n",  // a quote left open mid-file
           kHeaderLine + row + "\n" + row + ",\"",
       }) {
    write_text(path, doc);
    expect_same_read(path, doc);
  }

  ListGenerator generator(23);
  std::map<std::string, std::size_t> outcomes;
  for (int i = 0; i < 4'000; ++i) {
    const std::string doc = generator.next();
    write_text(path, doc);
    ++outcomes[expect_same_read(path, doc)];
    if (::testing::Test::HasFailure()) break;
  }
  std::remove(path.c_str());
  // Accepted lists and every kind of row error must be well represented.
  for (const char* outcome : {"", "malformed header", "wrong column count", "bad v4_prefix",
                              "bad v6_prefix", "bad similarity", "bad shared_domains",
                              "unbalanced quote"}) {
    EXPECT_GT(outcomes[outcome], 20u) << "'" << outcome << "'";
  }
}

}  // namespace
}  // namespace sp::core
