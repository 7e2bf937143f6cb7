// Tests for the resolution-snapshot CSV interchange format, including
// differential tests against the document-building codec it replaced
// (reference_snapshot_csv.h).
#include "io/snapshot_csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "io/csv.h"
#include "reference_snapshot_csv.h"
#include "synth/universe.h"

namespace sp::io {
namespace {

dns::ResolutionSnapshot example_snapshot() {
  dns::ResolutionSnapshot snapshot(Date{2024, 9, 11});
  dns::DomainResolution a;
  a.queried = dns::DomainName::must_parse("www.shop.example");
  a.response_name = dns::DomainName::must_parse("edge7.cdn.example");
  a.v4 = {*IPv4Address::from_string("20.1.1.10"), *IPv4Address::from_string("20.1.1.11")};
  a.v6 = {*IPv6Address::from_string("2620:100::10")};
  snapshot.add(std::move(a));

  dns::DomainResolution b;  // v4-only
  b.queried = dns::DomainName::must_parse("old.example");
  b.response_name = b.queried;
  b.v4 = {*IPv4Address::from_string("20.2.2.2")};
  snapshot.add(std::move(b));

  dns::DomainResolution c;  // v6-only
  c.queried = dns::DomainName::must_parse("new.example");
  c.response_name = c.queried;
  c.v6 = {*IPv6Address::from_string("2620:200::1")};
  snapshot.add(std::move(c));
  return snapshot;
}

TEST(SnapshotCsv, RoundTrips) {
  const std::string path = ::testing::TempDir() + "/sp_snapshot_test.csv";
  const auto snapshot = example_snapshot();
  ASSERT_TRUE(write_snapshot_csv(path, snapshot));

  const auto loaded = read_snapshot_csv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->date(), snapshot.date());
  ASSERT_EQ(loaded->domain_count(), 3u);
  EXPECT_EQ(loaded->dual_stack_count(), 1u);
  const auto& entry = loaded->entries()[0];
  EXPECT_EQ(entry.queried.text(), "www.shop.example");
  EXPECT_EQ(entry.response_name.text(), "edge7.cdn.example");
  ASSERT_EQ(entry.v4.size(), 2u);
  EXPECT_EQ(entry.v4[1].to_string(), "20.1.1.11");
  ASSERT_EQ(entry.v6.size(), 1u);
  EXPECT_TRUE(loaded->entries()[1].v6.empty());
  EXPECT_TRUE(loaded->entries()[2].v4.empty());
  std::remove(path.c_str());
}

TEST(SnapshotCsv, CampaignMonthsRoundTripExactly) {
  // A campaign month's corpus stage builds from the snapshot its export
  // stage rendered, or, on resume, from the snapshot-<date>.csv it wrote:
  // the two must hold the same rows in the same order.
  synth::SynthConfig config;
  config.organization_count = 200;
  config.months = 6;
  const synth::SyntheticInternet universe(config);
  const std::string path = ::testing::TempDir() + "/sp_snapshot_campaign_month.csv";
  for (int month = 0; month < universe.month_count(); ++month) {
    const dns::ResolutionSnapshot rendered = universe.snapshot_at(month);
    ASSERT_TRUE(write_snapshot_csv(path, rendered));
    const auto back = read_snapshot_csv(path);
    ASSERT_TRUE(back.has_value()) << "month " << month;
    EXPECT_EQ(back->date(), rendered.date()) << "month " << month;
    ASSERT_EQ(back->domain_count(), rendered.domain_count()) << "month " << month;
    ASSERT_GT(rendered.dual_stack_count(), 0u) << "month " << month;
    for (std::size_t i = 0; i < rendered.domain_count(); ++i) {
      const dns::DomainResolution& want = rendered.entries()[i];
      const dns::DomainResolution& got = back->entries()[i];
      ASSERT_EQ(got.queried.text(), want.queried.text()) << "month " << month << " row " << i;
      ASSERT_EQ(got.response_name.text(), want.response_name.text())
          << "month " << month << " row " << i;
      ASSERT_EQ(got.v4, want.v4) << "month " << month << " row " << i;
      ASSERT_EQ(got.v6, want.v6) << "month " << month << " row " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotCsv, RejectsMalformedFiles) {
  const std::string path = ::testing::TempDir() + "/sp_snapshot_bad.csv";
  // Missing date row.
  ASSERT_TRUE(write_csv_file(path, {{"queried", "response", "v4_addrs", "v6_addrs"}}));
  EXPECT_FALSE(read_snapshot_csv(path).has_value());
  // Bad date.
  ASSERT_TRUE(write_csv_file(path, {{"#date", "2024/09/11"},
                                    {"queried", "response", "v4_addrs", "v6_addrs"}}));
  EXPECT_FALSE(read_snapshot_csv(path).has_value());
  // Bad month.
  ASSERT_TRUE(write_csv_file(path, {{"#date", "2024-13-11"},
                                    {"queried", "response", "v4_addrs", "v6_addrs"}}));
  EXPECT_FALSE(read_snapshot_csv(path).has_value());
  // Bad address.
  ASSERT_TRUE(write_csv_file(path, {{"#date", "2024-09-11"},
                                    {"queried", "response", "v4_addrs", "v6_addrs"},
                                    {"a.example", "a.example", "999.1.1.1", ""}}));
  EXPECT_FALSE(read_snapshot_csv(path).has_value());
  // Bad domain.
  ASSERT_TRUE(write_csv_file(path, {{"#date", "2024-09-11"},
                                    {"queried", "response", "v4_addrs", "v6_addrs"},
                                    {"bad..name", "a.example", "", ""}}));
  EXPECT_FALSE(read_snapshot_csv(path).has_value());
  // Wrong column count.
  ASSERT_TRUE(write_csv_file(path, {{"#date", "2024-09-11"},
                                    {"queried", "response", "v4_addrs", "v6_addrs"},
                                    {"a.example", "a.example", ""}}));
  EXPECT_FALSE(read_snapshot_csv(path).has_value());
  EXPECT_FALSE(read_snapshot_csv("/nonexistent/snapshot.csv").has_value());
  std::remove(path.c_str());
}

TEST(SnapshotCsv, EmptySnapshotRoundTrips) {
  const std::string path = ::testing::TempDir() + "/sp_snapshot_empty.csv";
  ASSERT_TRUE(write_snapshot_csv(path, dns::ResolutionSnapshot(Date{2020, 9, 9})));
  const auto loaded = read_snapshot_csv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->domain_count(), 0u);
  EXPECT_EQ(loaded->date().to_string(), "2020-09-09");
  std::remove(path.c_str());
}

TEST(SnapshotCsvDevFull, WriterReportsFailedFlush) {
  // Every byte of a small file sits in the stream's buffer until it is
  // closed; the error of that last flush must reach the caller.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(write_snapshot_csv("/dev/full", dns::ResolutionSnapshot(Date{2020, 9, 9})));
  EXPECT_FALSE(write_snapshot_csv("/dev/full", example_snapshot()));
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Same acceptance, same date, same entries.
void expect_same(const std::optional<dns::ResolutionSnapshot>& got,
                 const std::optional<dns::ResolutionSnapshot>& want, const std::string& doc) {
  ASSERT_EQ(got.has_value(), want.has_value()) << "document:\n" << doc;
  if (!got) return;
  EXPECT_EQ(got->date(), want->date()) << doc;
  ASSERT_EQ(got->domain_count(), want->domain_count()) << doc;
  for (std::size_t i = 0; i < got->domain_count(); ++i) {
    const auto& a = got->entries()[i];
    const auto& b = want->entries()[i];
    EXPECT_EQ(a.queried, b.queried) << doc;
    EXPECT_EQ(a.response_name, b.response_name) << doc;
    EXPECT_EQ(a.v4, b.v4) << doc;
    EXPECT_EQ(a.v6, b.v6) << doc;
  }
}

TEST(SnapshotCsvDialect, QuotedFieldsCrlfBareCrAndBlankLines) {
  const std::string doc =
      "\r\n\"#date\",\"2024-09-11\"\r\n"
      "queried,\"response\",v4_addrs,v6_addrs\r"
      "\n\n"
      "\"www.\"shop.example,\"edge7.cdn.example\",\"20.1.1.10|20.1.1.11\",2620:100::10\r"
      "old.example,old.example,20.2.2.2,\n"
      "\"\",.,,\"2620:200::1\"";  // root names, no final line break
  const auto parsed = parse_snapshot_csv(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->date(), (Date{2024, 9, 11}));
  ASSERT_EQ(parsed->domain_count(), 3u);
  EXPECT_EQ(parsed->entries()[0].queried.text(), "www.shop.example");
  EXPECT_EQ(parsed->entries()[0].v4.size(), 2u);
  EXPECT_TRUE(parsed->entries()[2].queried.is_root());
  EXPECT_EQ(parsed->entries()[2].v6.size(), 1u);
  expect_same(parsed, testsupport::reference_parse_snapshot_csv(doc), doc);
}

TEST(SnapshotCsvDialect, RejectsWhatTheReferenceRejects) {
  const std::string head = "#date,2024-09-11\nqueried,response,v4_addrs,v6_addrs\n";
  for (const std::string& doc : {
           std::string(),
           std::string("#date,2024-09-11\n"),
           head + "a.example,a.example,\"1.2.3.4,\n",              // quote left open
           head + "a.example,a.example,1.2.3.4||5.6.7.8,\n",        // empty list element
           head + "a.example,a.example,1.2.3.4|,\n",                // trailing bar
           head + "a.example,a.example,,2001:db8::1|\n",
           head + "a.example,a.example,,,\n",                       // five fields
           head + "a.example,a.example,\n",                         // three fields
           head + "a.example,a.example,\"1.2.3.4\r\",\n",          // a quoted CR is content
           head + "a.example,a\rb.example,,\n",                     // a bare CR ends the row
           head + "a.example,a.example,,2001:db8::1:\n",            // trailing colon
           std::string("#date,2024-09-11,\nqueried,response,v4_addrs,v6_addrs\n"),
           std::string("#date,2024-9-11\nqueried,response,v4_addrs,v6_addrs\n"),
           std::string("#date,2024-09-11\nqueried,response,v4_addrs\n"),
       }) {
    EXPECT_FALSE(parse_snapshot_csv(doc).has_value()) << doc;
    EXPECT_FALSE(testsupport::reference_parse_snapshot_csv(doc).has_value()) << doc;
  }
}

/// Random snapshot documents: mostly well-formed, written in every form
/// the dialect allows (quoting, escapes, CRLF, bare CR, blank lines, no
/// final line break), some with one defect.
class DocumentGenerator {
 public:
  explicit DocumentGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string next() {
    const bool defective = pick(3) == 0;
    const int defect_row = defective ? pick(6) : -1;
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"#date", draw(kDates, kBadDates, defect_row == 0)});
    rows.push_back({"queried", "response", "v4_addrs", "v6_addrs"});
    if (defect_row == 1) rows.back()[static_cast<std::size_t>(pick(4))] = kBadHeader[pick(4)];
    const int entries = pick(6);
    for (int i = 0; i < entries; ++i) {
      const bool bad = defect_row == i + 2;
      const int bad_field = bad ? pick(4) : -1;
      rows.push_back({draw(kNames, kBadNames, bad_field == 0),
                      draw(kNames, kBadNames, bad_field == 1),
                      draw(kV4Lists, kBadV4Lists, bad_field == 2),
                      draw(kV6Lists, kBadV6Lists, bad_field == 3)});
      if (pick(12) == 0) rows.back()[1] = rows.back()[0];
    }
    if (defective && pick(4) == 0 && rows.size() > 2) {  // a wrong column count
      auto& row = rows[static_cast<std::size_t>(2 + pick(rows.size() - 2))];
      if (pick(2) == 0) {
        row.pop_back();
      } else {
        row.push_back("");
      }
    }
    std::string doc;
    for (const auto& row : rows) {
      if (pick(10) == 0) doc += terminator();  // a blank line
      for (std::size_t f = 0; f < row.size(); ++f) {
        if (f > 0) doc.push_back(',');
        append_field(doc, row[f]);
      }
      doc += terminator();
    }
    if (pick(3) == 0) {  // no final line break, or blank lines after it
      while (!doc.empty() && (doc.back() == '\n' || doc.back() == '\r')) doc.pop_back();
    } else if (pick(5) == 0) {
      doc += terminator();
    }
    const int damage = defective ? pick(10) : -1;
    if (damage == 0 && !doc.empty()) {  // one raw byte changed
      doc[static_cast<std::size_t>(pick(doc.size()))] = "\",\r\n|:.a"[pick(8)];
    } else if (damage == 1) {  // the file cut off anywhere
      doc.resize(static_cast<std::size_t>(pick(doc.size() + 1)));
    }
    return doc;
  }

 private:
  static constexpr const char* kDates[] = {"2024-09-11", "2020-01-31", "1999-12-01", "-001-02-03",
                                           "0000-01-01"};
  static constexpr const char* kBadDates[] = {"2024/09/11", "2024-13-11", "2024-00-10",
                                              "2024-9-011", "+024-09-11", "2024-09-32", ""};
  static constexpr const char* kBadHeader[] = {"Queried", "v4", "", "response "};
  static constexpr const char* kNames[] = {"www.shop.example", "A.Example", "x",
                                           "edge-1.cdn.example.", ".", "", "svc_1.example",
                                           "a.b.c.d.e.f"};
  static constexpr const char* kBadNames[] = {"bad..name", "-x.example", "a b", "a,b.example",
                                              "a\"b", "a\nb", "x\r", "caf\xc3\xa9.example"};
  static constexpr const char* kV4Lists[] = {"", "1.2.3.4", "20.1.1.10|20.1.1.11",
                                             "0.0.0.0|255.255.255.255|9.9.9.9"};
  static constexpr const char* kBadV4Lists[] = {"1.2.3.4||5.6.7.8", "1.2.3.4|", "|1.2.3.4",
                                                "999.1.1.1", "1.2.3", "|", "1.2.3.04",
                                                "1.2.3.4 "};
  static constexpr const char* kV6Lists[] = {"", "2001:db8::1", "2620:100::10|2620:100::11",
                                             "::ffff:1.2.3.4|::", "FE80:0:0:0:0:0:0:1"};
  static constexpr const char* kBadV6Lists[] = {"2001:db8::1|", "||", "1::2::3", "fe80::1%eth0",
                                                "2001:db8::1:", "::1.2.3.4:1", "12345::",
                                                "1.2.3.4"};

  int pick(std::size_t n) { return static_cast<int>(rng_() % n); }

  /// A value from `good`, or from `bad` when `defect`.
  template <std::size_t N, std::size_t M>
  std::string draw(const char* const (&good)[N], const char* const (&bad)[M], bool defect) {
    return defect ? bad[pick(M)] : good[pick(N)];
  }

  std::string terminator() {
    const int roll = pick(20);
    return roll < 12 ? "\n" : roll < 17 ? "\r\n" : "\r";
  }

  void append_field(std::string& doc, const std::string& field) {
    const bool special = field.find_first_of(",\"\r\n") != std::string::npos;
    const int roll = pick(8);
    if (!special && roll > 1) {
      doc += field;
      return;
    }
    // Quoted, with "" escapes; sometimes only a prefix is quoted and the
    // rest follows the closing quote as it is.
    const std::size_t split =
        roll == 0 && !special ? static_cast<std::size_t>(pick(field.size() + 1)) : field.size();
    doc.push_back('"');
    for (std::size_t i = 0; i < split; ++i) {
      if (field[i] == '"') doc.push_back('"');
      doc.push_back(field[i]);
    }
    doc.push_back('"');
    doc.append(field, split);
  }

  std::mt19937_64 rng_;
};

TEST(SnapshotCsvOracle, RandomDocumentsMatchReference) {
  DocumentGenerator generator(2026);
  std::size_t accepted = 0;
  std::size_t quoted = 0;
  std::size_t bare_cr = 0;
  for (int i = 0; i < 40'000; ++i) {
    const std::string doc = generator.next();
    const auto got = parse_snapshot_csv(doc);
    const auto want = testsupport::reference_parse_snapshot_csv(doc);
    accepted += want.has_value() ? 1 : 0;
    quoted += want && doc.find('"') != std::string::npos ? 1 : 0;
    bool has_bare_cr = false;
    for (std::size_t k = 0; k < doc.size(); ++k) {
      has_bare_cr |= doc[k] == '\r' && (k + 1 == doc.size() || doc[k + 1] != '\n');
    }
    bare_cr += want && has_bare_cr ? 1 : 0;
    expect_same(got, want, doc);
    if (::testing::Test::HasFailure()) break;
  }
  // Both outcomes, and accepted documents with quotes and bare CRs, must
  // be well represented.
  EXPECT_GT(accepted, 8'000u) << accepted;
  EXPECT_LT(accepted, 32'000u) << accepted;
  EXPECT_GT(quoted, 2'000u) << quoted;
  EXPECT_GT(bare_cr, 500u) << bare_cr;
}

TEST(SnapshotCsvOracle, FilesMatchReference) {
  const std::string path = ::testing::TempDir() + "/sp_snapshot_oracle.csv";
  DocumentGenerator generator(11);
  for (int i = 0; i < 300; ++i) {
    const std::string doc = generator.next();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << doc;
    }
    expect_same(read_snapshot_csv(path), testsupport::reference_read_snapshot_csv(path), doc);
    if (::testing::Test::HasFailure()) break;
  }
  std::remove(path.c_str());
}

/// Writes `snapshot` with both writers and expects identical bytes, and
/// reads it back with both readers.
void expect_writers_agree(const dns::ResolutionSnapshot& snapshot, const std::string& name) {
  const std::string mine = ::testing::TempDir() + "/sp_snapshot_" + name + ".csv";
  const std::string theirs = ::testing::TempDir() + "/sp_snapshot_" + name + "_reference.csv";
  ASSERT_TRUE(write_snapshot_csv(mine, snapshot));
  ASSERT_TRUE(testsupport::reference_write_snapshot_csv(theirs, snapshot));
  const std::string bytes = read_bytes(mine);
  EXPECT_GT(bytes.size(), 1000u);
  EXPECT_TRUE(bytes == read_bytes(theirs)) << name << ": the writers' bytes differ";
  const auto back = read_snapshot_csv(mine);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->domain_count(), snapshot.domain_count());
  expect_same(back, testsupport::reference_read_snapshot_csv(theirs), name);
  std::remove(mine.c_str());
  std::remove(theirs.c_str());
}

TEST(SnapshotCsvWriter, CampaignMonthsMatchReferenceBytes) {
  // The benchmark campaign's universe: synth seed 42, 3000 orgs, 24 months.
  synth::SynthConfig config;
  config.seed = 42;
  config.organization_count = 3000;
  config.months = 24;
  const synth::SyntheticInternet universe(config);
  for (const int month : {0, 12, 23}) {
    expect_writers_agree(universe.snapshot_at(month), "month" + std::to_string(month));
  }
}

TEST(SnapshotCsvWriter, ScaleTwoMonthMatchesReferenceBytes) {
  // Replicated CDN edges: long address lists in every hypergiant row.
  synth::SynthConfig config;
  config.scale = 2;
  config.organization_count = 300;
  config.months = 1;
  const synth::SyntheticInternet universe(config);
  expect_writers_agree(universe.snapshot_at(0), "scale2");
}

}  // namespace
}  // namespace sp::io
