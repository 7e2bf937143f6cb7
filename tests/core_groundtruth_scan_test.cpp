// Tests for ground-truth probe evaluation (section 3.5), the port-scan
// comparison (section 3.6 / Figure 6), sibling set pairs (section 6), and
// the probe list serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>

#include "core/groundtruth.h"
#include "core/portscan_compare.h"
#include "core/probes_io.h"
#include "core/sibling_sets.h"
#include "io/csv.h"
#include "test_fixtures.h"

namespace sp::core {
namespace {

using testsupport::ScenarioBuilder;

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

DualStackProbe probe(const char* v4, const char* v6) {
  return {IPAddress::must_parse(v4), IPAddress::must_parse(v6)};
}

TEST(GroundTruth, ClassifiesCoverage) {
  const std::vector<SiblingPair> pairs = {
      make_pair("20.1.0.0/16", "2620:100::/48"),
      make_pair("20.2.0.0/16", "2620:200::/48"),
  };
  const std::vector<DualStackProbe> probes = {
      // Fully covered, single pair covers both: best match.
      probe("20.1.5.5", "2620:100::5"),
      // Fully covered, but v4 in pair 0 and v6 in pair 1: not best match.
      probe("20.1.5.6", "2620:200::6"),
      // Partially covered: v4 outside all pairs.
      probe("99.0.0.1", "2620:100::7"),
      // Uncovered.
      probe("99.0.0.2", "2620:999::1"),
  };

  const auto report = evaluate_probes(probes, pairs);
  EXPECT_EQ(report.total, 4u);
  EXPECT_EQ(report.fully_covered, 2u);
  EXPECT_EQ(report.partially_covered, 1u);
  EXPECT_EQ(report.uncovered, 1u);
  EXPECT_EQ(report.best_match, 1u);
  EXPECT_EQ(report.not_best_match, 1u);
  EXPECT_DOUBLE_EQ(report.fully_covered_share(), 0.5);
  EXPECT_DOUBLE_EQ(report.best_match_share(), 0.5);
}

TEST(GroundTruth, NestedPairPrefixesAllCount) {
  const std::vector<SiblingPair> pairs = {
      make_pair("20.0.0.0/8", "2620:100::/32"),
      make_pair("20.1.0.0/16", "2620:100::/48"),
  };
  // Probe inside both nested pairs: best match via either.
  const std::vector<DualStackProbe> probes = {probe("20.1.1.1", "2620:100::1")};
  const auto report = evaluate_probes(probes, pairs);
  EXPECT_EQ(report.best_match, 1u);
}

TEST(GroundTruth, EmptyInputs) {
  const auto report = evaluate_probes({}, {});
  EXPECT_EQ(report.total, 0u);
  EXPECT_DOUBLE_EQ(report.fully_covered_share(), 0.0);
  EXPECT_DOUBLE_EQ(report.best_match_share(), 0.0);
}

TEST(PortScanCompare, JaccardBins) {
  EXPECT_EQ(jaccard_bin(0.0), 0);
  EXPECT_EQ(jaccard_bin(0.05), 0);
  EXPECT_EQ(jaccard_bin(0.1), 1);
  EXPECT_EQ(jaccard_bin(0.95), 9);
  EXPECT_EQ(jaccard_bin(1.0), 9);  // 1.0 folds into the top bin
}

TEST(PortScanCompare, JointDistributionAndResponsiveness) {
  scan::PortScanDataset scan_data;
  // Pair A: both sides answer on {80, 443} → port jaccard 1.
  scan_data.add_open(IPAddress::must_parse("20.1.0.1"), 80);
  scan_data.add_open(IPAddress::must_parse("20.1.0.1"), 443);
  scan_data.add_open(IPAddress::must_parse("2620:100::1"), 80);
  scan_data.add_open(IPAddress::must_parse("2620:100::1"), 443);
  // Pair B: v4 answers {80}, v6 answers {22} → port jaccard 0.
  scan_data.add_open(IPAddress::must_parse("20.2.0.1"), 80);
  scan_data.add_open(IPAddress::must_parse("2620:200::1"), 22);
  // Pair C: nothing answers.

  const std::vector<SiblingPair> pairs = {
      make_pair("20.1.0.0/16", "2620:100::/48", 1.0),
      make_pair("20.2.0.0/16", "2620:200::/48", 1.0),
      make_pair("20.3.0.0/16", "2620:300::/48", 0.5),
  };

  const auto comparison = compare_with_portscan(pairs, scan_data);
  EXPECT_EQ(comparison.pair_count, 3u);
  EXPECT_EQ(comparison.responsive_pairs, 2u);
  EXPECT_NEAR(comparison.responsive_share(), 2.0 / 3.0, 1e-12);
  // Pair A: dns bin 9, scan bin 9. Pair B: dns bin 9, scan bin 0.
  EXPECT_EQ(comparison.joint[9][9], 1u);
  EXPECT_EQ(comparison.joint[9][0], 1u);
  std::size_t total = 0;
  for (const auto& row : comparison.joint) {
    total = std::accumulate(row.begin(), row.end(), total);
  }
  EXPECT_EQ(total, 2u);
}

TEST(SiblingSets, GroupsConnectedPairs) {
  ScenarioBuilder builder;
  builder.announce("20.1.0.0/24", 1).announce("20.2.0.0/24", 1).announce("2620:100::/48", 2);
  builder.announce("20.9.0.0/24", 3).announce("2620:900::/48", 4);
  // Fragmented org: two v4 prefixes, one v6 prefix.
  builder.host("a.example.org", {"20.1.0.1"}, {"2620:100::1"});
  builder.host("b.example.org", {"20.2.0.1"}, {"2620:100::2"});
  // Isolated org.
  builder.host("c.example.org", {"20.9.0.1"}, {"2620:900::1"});
  const auto corpus = builder.corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 3u);  // two fragment pairs + the isolated pair

  const auto sets = build_sibling_sets(corpus, pairs);
  ASSERT_EQ(sets.size(), 2u);
  // Largest component first: the fragmented org.
  EXPECT_EQ(sets[0].member_pairs, 2u);
  EXPECT_EQ(sets[0].v4_prefixes.size(), 2u);
  EXPECT_EQ(sets[0].v6_prefixes.size(), 1u);
  // Pairwise jaccard was 1/2; the set pair recovers 1.0.
  EXPECT_DOUBLE_EQ(sets[0].similarity, 1.0);
  EXPECT_EQ(sets[0].domain_count, 2u);

  EXPECT_EQ(sets[1].member_pairs, 1u);
  EXPECT_DOUBLE_EQ(sets[1].similarity, 1.0);
}

TEST(ProbesIo, RoundTrips) {
  const std::string path = ::testing::TempDir() + "/sp_probes_test.csv";
  const std::vector<DualStackProbe> probes = {probe("20.1.5.5", "2620:100::5"),
                                              probe("20.2.0.9", "2620:200::9")};
  ASSERT_TRUE(write_probes_csv(path, probes));
  const auto loaded = read_probes_csv(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].v4, probes[0].v4);
  EXPECT_EQ((*loaded)[1].v6, probes[1].v6);
  std::remove(path.c_str());
}

TEST(ProbesIo, RejectsFamilyMismatchAndGarbage) {
  const std::string path = ::testing::TempDir() + "/sp_probes_bad.csv";
  // Families swapped.
  ASSERT_TRUE(sp::io::write_csv_file(
      path, {{"v4_address", "v6_address"}, {"2620:100::5", "20.1.5.5"}}));
  EXPECT_FALSE(read_probes_csv(path).has_value());
  // Unparsable address.
  ASSERT_TRUE(sp::io::write_csv_file(
      path, {{"v4_address", "v6_address"}, {"999.1.1.1", "2620:100::5"}}));
  EXPECT_FALSE(read_probes_csv(path).has_value());
  // Wrong header.
  ASSERT_TRUE(sp::io::write_csv_file(path, {{"a", "b"}}));
  EXPECT_FALSE(read_probes_csv(path).has_value());
  EXPECT_FALSE(read_probes_csv("/nonexistent/probes.csv").has_value());
  std::remove(path.c_str());
}

TEST(ProbesIo, LoadedProbesFeedGroundTruth) {
  const std::string path = ::testing::TempDir() + "/sp_probes_gt.csv";
  ASSERT_TRUE(write_probes_csv(path,
                               std::vector<DualStackProbe>{probe("20.1.5.5", "2620:100::5")}));
  const auto loaded = read_probes_csv(path);
  ASSERT_TRUE(loaded.has_value());
  const std::vector<SiblingPair> pairs = {make_pair("20.1.0.0/16", "2620:100::/48")};
  const auto report = evaluate_probes(*loaded, pairs);
  EXPECT_EQ(report.best_match, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sp::core
