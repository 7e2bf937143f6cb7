// Tests for corpus construction (steps 1-2) and sibling detection
// (steps 3-4) on hand-built scenarios.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/detect.h"
#include "test_fixtures.h"

namespace sp::core {
namespace {

using testsupport::ScenarioBuilder;

Prefix p(const char* text) { return Prefix::must_parse(text); }

// One organization, one prefix per family, three dual-stack domains.
ScenarioBuilder perfect_match_scenario() {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 65001).announce("2620:100::/48", 65101);
  builder.host("a.example.org", {"20.1.1.10"}, {"2620:100::10"});
  builder.host("b.example.org", {"20.1.1.11"}, {"2620:100::11"});
  builder.host("c.example.org", {"20.1.1.12"}, {"2620:100::12"});
  return builder;
}

TEST(DualStackCorpus, BuildsPrefixDomainIndexes) {
  const auto corpus = perfect_match_scenario().corpus();
  EXPECT_EQ(corpus.ds_domain_count(), 3u);
  EXPECT_EQ(corpus.stats().v4_prefixes, 1u);
  EXPECT_EQ(corpus.stats().v6_prefixes, 1u);
  EXPECT_EQ(corpus.stats().discarded_reserved, 0u);
  EXPECT_EQ(corpus.stats().unmapped_addresses, 0u);
  EXPECT_EQ(corpus.stats().v4_hosts, 3u);
  EXPECT_EQ(corpus.stats().v6_hosts, 3u);
  EXPECT_EQ(corpus.stats().host_domain_edges, 6u);

  EXPECT_EQ(corpus.domains_of(p("20.1.1.0/24")).size(), 3u);
  EXPECT_TRUE(corpus.domains_of(p("20.1.2.0/24")).empty());
}

TEST(DualStackCorpus, OnlyDualStackDomainsCount) {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 65001).announce("2620:100::/48", 65101);
  builder.host("ds.example.org", {"20.1.1.10"}, {"2620:100::10"});
  builder.host("v4only.example.org", {"20.1.1.11"}, {});
  builder.host("v6only.example.org", {}, {"2620:100::11"});
  const auto corpus = builder.corpus();
  EXPECT_EQ(corpus.ds_domain_count(), 1u);
  EXPECT_EQ(corpus.domains_of(p("20.1.1.0/24")).size(), 1u);
  // Single-family entries contribute no hosts at all.
  EXPECT_EQ(corpus.stats().v4_hosts, 1u);
  EXPECT_EQ(corpus.stats().v6_hosts, 1u);
  EXPECT_EQ(corpus.stats().host_domain_edges, 2u);
}

TEST(DualStackCorpus, CnameTargetsCollapseToOneIdentity) {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 65001).announce("2620:100::/48", 65101);
  builder.host_as("www.shop-a.com", "edge.cdn.net", {"20.1.1.10"}, {"2620:100::10"});
  builder.host_as("www.shop-b.com", "edge.cdn.net", {"20.1.1.10"}, {"2620:100::10"});
  const auto corpus = builder.corpus();
  // Two queried domains, one response identity: each address carries
  // one (host, domain) edge, not two.
  EXPECT_EQ(corpus.stats().snapshot_domains, 2u);
  EXPECT_EQ(corpus.ds_domain_count(), 1u);
  EXPECT_EQ(corpus.stats().v4_hosts, 1u);
  EXPECT_EQ(corpus.stats().v6_hosts, 1u);
  EXPECT_EQ(corpus.stats().host_domain_edges, 2u);
}

TEST(DualStackCorpus, ReservedAddressesAreDiscarded) {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 65001).announce("2620:100::/48", 65101);
  // 192.168/16 and 2001:db8::/32 must be dropped even if a RIB route
  // existed; the remaining addresses keep the domain dual-stack.
  builder.announce("192.168.0.0/16", 65009);
  builder.host("d.example.org", {"20.1.1.10", "192.168.1.1"},
               {"2620:100::10", "2001:db8::1"});
  const auto corpus = builder.corpus();
  EXPECT_EQ(corpus.stats().discarded_reserved, 2u);
  EXPECT_EQ(corpus.ds_domain_count(), 1u);
  EXPECT_EQ(corpus.stats().v4_prefixes, 1u);
  EXPECT_EQ(corpus.stats().v6_prefixes, 1u);
  EXPECT_EQ(corpus.stats().v4_hosts, 1u);
  EXPECT_EQ(corpus.stats().v6_hosts, 1u);
  EXPECT_EQ(corpus.stats().host_domain_edges, 2u);
}

TEST(DualStackCorpus, UnmappedAddressesAreCounted) {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 65001).announce("2620:100::/48", 65101);
  builder.host("d.example.org", {"20.1.1.10", "99.99.99.99"}, {"2620:100::10"});
  const auto corpus = builder.corpus();
  EXPECT_EQ(corpus.stats().unmapped_addresses, 1u);
  EXPECT_EQ(corpus.stats().v4_prefixes, 1u);
  EXPECT_EQ(corpus.stats().v4_hosts, 1u);
  EXPECT_EQ(corpus.stats().host_domain_edges, 2u);
}

TEST(DualStackCorpus, AddressesMapToLongestMatchPrefix) {
  ScenarioBuilder builder;
  builder.announce("20.0.0.0/8", 65001).announce("20.1.1.0/24", 65002);
  builder.announce("2620:100::/32", 65101);
  builder.host("specific.example.org", {"20.1.1.10"}, {"2620:100::10"});
  builder.host("broad.example.org", {"20.200.0.10"}, {"2620:100::11"});
  const auto corpus = builder.corpus();
  EXPECT_EQ(corpus.domains_of(p("20.1.1.0/24")).size(), 1u);
  EXPECT_EQ(corpus.domains_of(p("20.0.0.0/8")).size(), 1u);
  EXPECT_EQ(corpus.stats().v4_hosts, 2u);
  EXPECT_EQ(corpus.stats().v6_hosts, 2u);
}

TEST(DualStackCorpus, HostsOfExcludesNestedAnnouncements) {
  ScenarioBuilder builder;
  builder.announce("20.0.0.0/8", 65001).announce("20.1.1.0/24", 65002);
  builder.announce("2620:100::/32", 65101);
  builder.host("specific.example.org", {"20.1.1.10"}, {"2620:100::10"});
  builder.host("broad.example.org", {"20.200.0.10"}, {"2620:100::11"});
  const auto corpus = builder.corpus();
  EXPECT_EQ(corpus.hosts_of(p("20.0.0.0/8")).size(), 1u);
  EXPECT_EQ(corpus.hosts_of(p("20.1.1.0/24")).size(), 1u);
  EXPECT_TRUE(corpus.hosts_of(p("21.0.0.0/8")).empty());
}

TEST(DualStackCorpus, DuplicateAndSharedAddressesCountOnce) {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 65001).announce("2620:100::/48", 65101);
  // One address listed twice in one entry, and one address shared by
  // three domains.
  builder.host("twice.example.org", {"20.1.1.10", "20.1.1.10"}, {"2620:100::10"});
  builder.host("s1.example.org", {"20.1.1.20"}, {"2620:100::20"});
  builder.host("s2.example.org", {"20.1.1.20"}, {"2620:100::20"});
  builder.host("s3.example.org", {"20.1.1.20"}, {"2620:100::21"});
  const auto corpus = builder.corpus();
  EXPECT_EQ(corpus.stats().v4_hosts, 2u);
  EXPECT_EQ(corpus.stats().v6_hosts, 3u);
  EXPECT_EQ(corpus.stats().host_domain_edges, 4u + 4u);
  const HostRange hosts = corpus.hosts_of(p("20.1.1.0/24"));
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts.address(0), IPAddress::must_parse("20.1.1.10"));
  EXPECT_EQ(hosts.domains(0).size(), 1u);
  EXPECT_EQ(hosts.address(1), IPAddress::must_parse("20.1.1.20"));
  EXPECT_EQ(hosts.domains(1).size(), 3u);
}

TEST(DualStackCorpus, EmptySnapshotBuildsEmptyViews) {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 65001).announce("2620:100::/48", 65101);
  const auto corpus = builder.corpus();
  EXPECT_EQ(corpus.ds_domain_count(), 0u);
  EXPECT_EQ(corpus.stats().v4_hosts, 0u);
  EXPECT_EQ(corpus.stats().v6_hosts, 0u);
  EXPECT_EQ(corpus.stats().host_domain_edges, 0u);
  EXPECT_TRUE(corpus.hosts(Family::v4).empty());
  EXPECT_TRUE(corpus.hosts_of(p("20.1.1.0/24")).empty());
  EXPECT_TRUE(corpus.domains_within(p("0.0.0.0/0")).empty());
  EXPECT_EQ(corpus.detect_index().v4.prefix_count(), 0u);
}

TEST(DualStackCorpus, DomainsWithinSpansNestedAnnouncements) {
  ScenarioBuilder builder;
  builder.announce("20.0.0.0/8", 65001).announce("20.1.1.0/24", 65002);
  builder.announce("2620:100::/32", 65101);
  builder.host("specific.example.org", {"20.1.1.10"}, {"2620:100::10"});
  builder.host("broad.example.org", {"20.1.200.10"}, {"2620:100::11"});
  builder.host("far.example.org", {"20.200.0.10"}, {"2620:100::12"});
  const auto corpus = builder.corpus();
  // 20.1.0.0/16 lies inside the /8 and covers the whole /24.
  EXPECT_EQ(corpus.domains_within(p("20.1.0.0/16")).size(), 2u);
  EXPECT_EQ(corpus.domains_within(p("20.0.0.0/8")).size(), 3u);
  EXPECT_EQ(corpus.domains_within(p("0.0.0.0/0")).size(), 3u);
  EXPECT_EQ(corpus.domains_within(p("20.1.1.0/24")).size(), 1u);
  EXPECT_TRUE(corpus.domains_within(p("20.2.0.0/16")).empty());
}

TEST(DualStackCorpus, DomainsWithinUsesHostGranularity) {
  const auto corpus = perfect_match_scenario().corpus();
  EXPECT_EQ(corpus.domains_within(p("20.1.1.0/24")).size(), 3u);
  EXPECT_EQ(corpus.domains_within(p("20.1.1.8/29")).size(), 3u);  // .10-.12
  EXPECT_EQ(corpus.domains_within(p("20.1.1.10/32")).size(), 1u);
  EXPECT_TRUE(corpus.domains_within(p("20.1.1.128/25")).empty());
}

TEST(DetectSiblings, PerfectMatchPair) {
  const auto corpus = perfect_match_scenario().corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].v4, p("20.1.1.0/24"));
  EXPECT_EQ(pairs[0].v6, p("2620:100::/48"));
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 1.0);
  EXPECT_EQ(pairs[0].shared_domains, 3u);
  EXPECT_EQ(pairs[0].v4_domain_count, 3u);
  EXPECT_EQ(pairs[0].v6_domain_count, 3u);
}

TEST(DetectSiblings, BestMatchWinsPerPrefix) {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 1).announce("2620:100::/48", 2).announce("2620:200::/48", 3);
  // v4 prefix hosts d1..d3; one v6 prefix hosts d1,d2, the other only d3
  // plus an unrelated domain d4 (hosted on another v4 prefix).
  builder.announce("20.9.9.0/24", 4);
  builder.host("d1.example.org", {"20.1.1.1"}, {"2620:100::1"});
  builder.host("d2.example.org", {"20.1.1.2"}, {"2620:100::2"});
  builder.host("d3.example.org", {"20.1.1.3"}, {"2620:200::3"});
  builder.host("d4.example.org", {"20.9.9.4"}, {"2620:200::4"});
  const auto corpus = builder.corpus();
  const auto pairs = detect_sibling_prefixes(corpus);

  // v4 20.1.1.0/24 (d1,d2,d3): jaccard with 2620:100 (d1,d2) = 2/3,
  // with 2620:200 (d3,d4) = 1/4 → best is 2620:100.
  // v6 2620:200 (d3,d4): best v4 counterpart: 20.1.1.0/24 → 1/4 vs
  // 20.9.9.0/24 → 1/4... wait: 20.9.9.0/24 hosts only d4 → jaccard 1/2.
  // v6 2620:100 best is 20.1.1.0/24 (2/3).
  const auto find_pair = [&pairs](const char* v4, const char* v6) {
    const auto it = std::find_if(pairs.begin(), pairs.end(), [&](const SiblingPair& pair) {
      return pair.v4 == Prefix::must_parse(v4) && pair.v6 == Prefix::must_parse(v6);
    });
    return it == pairs.end() ? nullptr : &*it;
  };

  const SiblingPair* main_pair = find_pair("20.1.1.0/24", "2620:100::/48");
  ASSERT_NE(main_pair, nullptr);
  EXPECT_DOUBLE_EQ(main_pair->similarity, 2.0 / 3.0);

  const SiblingPair* d4_pair = find_pair("20.9.9.0/24", "2620:200::/48");
  ASSERT_NE(d4_pair, nullptr);
  EXPECT_DOUBLE_EQ(d4_pair->similarity, 1.0 / 2.0);

  // The dominated candidate (20.1.1.0/24, 2620:200::/48) must NOT appear:
  // it is the best match for neither side.
  EXPECT_EQ(find_pair("20.1.1.0/24", "2620:200::/48"), nullptr);
  EXPECT_EQ(pairs.size(), 2u);
}

TEST(DetectSiblings, TiesAreKept) {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 1).announce("2620:100::/48", 2).announce("2620:200::/48", 3);
  // The single domain resolves to one v4 prefix and two v6 prefixes:
  // both v6 prefixes tie at jaccard 1.
  builder.host("only.example.org", {"20.1.1.1"}, {"2620:100::1", "2620:200::1"});
  const auto pairs = detect_sibling_prefixes(builder.corpus());
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 1.0);
  EXPECT_DOUBLE_EQ(pairs[1].similarity, 1.0);
}

TEST(DetectSiblings, UnionOfBothDirections) {
  ScenarioBuilder builder;
  builder.announce("20.1.0.0/24", 1).announce("20.2.0.0/24", 2).announce("2620:100::/48", 3);
  // v6 prefix hosts d1,d2; d1's v4 is on prefix A, d2's on prefix B.
  // A's best match is the v6 prefix (1/2); B's best match is the same v6
  // prefix (1/2); the v6 prefix ties between A and B (1/2 both). All
  // surviving pairs come from some direction's best match.
  builder.host("d1.example.org", {"20.1.0.1"}, {"2620:100::1"});
  builder.host("d2.example.org", {"20.2.0.2"}, {"2620:100::2"});
  const auto pairs = detect_sibling_prefixes(builder.corpus());
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(unique_prefix_count(pairs, Family::v4), 2u);
  EXPECT_EQ(unique_prefix_count(pairs, Family::v6), 1u);
  for (const auto& pair : pairs) EXPECT_DOUBLE_EQ(pair.similarity, 0.5);
}

TEST(DetectSiblings, DiceAndOverlapMetricsSupported) {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 1).announce("2620:100::/48", 2);
  builder.host("d1.example.org", {"20.1.1.1"}, {"2620:100::1"});
  builder.host("d2.example.org", {"20.1.1.2"}, {"2620:100::2"});
  builder.host("d3.example.org", {"20.1.1.3"}, {});  // not DS
  const auto corpus = builder.corpus();

  const auto jaccard_pairs = detect_sibling_prefixes(corpus, {Metric::Jaccard});
  const auto dice_pairs = detect_sibling_prefixes(corpus, {Metric::Dice});
  const auto overlap_pairs = detect_sibling_prefixes(corpus, {Metric::Overlap});
  ASSERT_EQ(jaccard_pairs.size(), 1u);
  ASSERT_EQ(dice_pairs.size(), 1u);
  ASSERT_EQ(overlap_pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(jaccard_pairs[0].similarity, 1.0);
  EXPECT_DOUBLE_EQ(overlap_pairs[0].similarity, 1.0);
}

TEST(DetectSiblings, EmptyCorpusYieldsNoPairs) {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 1);
  builder.host("v4only.example.org", {"20.1.1.1"}, {});
  EXPECT_TRUE(detect_sibling_prefixes(builder.corpus()).empty());
}

TEST(DetectSiblings, SimilarityValuesHelper) {
  const auto pairs = detect_sibling_prefixes(perfect_match_scenario().corpus());
  const auto values = similarity_values(pairs);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_DOUBLE_EQ(values[0], 1.0);
}

}  // namespace
}  // namespace sp::core
