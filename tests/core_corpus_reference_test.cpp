// DualStackCorpus::build against the map-and-trie reference build
// (reference_corpus.h): equal stats, interner order, DetectIndex arrays,
// host ranges, domain sets and domains_within answers, on seeded synthetic
// universes and on hand-built corner cases. Also checks that the row
// order of a snapshot — which decides the interned ids — never reaches
// detection or SP-Tuner output.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <random>
#include <string>
#include <vector>

#include "core/detect.h"
#include "core/sptuner.h"
#include "reference_corpus.h"
#include "synth/universe.h"
#include "test_fixtures.h"

namespace sp::core {
namespace {

using testsupport::ReferenceCorpus;
using testsupport::ScenarioBuilder;

void expect_side_equal(const DetectIndex::Side& flat, const DetectIndex::Side& ref,
                       const char* label) {
  EXPECT_EQ(flat.prefixes, ref.prefixes) << label;
  EXPECT_EQ(flat.set_offsets, ref.set_offsets) << label;
  EXPECT_EQ(flat.set_elements, ref.set_elements) << label;
  EXPECT_EQ(flat.posting_offsets, ref.posting_offsets) << label;
  EXPECT_EQ(flat.postings, ref.postings) << label;
}

void expect_stats_equal(const DualStackCorpus::Stats& flat, const DualStackCorpus::Stats& ref) {
  EXPECT_EQ(flat.snapshot_domains, ref.snapshot_domains);
  EXPECT_EQ(flat.dual_stack_domains, ref.dual_stack_domains);
  EXPECT_EQ(flat.discarded_reserved, ref.discarded_reserved);
  EXPECT_EQ(flat.unmapped_addresses, ref.unmapped_addresses);
  EXPECT_EQ(flat.v4_prefixes, ref.v4_prefixes);
  EXPECT_EQ(flat.v6_prefixes, ref.v6_prefixes);
  EXPECT_EQ(flat.v4_hosts, ref.v4_hosts);
  EXPECT_EQ(flat.v6_hosts, ref.v6_hosts);
  EXPECT_EQ(flat.host_domain_edges, ref.host_domain_edges);
}

void expect_hosts_equal(const HostRange& flat,
                        const std::vector<ReferenceCorpus::HostDomains>& ref,
                        const Prefix& prefix) {
  ASSERT_EQ(flat.size(), ref.size()) << prefix.to_string();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(Prefix::host(flat.address(i)), ref[i].host) << prefix.to_string() << " row " << i;
    const DomainSpan domains = flat.domains(i);
    EXPECT_EQ(DomainSet(domains.begin(), domains.end()), ref[i].domains)
        << prefix.to_string() << " row " << i;
  }
}

/// A random prefix of `family`: any length, any address.
Prefix random_prefix(std::mt19937& rng, Family family) {
  std::array<std::uint8_t, 16> bytes{};
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng());
  if (family == Family::v4) {
    const IPAddress address(IPv4Address::from_octets(bytes[0], bytes[1], bytes[2], bytes[3]));
    return Prefix::of(address, rng() % 33);
  }
  bytes[0] = static_cast<std::uint8_t>(0x20 | (bytes[0] & 0x1F));  // global unicast
  return Prefix::of(IPAddress(IPv6Address(bytes)), rng() % 129);
}

/// Query prefixes for domains_within around announcement `announced`:
/// itself, prefixes inside it down to a single host, and supernets that
/// may span nested announcements.
std::vector<Prefix> queries_around(std::mt19937& rng, const Prefix& announced,
                                   const HostRange& hosts) {
  std::vector<Prefix> out{announced};
  const unsigned max = announced.max_length();
  if (!hosts.empty()) {
    const IPAddress& host = hosts.address(rng() % hosts.size());
    out.push_back(Prefix::of(host, announced.length() + rng() % (max - announced.length() + 1)));
    out.push_back(Prefix::of(host, max));
  }
  if (announced.length() > 0) {
    out.push_back(Prefix::of(announced.address(), rng() % announced.length()));
    out.push_back(*announced.supernet());
  }
  return out;
}

/// Every view of the flat build equals the reference's.
void expect_matches_reference(const dns::ResolutionSnapshot& snapshot, const bgp::Rib& rib,
                              std::uint32_t seed) {
  const DualStackCorpus flat = DualStackCorpus::build(snapshot, rib);
  const ReferenceCorpus ref = ReferenceCorpus::build(snapshot, rib);

  expect_stats_equal(flat.stats(), ref.stats());
  ASSERT_EQ(flat.interner().size(), ref.interner().size());
  for (DomainId id = 0; id < flat.interner().size(); ++id) {
    ASSERT_EQ(flat.interner().name(id), ref.interner().name(id)) << "id " << id;
  }
  expect_side_equal(flat.detect_index().v4, ref.detect_index().v4, "v4 side");
  expect_side_equal(flat.detect_index().v6, ref.detect_index().v6, "v6 side");

  std::mt19937 rng(seed);
  std::vector<Prefix> queries{Prefix::must_parse("0.0.0.0/0"), Prefix::must_parse("::/0")};
  for (const Family family : {Family::v4, Family::v6}) {
    std::size_t rows = 0;
    for (const Prefix& prefix : ref.detect_index().side(family).prefixes) {
      const HostRange hosts = flat.hosts_of(prefix);
      expect_hosts_equal(hosts, ref.hosts_of(prefix), prefix);
      rows += hosts.size();
      const DomainSpan domains = flat.domains_of(prefix);
      ASSERT_NE(ref.domains_of(prefix), nullptr);
      EXPECT_EQ(DomainSet(domains.begin(), domains.end()), *ref.domains_of(prefix));
      if (rng() % 4 == 0) {
        for (const Prefix& query : queries_around(rng, prefix, hosts)) queries.push_back(query);
      }
    }
    EXPECT_EQ(flat.hosts(family).size(), rows);
    for (int i = 0; i < 50; ++i) queries.push_back(random_prefix(rng, family));
  }

  for (const Prefix& query : queries) {
    // Absent prefixes answer empty in both builds.
    if (ref.domains_of(query) == nullptr) {
      EXPECT_TRUE(flat.domains_of(query).empty()) << query.to_string();
      EXPECT_TRUE(flat.hosts_of(query).empty()) << query.to_string();
    }
    EXPECT_EQ(flat.domains_within(query), ref.domains_within(query)) << query.to_string();
  }
}

/// `snapshot` with its rows in reverse order.
dns::ResolutionSnapshot reversed(const dns::ResolutionSnapshot& snapshot) {
  dns::ResolutionSnapshot out(snapshot.date());
  for (auto it = snapshot.entries().rbegin(); it != snapshot.entries().rend(); ++it) {
    out.add(*it);
  }
  return out;
}

void expect_pairs_identical(const std::vector<SiblingPair>& a, const std::vector<SiblingPair>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].v4, b[i].v4) << "pair " << i;
    EXPECT_EQ(a[i].v6, b[i].v6) << "pair " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].similarity),
              std::bit_cast<std::uint64_t>(b[i].similarity))
        << "pair " << i;
    EXPECT_EQ(a[i].shared_domains, b[i].shared_domains) << "pair " << i;
    EXPECT_EQ(a[i].v4_domain_count, b[i].v4_domain_count) << "pair " << i;
    EXPECT_EQ(a[i].v6_domain_count, b[i].v6_domain_count) << "pair " << i;
  }
}

/// One synthetic month. At scale 2 the hypergiants switch to replicated
/// edge deployments whatever the org count, so few orgs and a small
/// hypergiant footprint keep the universe (and the Debug build) small
/// while the replicated edges still appear.
synth::SynthConfig synth_config(std::uint64_t seed, int scale, int orgs) {
  synth::SynthConfig config;
  config.seed = seed;
  config.scale = scale;
  config.organization_count = orgs;
  config.months = 1;
  if (scale > 1) config.hg_prefix_scale = 0.005;
  return config;
}

class CorpusReferenceSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorpusReferenceSeeds, ScaleOneMatchesReference) {
  const synth::SyntheticInternet universe(synth_config(GetParam(), 1, 300));
  expect_matches_reference(universe.snapshot_at(0), universe.rib(),
                           static_cast<std::uint32_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusReferenceSeeds, ::testing::Values(1, 7, 42));

TEST(CorpusReference, ScaleTwoReplicatedEdgesMatchReference) {
  // Scale 2 replicates hypergiant edge clusters: each CDN domain is served
  // from many prefixes per family.
  const synth::SyntheticInternet universe(synth_config(42, 2, 40));
  const auto snapshot = universe.snapshot_at(0);
  const DualStackCorpus corpus = DualStackCorpus::build(snapshot, universe.rib());
  EXPECT_GT(corpus.stats().host_domain_edges,
            corpus.stats().v4_hosts + corpus.stats().v6_hosts);
  EXPECT_GT(corpus.stats().v4_hosts, 4 * corpus.ds_domain_count());
  expect_matches_reference(snapshot, universe.rib(), 2);
}

TEST(CorpusReference, ScenarioCornerCasesMatchReference) {
  std::vector<ScenarioBuilder> cases(7);
  // Nested announcements, with hosts on both levels and a covered gap.
  cases[0].announce("20.0.0.0/8", 1).announce("20.1.0.0/16", 2).announce("20.1.1.0/24", 3);
  cases[0].announce("2620:100::/32", 4).announce("2620:100:1::/48", 5);
  cases[0].host("a.example.org", {"20.1.1.10", "20.1.2.10"}, {"2620:100:1::10"});
  cases[0].host("b.example.org", {"20.200.0.1", "20.1.1.11"}, {"2620:100:2::1"});
  cases[0].host("c.example.org", {"20.1.255.255"}, {"2620:100:1::10", "2620:100::1"});
  // Reserved and unmapped addresses.
  cases[1].announce("20.1.1.0/24", 1).announce("2620:100::/48", 2).announce("10.0.0.0/8", 3);
  cases[1].host("d.example.org", {"20.1.1.1", "10.1.1.1", "99.9.9.9"},
                {"2620:100::1", "2001:db8::1", "2620:999::1"});
  // One address listed twice in an entry.
  cases[2].announce("20.1.1.0/24", 1).announce("2620:100::/48", 2);
  cases[2].host("twice.example.org", {"20.1.1.1", "20.1.1.1"}, {"2620:100::1", "2620:100::1"});
  // One address shared by many domains.
  cases[3].announce("20.1.1.0/24", 1).announce("2620:100::/48", 2);
  for (int i = 0; i < 40; ++i) {
    const std::string name = "shared" + std::to_string(i) + ".example.org";
    cases[3].host(name, {"20.1.1.1"}, {i % 2 == 0 ? "2620:100::1" : "2620:100::2"});
  }
  // CNAME collapse: two queried names, one response identity.
  cases[4].announce("20.1.1.0/24", 1).announce("2620:100::/48", 2);
  cases[4].host_as("www.a.com", "edge.cdn.net", {"20.1.1.1"}, {"2620:100::1"});
  cases[4].host_as("www.b.com", "edge.cdn.net", {"20.1.1.2"}, {"2620:100::1"});
  // Single-family entries next to a dual-stack one.
  cases[5].announce("20.1.1.0/24", 1).announce("2620:100::/48", 2);
  cases[5].host("v4only.example.org", {"20.1.1.1"}, {});
  cases[5].host("v6only.example.org", {}, {"2620:100::1"});
  cases[5].host("ds.example.org", {"20.1.1.2"}, {"2620:100::2"});
  // An empty snapshot (cases[6]): routes, no entries.
  cases[6].announce("20.1.1.0/24", 1).announce("2620:100::/48", 2);

  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    expect_matches_reference(cases[i].snapshot(), cases[i].rib(), static_cast<std::uint32_t>(i));
  }
}

TEST(CorpusReference, RowOrderDoesNotReachDetectionOrTuning) {
  for (const int scale : {1, 2}) {
    SCOPED_TRACE("scale " + std::to_string(scale));
    const synth::SyntheticInternet universe(synth_config(42, scale, scale == 1 ? 300 : 40));
    const auto snapshot = universe.snapshot_at(0);
    const auto forward = DualStackCorpus::build(snapshot, universe.rib());
    const auto backward = DualStackCorpus::build(reversed(snapshot), universe.rib());
    // Interned ids follow row order; the prefixes they land on do not.
    ASSERT_EQ(forward.ds_domain_count(), backward.ds_domain_count());

    const auto pairs = detect_sibling_prefixes(forward);
    ASSERT_FALSE(pairs.empty());
    expect_pairs_identical(detect_sibling_prefixes(backward), pairs);
    for (const SpTunerConfig config :
         {SpTunerConfig{.v4_threshold = 28, .v6_threshold = 96},
          SpTunerConfig{.v4_threshold = 24, .v6_threshold = 48}}) {
      SCOPED_TRACE(std::to_string(config.v4_threshold) + "/" +
                   std::to_string(config.v6_threshold));
      const auto tuned = SpTunerMs(forward, config).tune_all(pairs);
      const auto tuned_back = SpTunerMs(backward, config).tune_all(pairs);
      EXPECT_EQ(tuned_back.changed_count, tuned.changed_count);
      expect_pairs_identical(tuned_back.pairs, tuned.pairs);
    }
  }
}

}  // namespace
}  // namespace sp::core
