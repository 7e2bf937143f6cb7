// Tests for the synthetic Internet generator: determinism, structural
// consistency (addresses inside prefixes, RIB coverage), the headline
// pipeline shapes (dataset growth, perfect-match share, SP-Tuner lift),
// and the `scale` knob the at-scale runs build on.
#include "synth/universe.h"

#include <gtest/gtest.h>

#include <bit>
#include <unordered_set>
#include <vector>

#include "analysis/stats.h"
#include "core/detect.h"
#include "core/sptuner.h"
#include "synth/determinism.h"

namespace sp::synth {
namespace {

SynthConfig small_config() {
  SynthConfig config;
  config.organization_count = 150;
  config.months = 13;
  config.hg_prefix_scale = 0.01;
  config.monitoring_v4_prefixes = 16;
  config.monitoring_v6_prefixes = 6;
  config.probe_count = 300;
  return config;
}

const SyntheticInternet& small_universe() {
  static const SyntheticInternet universe(small_config());
  return universe;
}

TEST(Determinism, MixAndUnitAreStable) {
  EXPECT_EQ(mix(1, 2, 3), mix(1, 2, 3));
  EXPECT_NE(mix(1, 2, 3), mix(1, 2, 4));
  const double u = unit(42, 7);
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
  EXPECT_EQ(u, unit(42, 7));
  EXPECT_LT(pick(10, 5, 6), 10u);
  EXPECT_EQ(pick(0, 1), 0u);
}

TEST(HostAddresses, StayInsidePrefixAndSeparateGroups) {
  const Prefix v4 = Prefix::must_parse("20.7.0.0/16");
  for (unsigned group = 0; group < 16; ++group) {
    for (std::uint64_t salt = 0; salt < 50; ++salt) {
      const IPv4Address address = v4_host_address(v4, group, salt);
      ASSERT_TRUE(v4.contains(IPAddress(address)));
      // The group occupies the top 4 host bits.
      ASSERT_EQ((address.value() >> 12) & 0xF, group);
    }
  }
  const Prefix v6 = Prefix::must_parse("2600:7::/32");
  for (unsigned group = 0; group < 16; ++group) {
    const IPv6Address address = v6_host_address(v6, group, 9);
    ASSERT_TRUE(v6.contains(IPAddress(address)));
    ASSERT_EQ((address.group(2) >> 12) & 0xF, group);
  }
}

TEST(HostAddresses, HandleTinyAndDeepPrefixes) {
  const Prefix tiny = Prefix::must_parse("20.7.0.0/30");
  for (std::uint64_t salt = 0; salt < 20; ++salt) {
    EXPECT_TRUE(tiny.contains(IPAddress(v4_host_address(tiny, 3, salt))));
  }
  const Prefix deep = Prefix::must_parse("2600:7::/100");
  for (std::uint64_t salt = 0; salt < 20; ++salt) {
    EXPECT_TRUE(deep.contains(IPAddress(v6_host_address(deep, 3, salt))));
  }
}

TEST(SyntheticInternet, IsDeterministic) {
  const SyntheticInternet a(small_config());
  const SyntheticInternet b(small_config());
  ASSERT_EQ(a.orgs().size(), b.orgs().size());
  ASSERT_EQ(a.domains().size(), b.domains().size());
  const auto snap_a = a.snapshot_at(a.month_count() - 1);
  const auto snap_b = b.snapshot_at(b.month_count() - 1);
  ASSERT_EQ(snap_a.domain_count(), snap_b.domain_count());
  for (std::size_t i = 0; i < snap_a.entries().size(); ++i) {
    ASSERT_EQ(snap_a.entries()[i].queried, snap_b.entries()[i].queried);
    ASSERT_EQ(snap_a.entries()[i].v4, snap_b.entries()[i].v4);
    ASSERT_EQ(snap_a.entries()[i].v6, snap_b.entries()[i].v6);
  }
}

TEST(SyntheticInternet, DatesMapToMonths) {
  const auto& universe = small_universe();
  EXPECT_EQ(universe.date_of_month(universe.month_count() - 1).to_string(), "2024-09-11");
  EXPECT_EQ(universe.month_index(Date{2024, 9, 11}), universe.month_count() - 1);
  EXPECT_EQ(universe.month_index(universe.date_of_month(0)), 0);
}

TEST(SyntheticInternet, PrefixesAreDisjointPerFamily) {
  const auto& universe = small_universe();
  std::vector<Prefix> all;
  for (const auto& org : universe.orgs()) {
    all.insert(all.end(), org.v4_prefixes.begin(), org.v4_prefixes.end());
    all.insert(all.end(), org.v6_prefixes.begin(), org.v6_prefixes.end());
  }
  PrefixTrie<int> trie;
  for (const auto& prefix : all) {
    // No prefix may nest inside another (longest-match would be ambiguous
    // relative to the generator's intent).
    ASSERT_FALSE(trie.longest_match(prefix).has_value()) << prefix.to_string();
    trie.insert(prefix, 1);
  }
  EXPECT_EQ(trie.size(), all.size());
}

TEST(SyntheticInternet, RibResolvesEveryGeneratedAddress) {
  const auto& universe = small_universe();
  const auto snapshot = universe.snapshot_at(universe.month_count() - 1);
  ASSERT_GT(snapshot.domain_count(), 100u);
  for (const auto& entry : snapshot.entries()) {
    for (const auto& address : entry.v4) {
      ASSERT_FALSE(is_reserved(address));
      const auto route = universe.rib().lookup(IPAddress(address));
      ASSERT_TRUE(route.has_value()) << address.to_string();
      ASSERT_NE(universe.org_by_asn(route->origin_as), nullptr);
    }
    for (const auto& address : entry.v6) {
      ASSERT_FALSE(is_reserved(address));
      ASSERT_TRUE(universe.rib().lookup(IPAddress(address)).has_value())
          << address.to_string();
    }
  }
}

TEST(SyntheticInternet, MrtDumpRoundTripsThroughCodec) {
  const auto& universe = small_universe();
  const auto dump = universe.mrt_dump();
  ASSERT_GT(dump.size(), 100u);
  EXPECT_TRUE(std::holds_alternative<mrt::PeerIndexTable>(dump.front().body));
  // rib() was already built through encode→decode; spot-check one prefix.
  const auto& org = universe.orgs().front();
  ASSERT_FALSE(org.v4_prefixes.empty());
  EXPECT_EQ(universe.rib().origin_as(org.v4_prefixes.front()), org.v4_asn);
}

TEST(SyntheticInternet, DomainCountsGrowOverTime) {
  const auto& universe = small_universe();
  const auto first = universe.snapshot_at(0);
  const auto last = universe.snapshot_at(universe.month_count() - 1);
  EXPECT_GT(last.domain_count(), first.domain_count());
  // Dual-stack share in a plausible band and growing.
  const double share_first =
      static_cast<double>(first.dual_stack_count()) / first.domain_count();
  const double share_last =
      static_cast<double>(last.dual_stack_count()) / last.domain_count();
  EXPECT_GT(share_first, 0.10);
  EXPECT_LT(share_last, 0.55);
  EXPECT_GT(share_last, share_first - 0.03);
}

TEST(SyntheticInternet, OrgDatabasesArePopulated) {
  const auto& universe = small_universe();
  const auto& org = universe.orgs().front();
  ASSERT_NE(universe.as_orgs().org_name(org.v4_asn), nullptr);
  EXPECT_EQ(*universe.as_orgs().org_name(org.v4_asn), org.name);
  EXPECT_TRUE(universe.as_orgs().same_org(org.v4_asn, org.v6_asn));
  EXPECT_FALSE(universe.asdb().categories(org.v4_asn).empty());
  EXPECT_EQ(universe.catalog().size(), 24u);
}

TEST(SyntheticInternet, RpkiDeploymentGrows) {
  const auto& universe = small_universe();
  const auto early = universe.roas_at(0);
  const auto late = universe.roas_at(universe.month_count() - 1);
  EXPECT_GT(late.size(), early.size());
  rpki::Validator validator;
  for (const auto& roa : late) ASSERT_TRUE(validator.add_roa(roa));
}

TEST(SyntheticInternet, ProbesAreGenerated) {
  const auto& universe = small_universe();
  const auto probes = universe.probes();
  ASSERT_EQ(probes.size(), 300u);
  for (const auto& probe : probes) {
    EXPECT_TRUE(probe.v4.is_v4());
    EXPECT_TRUE(probe.v6.is_v6());
  }
}

TEST(SyntheticInternet, PortScanRespondsForMostPairsButNotAll) {
  const auto& universe = small_universe();
  const auto scan_data = universe.port_scan();
  EXPECT_GT(scan_data.responsive_address_count(), 100u);
}

// The headline end-to-end shape: detection finds pairs, roughly half of
// them perfect in the default case, and SP-Tuner lifts the perfect share
// substantially (the paper's 52% → 82%).
TEST(SyntheticInternet, PipelineReproducesHeadlineShape) {
  const auto& universe = small_universe();
  const auto snapshot = universe.snapshot_at(universe.month_count() - 1);
  const auto corpus = core::DualStackCorpus::build(snapshot, universe.rib());
  ASSERT_GT(corpus.ds_domain_count(), 50u);

  const auto pairs = core::detect_sibling_prefixes(corpus);
  ASSERT_GT(pairs.size(), 50u);

  const analysis::Cdf default_cdf(core::similarity_values(pairs));
  const double default_perfect = default_cdf.fraction_at_least(1.0);
  EXPECT_GT(default_perfect, 0.30);
  EXPECT_LT(default_perfect, 0.85);

  const core::SpTunerMs tuner(corpus, {.v4_threshold = 28, .v6_threshold = 96});
  const auto tuned = tuner.tune_all(pairs);
  const analysis::Cdf tuned_cdf(core::similarity_values(tuned.pairs));
  const double tuned_perfect = tuned_cdf.fraction_at_least(1.0);
  EXPECT_GT(tuned_perfect, default_perfect + 0.10);
  EXPECT_GT(tuned_perfect, 0.60);
}

// Monitoring org: single-domain prefixes across many different orgs must
// produce different-organization sibling pairs (the site24x7 effect).
TEST(SyntheticInternet, MonitoringOrgCreatesCrossOrgPairs) {
  const auto& universe = small_universe();
  const auto snapshot = universe.snapshot_at(universe.month_count() - 1);
  const auto corpus = core::DualStackCorpus::build(snapshot, universe.rib());
  const auto pairs = core::detect_sibling_prefixes(corpus);

  std::size_t different_org = 0;
  for (const auto& pair : pairs) {
    const auto v4_route = universe.rib().lookup(pair.v4);
    const auto v6_route = universe.rib().lookup(pair.v6);
    ASSERT_TRUE(v4_route.has_value());
    ASSERT_TRUE(v6_route.has_value());
    if (!universe.as_orgs().same_org(v4_route->origin_as, v6_route->origin_as)) {
      ++different_org;
    }
  }
  // At least the monitoring grid (16×6 minus silent overlaps) shows up.
  EXPECT_GT(different_org, 50u);
}

// --- synth scale knob ---

/// A 120-org, 3-month universe: small enough to build at scale 3.
SynthConfig scale_config() {
  SynthConfig config;
  config.organization_count = 120;
  config.months = 3;
  config.hg_prefix_scale = 0.01;
  config.probe_count = 50;
  return config;
}

void expect_byte_identical(const std::vector<core::SiblingPair>& actual,
                           const std::vector<core::SiblingPair>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].v4, expected[i].v4) << "pair " << i;
    EXPECT_EQ(actual[i].v6, expected[i].v6) << "pair " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i].similarity),
              std::bit_cast<std::uint64_t>(expected[i].similarity))
        << "pair " << i;
    EXPECT_EQ(actual[i].shared_domains, expected[i].shared_domains) << "pair " << i;
    EXPECT_EQ(actual[i].v4_domain_count, expected[i].v4_domain_count) << "pair " << i;
    EXPECT_EQ(actual[i].v6_domain_count, expected[i].v6_domain_count) << "pair " << i;
  }
}

TEST(SynthScale, ScaleMultipliesTheUniverse) {
  synth::SynthConfig base = scale_config();
  synth::SynthConfig scaled = scale_config();
  scaled.scale = 3;
  const synth::SyntheticInternet small(base);
  const synth::SyntheticInternet big(scaled);
  // Per-org domain counts scale exactly linearly; the monitoring domain is
  // a singleton identity (one domain across hundreds of prefixes) in every
  // universe, so it stays unscaled.
  EXPECT_EQ(big.domains().size(), (small.domains().size() - 1) * 3 + 1);
  // The scaled universe still resolves and detects.
  const auto snapshot = big.snapshot_at(big.month_count() - 1);
  const auto corpus = core::DualStackCorpus::build(snapshot, big.rib());
  const auto pairs = core::detect_sibling_prefixes(corpus, {});
  EXPECT_FALSE(pairs.empty());
}

TEST(SynthScale, ScaleOneIsTheDefaultUniverse) {
  synth::SynthConfig config = scale_config();
  config.scale = 1;
  const synth::SyntheticInternet defaulted(scale_config());
  const synth::SyntheticInternet explicit_one(config);
  EXPECT_EQ(defaulted.domains().size(), explicit_one.domains().size());
  const auto a = defaulted.snapshot_at(defaulted.month_count() - 1);
  const auto b = explicit_one.snapshot_at(explicit_one.month_count() - 1);
  const auto corpus_a = core::DualStackCorpus::build(a, defaulted.rib());
  const auto corpus_b = core::DualStackCorpus::build(b, explicit_one.rib());
  expect_byte_identical(core::detect_sibling_prefixes(corpus_a, {}),
                        core::detect_sibling_prefixes(corpus_b, {}));
}

}  // namespace
}  // namespace sp::synth
