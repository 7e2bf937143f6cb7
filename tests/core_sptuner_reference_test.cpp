// SpTunerMs against the item-copying oracle (reference_sptuner.h): equal
// SpTunerResults — pairs, similarity bit patterns, the three domain counts,
// input_count and changed_count — at both of Fig 5's threshold pairs, at 1
// and 4 threads, on seeded synthetic months and on hand-built scenarios
// that pin the chain jump's corner cases (single hosts, one side reaching
// its threshold or splitting while the other chains, inputs at or past the
// thresholds).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/corpus.h"
#include "core/detect.h"
#include "core/sptuner.h"
#include "reference_sptuner.h"
#include "synth/universe.h"
#include "test_fixtures.h"

namespace sp::core {
namespace {

using testsupport::ReferenceSpTuner;
using testsupport::ScenarioBuilder;

/// Fig 5's threshold pairs: the analysis default and the routable one.
constexpr SpTunerConfig kThresholds[] = {{.v4_threshold = 28, .v6_threshold = 96},
                                         {.v4_threshold = 24, .v6_threshold = 48}};
constexpr unsigned kThreads[] = {1, 4};

Prefix p(const char* text) { return Prefix::must_parse(text); }

std::string label(const SpTunerConfig& config) {
  return "/" + std::to_string(config.v4_threshold) + ",/" + std::to_string(config.v6_threshold);
}

void expect_pairs_identical(const std::vector<SiblingPair>& actual,
                            const std::vector<SiblingPair>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::string where = "pair " + std::to_string(i) + " " + expected[i].v4.to_string() +
                              " " + expected[i].v6.to_string();
    EXPECT_EQ(actual[i].v4, expected[i].v4) << where;
    EXPECT_EQ(actual[i].v6, expected[i].v6) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i].similarity),
              std::bit_cast<std::uint64_t>(expected[i].similarity))
        << where;
    EXPECT_EQ(actual[i].shared_domains, expected[i].shared_domains) << where;
    EXPECT_EQ(actual[i].v4_domain_count, expected[i].v4_domain_count) << where;
    EXPECT_EQ(actual[i].v6_domain_count, expected[i].v6_domain_count) << where;
  }
}

/// tune_all at every thread count equals the oracle's serial tune_all.
/// Returns the oracle's result.
SpTunerResult expect_matches_reference(const DualStackCorpus& corpus,
                                       std::span<const SiblingPair> pairs,
                                       const SpTunerConfig& config) {
  SCOPED_TRACE(label(config));
  const SpTunerResult expected = ReferenceSpTuner(corpus, config).tune_all(pairs);
  const SpTunerMs tuner(corpus, config);
  for (const unsigned threads : kThreads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const SpTunerResult actual = tuner.tune_all(pairs, threads);
    EXPECT_EQ(actual.input_count, expected.input_count);
    EXPECT_EQ(actual.changed_count, expected.changed_count);
    expect_pairs_identical(actual.pairs, expected.pairs);
  }
  return expected;
}

/// Every pair tuned alone (tune_pair) and all together (tune_all) equal
/// the oracle.
void expect_scenario_matches(const DualStackCorpus& corpus, std::span<const SiblingPair> pairs,
                             const SpTunerConfig& config) {
  const ReferenceSpTuner reference(corpus, config);
  const SpTunerMs tuner(corpus, config);
  for (const SiblingPair& pair : pairs) {
    SCOPED_TRACE(label(config) + " " + pair.v4.to_string() + " " + pair.v6.to_string());
    expect_pairs_identical(tuner.tune_pair(pair), reference.tune_pair(pair));
  }
  expect_matches_reference(corpus, pairs, config);
}

// ---------------------------------------------------------------------------
// Seeded synthetic months.
// ---------------------------------------------------------------------------

synth::SynthConfig synth_config(std::uint64_t seed) {
  synth::SynthConfig config;
  config.seed = seed;
  config.organization_count = 400;
  config.months = 13;
  return config;
}

class SpTunerReferenceSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpTunerReferenceSeeds, MonthsMatchReference) {
  const synth::SyntheticInternet universe(synth_config(GetParam()));
  for (const int month : {0, 5, 12}) {
    SCOPED_TRACE("month " + std::to_string(month));
    const auto corpus = DualStackCorpus::build(universe.snapshot_at(month), universe.rib());
    const auto pairs = detect_sibling_prefixes(corpus);
    ASSERT_GT(pairs.size(), 100u);
    for (const SpTunerConfig& config : kThresholds) {
      const SpTunerResult expected = expect_matches_reference(corpus, pairs, config);
      // The months exercise refinement and branch tracking, not just
      // pass-through.
      EXPECT_GT(expected.changed_count, pairs.size() / 4);
      EXPECT_GT(expected.pairs.size(), pairs.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpTunerReferenceSeeds, ::testing::Values(1, 5, 42));

// ---------------------------------------------------------------------------
// Hand-built scenarios for the chain jump.
// ---------------------------------------------------------------------------

TEST(SpTunerReference, SingleHostSides) {
  ScenarioBuilder builder;
  builder.announce("20.1.0.0/16", 1).announce("2620:100::/32", 2);
  builder.announce("20.2.0.0/16", 3).announce("2620:200::/32", 4);
  // One host per side, one domain: both sides chain to their thresholds.
  builder.host("solo.example.org", {"20.1.1.77"}, {"2620:100::77"});
  // One v4 host serving three domains whose v6 hosts sit far apart.
  builder.host("a.example.org", {"20.2.3.4"}, {"2620:200:1::1"});
  builder.host("b.example.org", {"20.2.3.4"}, {"2620:200:8000::1"});
  builder.host("c.example.org", {"20.2.3.4"}, {"2620:200:8000::2"});
  const auto corpus = builder.corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 2u);
  for (const SpTunerConfig& config : kThresholds) expect_scenario_matches(corpus, pairs, config);

  const SpTunerMs tuner(corpus, {.v4_threshold = 28, .v6_threshold = 96});
  const auto tuned = tuner.tune_pair(pairs[0]);
  ASSERT_EQ(tuned.size(), 1u);
  EXPECT_EQ(tuned[0].v4, p("20.1.1.64/28"));
  EXPECT_EQ(tuned[0].v6, p("2620:100::/96"));
}

TEST(SpTunerReference, V6ReachesThresholdWhileV4Chains) {
  ScenarioBuilder builder;
  // The v6 input sits 4 bits above /96 (and 4 above /48), the v4 input 12
  // above /28 (8 above /24): the jump stops v6 at its threshold and v4
  // keeps chaining alone.
  builder.announce("20.1.0.0/16", 1).announce("2620:100::/92", 2).announce("2620:200::/44", 3);
  builder.host("x.example.org", {"20.1.1.1"}, {"2620:100::1"});
  builder.host("y.example.org", {"20.1.1.2"}, {"2620:100::2"});
  builder.host("z.example.org", {"20.1.1.3"}, {"2620:200::3"});
  const auto corpus = builder.corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 2u);
  for (const SpTunerConfig& config : kThresholds) expect_scenario_matches(corpus, pairs, config);

  const auto tuned = SpTunerMs(corpus, {.v4_threshold = 28, .v6_threshold = 96}).tune_all(pairs);
  for (const SiblingPair& pair : tuned.pairs) EXPECT_EQ(pair.v4.length(), 28u);
}

TEST(SpTunerReference, V4SplitsWhileV6Chains) {
  ScenarioBuilder builder;
  builder.announce("20.1.0.0/16", 1).announce("2620:100::/32", 2).announce("2620:999::/32", 3);
  // The v4 /16 splits at its first bit: the a-hosts in the low /17, b1 and
  // the v4-only p and q (their v6 is elsewhere) in the high one. Every v6
  // host sits in 2620:100::/64, which splits at bit 64, so v6 chains for 32
  // levels. The low /17 is worth taking at once (3/4 > 4/6): lockstep takes
  // it with v6 one level down and queues the high /17 against v6's b1 host.
  // A v6 side that jumped to /64 first would pick both low halves jointly
  // and also queue b1's v6 half against the whole v4 side — a second
  // branch landing on the same prefix pair with other domain counts.
  builder.host("a1.example.org", {"20.1.1.1"}, {"2620:100::1"});
  builder.host("a2.example.org", {"20.1.1.2"}, {"2620:100::2"});
  builder.host("a3.example.org", {"20.1.1.3"}, {"2620:100::3"});
  builder.host("b1.example.org", {"20.1.200.1"}, {"2620:100::8000:0:0:1"});
  builder.host("p.example.org", {"20.1.200.2"}, {"2620:999::1"});
  builder.host("q.example.org", {"20.1.200.3"}, {"2620:999::2"});
  const auto corpus = builder.corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  // The /16 pairs with both /32s (p and q make 2620:999::/32 its tie).
  ASSERT_EQ(pairs.size(), 2u);
  ASSERT_EQ(pairs[0].v6, p("2620:100::/32"));
  for (const SpTunerConfig& config : kThresholds) expect_scenario_matches(corpus, pairs, config);

  const SpTunerMs tuner(corpus, {.v4_threshold = 28, .v6_threshold = 96});
  const auto tuned = tuner.tune_pair(pairs[0]);
  ASSERT_EQ(tuned.size(), 2u);
  EXPECT_EQ(tuned[0].v4, p("20.1.1.0/28"));
  EXPECT_EQ(tuned[0].v6, p("2620:100::/96"));
  EXPECT_EQ(tuned[0].similarity, 1.0);
  // The branch keeps b1's v4 neighbours p and q: b1 shared, 3 domains on
  // v4, 1 on v6.
  EXPECT_EQ(tuned[1].v4, p("20.1.200.0/28"));
  EXPECT_EQ(tuned[1].v6, p("2620:100:0:0:8000::/96"));
  EXPECT_EQ(tuned[1].shared_domains, 1u);
  EXPECT_EQ(tuned[1].v4_domain_count, 3u);
  EXPECT_EQ(tuned[1].v6_domain_count, 1u);
}

TEST(SpTunerReference, InputsDeeperThanThreshold) {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/30", 1).announce("2620:100::/112", 2);
  builder.announce("20.1.2.0/26", 3).announce("2620:200::/40", 4);
  builder.host("tiny.example.org", {"20.1.1.1"}, {"2620:100::1"});
  builder.host("tiny2.example.org", {"20.1.1.2"}, {"2620:100::2"});
  // Only one side past the threshold: the other still descends.
  builder.host("half.example.org", {"20.1.2.1"}, {"2620:200::1"});
  builder.host("half2.example.org", {"20.1.2.9"}, {"2620:200:0:1::1"});
  const auto corpus = builder.corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 2u);
  for (const SpTunerConfig& config : kThresholds) expect_scenario_matches(corpus, pairs, config);

  const SpTunerMs tuner(corpus, {.v4_threshold = 28, .v6_threshold = 96});
  const auto tuned = tuner.tune_pair(pairs[0]);
  ASSERT_EQ(tuned.size(), 1u);
  EXPECT_EQ(tuned[0].v4, p("20.1.1.0/30"));
  EXPECT_EQ(tuned[0].v6, p("2620:100::/112"));
}

TEST(SpTunerReference, ThresholdsEqualToInputLengths) {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 1).announce("2620:100::/48", 2);
  builder.host("x1.example.org", {"20.1.1.1"}, {"2620:100::1"});
  builder.host("y1.example.org", {"20.1.1.129"}, {"2620:100:0:8000::1"});
  const auto corpus = builder.corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 1u);
  const SpTunerConfig at_input{.v4_threshold = 24, .v6_threshold = 48};
  expect_scenario_matches(corpus, pairs, at_input);
  // One threshold at the input length, the other below it.
  expect_scenario_matches(corpus, pairs, {.v4_threshold = 24, .v6_threshold = 96});
  expect_scenario_matches(corpus, pairs, {.v4_threshold = 28, .v6_threshold = 48});

  const auto result = SpTunerMs(corpus, at_input).tune_all(pairs);
  EXPECT_EQ(result.changed_count, 0u);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].v4, pairs[0].v4);
  EXPECT_EQ(result.pairs[0].v6, pairs[0].v6);
}

}  // namespace
}  // namespace sp::core
