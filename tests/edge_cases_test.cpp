// Cross-module edge cases that the per-module suites do not reach.
#include <gtest/gtest.h>

#include "core/sibling_sets.h"
#include "core/sptuner.h"
#include "test_fixtures.h"

namespace sp {
namespace {

using testsupport::ScenarioBuilder;

TEST(SiblingSetsEdge, SharedV6PrefixJoinsComponents) {
  // Two v4 prefixes, each best-matching the same v6 prefix, must form one
  // component via the shared v6 side.
  ScenarioBuilder builder;
  builder.announce("20.1.0.0/24", 1).announce("20.2.0.0/24", 2).announce("2620:100::/48", 3);
  builder.host("a.example.org", {"20.1.0.1"}, {"2620:100::1"});
  builder.host("b.example.org", {"20.2.0.1"}, {"2620:100::2"});
  const auto corpus = builder.corpus();
  const auto pairs = core::detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 2u);
  const auto sets = core::build_sibling_sets(corpus, pairs);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].member_pairs, 2u);
  EXPECT_DOUBLE_EQ(sets[0].similarity, 1.0);
}

TEST(SpTunerEdge, HostLengthInputsAreStable) {
  // A /32-/128 pair (host routes) cannot descend at all.
  ScenarioBuilder builder;
  builder.announce("20.1.1.7/32", 1).announce("2620:100::7/128", 2);
  builder.host("host.example.org", {"20.1.1.7"}, {"2620:100::7"});
  const auto corpus = builder.corpus();
  const auto pairs = core::detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 1u);
  const core::SpTunerMs tuner(corpus, {.v4_threshold = 32, .v6_threshold = 128});
  const auto tuned = tuner.tune_pair(pairs[0]);
  ASSERT_EQ(tuned.size(), 1u);
  EXPECT_EQ(tuned[0], pairs[0]);
}

TEST(SpTunerEdge, ThresholdShallowerThanInputKeepsInput) {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/26", 1).announce("2620:100::/64", 2);
  builder.host("x.example.org", {"20.1.1.9"}, {"2620:100::9"});
  const auto corpus = builder.corpus();
  const auto pairs = core::detect_sibling_prefixes(corpus);
  // Thresholds /24-/48 are shallower than the announced /26-/64: no move.
  const core::SpTunerMs tuner(corpus, {.v4_threshold = 24, .v6_threshold = 48});
  const auto result = tuner.tune_all(pairs);
  EXPECT_EQ(result.changed_count, 0u);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].v4.length(), 26u);
}

TEST(DateEdge, HashAndOrdering) {
  const Date a{2024, 9, 11};
  const Date b{2024, 9, 11};
  const Date c{2024, 9, 12};
  EXPECT_EQ(std::hash<Date>{}(a), std::hash<Date>{}(b));
  EXPECT_NE(std::hash<Date>{}(a), std::hash<Date>{}(c));
  EXPECT_LT(a, c);
  EXPECT_EQ(a.plus_months(0), a);
  EXPECT_EQ(Date({2024, 1, 15}).plus_months(-1).to_string(), "2023-12-15");
}

}  // namespace
}  // namespace sp
