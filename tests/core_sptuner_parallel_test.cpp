// Tests for the multi-threaded SP-Tuner: tune_all on several workers
// agrees bit for bit with the serial default on the synthetic workload.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/sptuner.h"
#include "synth/universe.h"

namespace sp::core {
namespace {

class SpTunerParallel : public ::testing::TestWithParam<unsigned> {};

TEST_P(SpTunerParallel, MatchesSerialExactly) {
  synth::SynthConfig config;
  config.organization_count = 250;
  config.months = 3;
  config.monitoring_v4_prefixes = 10;
  config.monitoring_v6_prefixes = 5;
  const synth::SyntheticInternet universe(config);
  const auto corpus =
      DualStackCorpus::build(universe.snapshot_at(universe.month_count() - 1),
                             universe.rib());
  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_GT(pairs.size(), 100u);

  const SpTunerMs tuner(corpus, {.v4_threshold = 28, .v6_threshold = 96});
  const auto serial = tuner.tune_all(pairs);
  const auto parallel = tuner.tune_all(pairs, GetParam());

  EXPECT_EQ(parallel.input_count, serial.input_count);
  EXPECT_EQ(parallel.changed_count, serial.changed_count);
  ASSERT_EQ(parallel.pairs.size(), serial.pairs.size());
  for (std::size_t i = 0; i < serial.pairs.size(); ++i) {
    EXPECT_EQ(parallel.pairs[i], serial.pairs[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel.pairs[i].similarity),
              std::bit_cast<std::uint64_t>(serial.pairs[i].similarity));
    EXPECT_EQ(parallel.pairs[i].shared_domains, serial.pairs[i].shared_domains);
    EXPECT_EQ(parallel.pairs[i].v4_domain_count, serial.pairs[i].v4_domain_count);
    EXPECT_EQ(parallel.pairs[i].v6_domain_count, serial.pairs[i].v6_domain_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SpTunerParallel, ::testing::Values(0u, 1u, 2u, 7u));

TEST(SpTunerParallelEdge, EmptyInput) {
  synth::SynthConfig config;
  config.organization_count = 30;
  config.months = 2;
  const synth::SyntheticInternet universe(config);
  const auto corpus = DualStackCorpus::build(universe.snapshot_at(0), universe.rib());
  const SpTunerMs tuner(corpus, {});
  const auto result = tuner.tune_all({}, 4);
  EXPECT_EQ(result.input_count, 0u);
  EXPECT_TRUE(result.pairs.empty());
}

}  // namespace
}  // namespace sp::core
