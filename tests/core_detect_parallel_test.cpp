// Serial-vs-sharded equivalence harness for the detection driver.
//
// The headline guarantee of the sharded driver (core/detect_scan.h,
// behind detect_sibling_prefixes) is that its pair list is
// *byte-identical* to the serial reference (detail::detect_over, exposed
// as detect_sibling_prefixes_serial) for any corpus, metric, and thread
// count — similarity doubles included, compared at the bit level. The
// harness sweeps seeded synthetic corpora and a synth universe at scale
// 1 and 3 × all metrics × thread counts 1/2/8, plus the adversarial
// corners: exact ties at the kTieEpsilon boundary, empty and one-sided
// corpora, and counter determinism.
#include "core/detect.h"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <string>

#include "synth/universe.h"
#include "test_fixtures.h"

namespace sp::core {
namespace {

Prefix p(const char* text) { return Prefix::must_parse(text); }

constexpr Metric kAllMetrics[] = {Metric::Jaccard, Metric::Dice, Metric::Overlap};
constexpr unsigned kThreadCounts[] = {1, 2, 8};

void expect_byte_identical(const std::vector<SiblingPair>& parallel,
                           const std::vector<SiblingPair>& serial) {
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].v4, serial[i].v4) << "pair " << i;
    EXPECT_EQ(parallel[i].v6, serial[i].v6) << "pair " << i;
    // Bit-level comparison: both engines must perform the same FP ops.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel[i].similarity),
              std::bit_cast<std::uint64_t>(serial[i].similarity))
        << "pair " << i << " similarity " << parallel[i].similarity << " vs "
        << serial[i].similarity;
    EXPECT_EQ(parallel[i].shared_domains, serial[i].shared_domains) << "pair " << i;
    EXPECT_EQ(parallel[i].v4_domain_count, serial[i].v4_domain_count) << "pair " << i;
    EXPECT_EQ(parallel[i].v6_domain_count, serial[i].v6_domain_count) << "pair " << i;
  }
}

/// A seeded random SetCorpus with the detection corner cases mixed in:
/// elements present in only one family, duplicate observations, and
/// prefixes sharing whole element blocks (tie fodder).
SetCorpus random_corpus(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const int v4_count = 40 + static_cast<int>(rng() % 30);
  const int v6_count = 40 + static_cast<int>(rng() % 30);
  std::vector<Prefix> v4s;
  std::vector<Prefix> v6s;
  for (int i = 0; i < v4_count; ++i) {
    v4s.push_back(Prefix::of(
        IPAddress(IPv4Address::from_octets(10, static_cast<std::uint8_t>(i / 256),
                                           static_cast<std::uint8_t>(i % 256), 0)),
        24));
  }
  for (int i = 0; i < v6_count; ++i) {
    v6s.push_back(p(("2001:db8:" + std::to_string(i) + "::/48").c_str()));
  }

  SetCorpus corpus;
  std::uniform_int_distribution<int> v4_pick(0, v4_count - 1);
  std::uniform_int_distribution<int> v6_pick(0, v6_count - 1);
  std::uniform_int_distribution<int> spread(1, 4);
  const DomainId element_count = 150;
  for (DomainId element = 0; element < element_count; ++element) {
    const int mode = static_cast<int>(rng() % 12);
    const int k4 = mode == 0 ? 0 : spread(rng);  // mode 0: v6-only element
    const int k6 = mode == 1 ? 0 : spread(rng);  // mode 1: v4-only element
    for (int i = 0; i < k4; ++i) corpus.add(v4s[v4_pick(rng)], element);
    for (int i = 0; i < k6; ++i) corpus.add(v6s[v6_pick(rng)], element);
    if (mode == 2) {  // duplicate observations must collapse identically
      const Prefix target = v4s[v4_pick(rng)];
      corpus.add(target, element);
      corpus.add(target, element);
    }
  }
  // Two v6 prefixes sharing a whole element block with one v4 prefix:
  // near-tie and tie fodder on top of the random memberships.
  for (DomainId element = 0; element < 6; ++element) {
    corpus.add(v6s[0], 1000 + element);
    corpus.add(v6s[1], 1000 + element);
    corpus.add(v4s[0], 1000 + element);
  }
  corpus.finalize();
  return corpus;
}

class DetectParallelSeeds : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DetectParallelSeeds, MatchesSerialOnRandomSetCorpora) {
  const SetCorpus corpus = random_corpus(GetParam());
  for (const Metric metric : kAllMetrics) {
    const auto serial = detect_sibling_prefixes_serial(corpus, {.metric = metric});
    ASSERT_FALSE(serial.empty());
    for (const unsigned threads : kThreadCounts) {
      const auto parallel =
          detect_sibling_prefixes(corpus, {.metric = metric, .threads = threads});
      expect_byte_identical(parallel, serial);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectParallelSeeds,
                         ::testing::Values(1u, 7u, 42u, 1337u, 99991u));

/// The 120-org, 3-month synth universe's last month, at `scale`.
DualStackCorpus synthetic_dns_corpus(int scale) {
  synth::SynthConfig config;
  config.organization_count = 120;
  config.months = 3;
  config.hg_prefix_scale = 0.01;
  config.probe_count = 50;
  config.scale = scale;
  const synth::SyntheticInternet universe(config);
  const auto snapshot = universe.snapshot_at(universe.month_count() - 1);
  return DualStackCorpus::build(snapshot, universe.rib());
}

TEST(DetectParallel, MatchesSerialOnSyntheticDnsCorpus) {
  const auto corpus = synthetic_dns_corpus(1);
  for (const Metric metric : kAllMetrics) {
    const auto serial = detect_sibling_prefixes_serial(corpus, {.metric = metric});
    ASSERT_FALSE(serial.empty());
    for (const unsigned threads : kThreadCounts) {
      const auto parallel =
          detect_sibling_prefixes(corpus, {.metric = metric, .threads = threads});
      expect_byte_identical(parallel, serial);
    }
  }
}

// Scale 3: replicated CDN edges, where every element's posting list names
// a whole cluster of candidate prefixes.
TEST(DetectParallel, MatchesSerialOnScaledSyntheticDnsCorpus) {
  const auto corpus = synthetic_dns_corpus(3);
  for (const Metric metric : kAllMetrics) {
    SCOPED_TRACE("metric " + std::to_string(static_cast<int>(metric)));
    const auto serial = detect_sibling_prefixes_serial(corpus, {.metric = metric});
    ASSERT_FALSE(serial.empty());
    for (const unsigned threads : kThreadCounts) {
      DetectStats stats;
      const auto parallel = detect_sibling_prefixes(
          corpus, {.metric = metric, .threads = threads, .stats = &stats});
      expect_byte_identical(parallel, serial);
      EXPECT_GT(stats.prefixes_scanned, 0u);
    }
  }
}

TEST(DetectParallel, PreservesExactTiesAcrossDifferentSetSizes) {
  // Source {1,2,3,4}. Candidate A shares 2 of its 4 elements →
  // Jaccard 2/6; candidate B shares 3 of its 8 → 3/9. IEEE division is
  // correctly rounded, so both are bitwise double(1/3): an exact tie that
  // only survives if the engine applies the kTieEpsilon rule against the
  // same final best value as the serial pass.
  SetCorpus corpus;
  for (DomainId element : {1u, 2u, 3u, 4u}) corpus.add(p("20.1.0.0/16"), element);
  for (DomainId element : {1u, 2u, 10u, 11u}) corpus.add(p("2620:a::/48"), element);
  for (DomainId element : {2u, 3u, 4u, 20u, 21u, 22u, 23u, 24u})
    corpus.add(p("2620:b::/48"), element);
  corpus.finalize();

  const auto serial = detect_sibling_prefixes_serial(corpus);
  const auto parallel = detect_sibling_prefixes(corpus, {.threads = 8});
  expect_byte_identical(parallel, serial);

  // Both tied candidates are present for the v4 source.
  std::size_t matches = 0;
  for (const SiblingPair& pair : parallel) {
    if (pair.v4 == p("20.1.0.0/16")) {
      ++matches;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pair.similarity),
                std::bit_cast<std::uint64_t>(1.0 / 3.0));
    }
  }
  EXPECT_EQ(matches, 2u);
}

TEST(DetectParallel, PreservesIdenticalSetTies) {
  // Two v6 prefixes with byte-identical element sets tie exactly against
  // the v4 source; both pairs must survive at every thread count.
  SetCorpus corpus;
  for (DomainId element : {1u, 2u, 3u}) {
    corpus.add(p("20.1.0.0/16"), element);
    corpus.add(p("2620:a::/48"), element);
    corpus.add(p("2620:b::/48"), element);
  }
  corpus.finalize();

  const auto serial = detect_sibling_prefixes_serial(corpus);
  ASSERT_EQ(serial.size(), 2u);
  for (const unsigned threads : kThreadCounts) {
    expect_byte_identical(detect_sibling_prefixes(corpus, {.threads = threads}), serial);
  }
}

TEST(DetectParallel, EmptyAndOneSidedCorpora) {
  SetCorpus empty;
  empty.finalize();
  for (const unsigned threads : kThreadCounts) {
    EXPECT_TRUE(detect_sibling_prefixes(empty, {.threads = threads}).empty());
  }

  SetCorpus v4_only;
  v4_only.add(p("20.1.0.0/16"), 1);
  v4_only.add(p("20.2.0.0/16"), 2);
  v4_only.finalize();
  for (const unsigned threads : kThreadCounts) {
    EXPECT_TRUE(detect_sibling_prefixes(v4_only, {.threads = threads}).empty());
  }

  SetCorpus v6_only;
  v6_only.add(p("2620:a::/48"), 1);
  v6_only.finalize();
  EXPECT_TRUE(detect_sibling_prefixes(v6_only, {.threads = 8}).empty());

  // Empty DNS corpus through the same engine.
  const testsupport::ScenarioBuilder builder;
  const auto corpus = builder.corpus();
  EXPECT_TRUE(detect_sibling_prefixes(corpus, {.threads = 8}).empty());
}

TEST(DetectParallel, MoreThreadsThanPrefixes) {
  SetCorpus corpus;
  for (DomainId element : {1u, 2u}) {
    corpus.add(p("20.1.0.0/16"), element);
    corpus.add(p("2620:a::/48"), element);
  }
  corpus.finalize();
  const auto serial = detect_sibling_prefixes_serial(corpus);
  expect_byte_identical(detect_sibling_prefixes(corpus, {.threads = 32}), serial);
}

TEST(DetectParallel, StatsAreDeterministicAcrossThreadCounts) {
  const SetCorpus corpus = random_corpus(4242);
  DetectStats baseline;
  (void)detect_sibling_prefixes(corpus, {.threads = 1, .stats = &baseline});
  EXPECT_EQ(baseline.threads_used, 1u);
  EXPECT_EQ(baseline.prefixes_scanned, corpus.detect_index().v4.prefix_count() +
                                           corpus.detect_index().v6.prefix_count());
  EXPECT_GT(baseline.candidates_evaluated, 0u);
  EXPECT_GT(baseline.pairs_emitted, 0u);

  for (const unsigned threads : {2u, 8u}) {
    DetectStats stats;
    (void)detect_sibling_prefixes(corpus, {.threads = threads, .stats = &stats});
    EXPECT_EQ(stats.threads_used, threads);
    EXPECT_EQ(stats.prefixes_scanned, baseline.prefixes_scanned);
    EXPECT_EQ(stats.candidates_evaluated, baseline.candidates_evaluated);
    EXPECT_EQ(stats.pairs_emitted, baseline.pairs_emitted);
  }
}

TEST(DetectParallel, ZeroThreadCountPicksHardwareConcurrency) {
  const SetCorpus corpus = random_corpus(11);
  DetectStats stats;
  expect_byte_identical(detect_sibling_prefixes(corpus, {.threads = 0, .stats = &stats}),
                        detect_sibling_prefixes_serial(corpus));
  EXPECT_GE(stats.threads_used, 1u);
  EXPECT_LE(stats.threads_used, 64u);
}

}  // namespace
}  // namespace sp::core
