// The sketch↔exact identity harness (ISSUE 7 acceptance property): the
// sketch detection engine must produce *byte-identical* pair lists to the
// exact engine — similarity doubles compared at the bit level — on every
// corpus, metric, thread count and seed tested here. Also covers the run
// counters (each source counted once, whichever path it takes), the
// SketchEstimator plugged into SP-Tuner (results unchanged, estimates
// within margin), and the synth `scale` knob the scale benchmarks build
// on.
#include "sketch/detect_sketch.h"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/detect.h"
#include "core/sptuner.h"
#include "sketch/estimator.h"
#include "synth/universe.h"

namespace sp::sketch {
namespace {

using core::DetectOptions;
using core::DomainId;
using core::Metric;
using core::SetCorpus;
using core::SiblingPair;

Prefix p(const char* text) { return Prefix::must_parse(text); }

constexpr Metric kAllMetrics[] = {Metric::Jaccard, Metric::Dice, Metric::Overlap};
constexpr unsigned kThreadCounts[] = {1, 2, 8};

void expect_byte_identical(const std::vector<SiblingPair>& sketch,
                           const std::vector<SiblingPair>& exact) {
  ASSERT_EQ(sketch.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(sketch[i].v4, exact[i].v4) << "pair " << i;
    EXPECT_EQ(sketch[i].v6, exact[i].v6) << "pair " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sketch[i].similarity),
              std::bit_cast<std::uint64_t>(exact[i].similarity))
        << "pair " << i << " similarity " << sketch[i].similarity << " vs "
        << exact[i].similarity;
    EXPECT_EQ(sketch[i].shared_domains, exact[i].shared_domains) << "pair " << i;
    EXPECT_EQ(sketch[i].v4_domain_count, exact[i].v4_domain_count) << "pair " << i;
    EXPECT_EQ(sketch[i].v6_domain_count, exact[i].v6_domain_count) << "pair " << i;
  }
}

/// The same seeded random SetCorpus generator as the serial-vs-parallel
/// harness (core_detect_parallel_test.cpp): one-family elements, duplicate
/// observations, and shared element blocks as tie fodder.
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
    const int k4 = mode == 0 ? 0 : spread(rng);
    const int k6 = mode == 1 ? 0 : spread(rng);
    for (int i = 0; i < k4; ++i) corpus.add(v4s[v4_pick(rng)], element);
    for (int i = 0; i < k6; ++i) corpus.add(v6s[v6_pick(rng)], element);
    if (mode == 2) {
      const Prefix target = v4s[v4_pick(rng)];
      corpus.add(target, element);
      corpus.add(target, element);
    }
  }
  for (DomainId element = 0; element < 6; ++element) {
    corpus.add(v6s[0], 1000 + element);
    corpus.add(v6s[1], 1000 + element);
    corpus.add(v4s[0], 1000 + element);
  }
  corpus.finalize();
  return corpus;
}

synth::SynthConfig small_config() {
  synth::SynthConfig config;
  config.organization_count = 120;
  config.months = 3;
  config.hg_prefix_scale = 0.01;
  config.probe_count = 50;
  return config;
}

class SketchDetectSeeds : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SketchDetectSeeds, MatchesExactOnRandomSetCorpora) {
  const SetCorpus corpus = random_corpus(GetParam());
  for (const Metric metric : kAllMetrics) {
    const auto exact = core::detect_sibling_prefixes(corpus, {.metric = metric});
    ASSERT_FALSE(exact.empty());
    for (const unsigned threads : kThreadCounts) {
      core::DetectStats stats;
      const auto sketched = sketch::detect_sibling_prefixes(
          corpus, {.metric = metric, .threads = threads, .stats = &stats});
      expect_byte_identical(sketched, exact);
      EXPECT_EQ(stats.prefixes_scanned, corpus.detect_index().v4.prefix_count() +
                                            corpus.detect_index().v6.prefix_count());
      if (metric != Metric::Jaccard) {
        // Non-Jaccard metrics route every source through the exact scan.
        EXPECT_EQ(stats.sources_fallback, stats.prefixes_scanned);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SketchDetectSeeds,
                         ::testing::Values(1u, 7u, 42u, 1337u, 99991u));

TEST(SketchDetect, MatchesExactOnSyntheticDnsCorpus) {
  const synth::SyntheticInternet universe(small_config());
  const auto snapshot = universe.snapshot_at(universe.month_count() - 1);
  const auto corpus = core::DualStackCorpus::build(snapshot, universe.rib());

  for (const Metric metric : kAllMetrics) {
    const auto exact = core::detect_sibling_prefixes(corpus, {.metric = metric});
    ASSERT_FALSE(exact.empty());
    for (const unsigned threads : kThreadCounts) {
      const auto sketched =
          sketch::detect_sibling_prefixes(corpus, {.metric = metric, .threads = threads});
      expect_byte_identical(sketched, exact);
    }
  }
}

TEST(SketchDetect, MatchesExactAcrossSketchParameterChoices) {
  // The identity must hold across the *guaranteed* parameter regime
  // (DESIGN.md §3.7: k and floor such that (1-floor)^k is negligible; the
  // margin covering the combined estimate error). Wider margins, larger k,
  // a different hash seed and a stricter floor all shift work between the
  // survivor and fallback paths without changing a byte of output.
  const SetCorpus corpus = random_corpus(42);
  const auto exact = core::detect_sibling_prefixes(corpus, {});
  for (const SketchParams params :
       {SketchParams{}, SketchParams{.k = 64, .margin = 0.5}, SketchParams{.k = 256},
        SketchParams{.seed = 0xDEADBEEFu}, SketchParams{.fallback_floor = 0.9}}) {
    const auto sketched = sketch::detect_sibling_prefixes(corpus, {.threads = 2}, params);
    expect_byte_identical(sketched, exact);
  }
}

TEST(SketchDetect, ExactEngineMatchesSerialOracle) {
  const SetCorpus corpus = random_corpus(7);
  core::DetectStats exact_stats;
  const auto via_core = core::detect_sibling_prefixes(corpus, {.threads = 2, .stats = &exact_stats});
  expect_byte_identical(via_core, core::detect_sibling_prefixes_serial(corpus));
  EXPECT_GT(exact_stats.prefixes_scanned, 0u);
}

TEST(SketchDetect, StatsAreCoherentAndErrorStaysWithinMargin) {
  const SetCorpus corpus = random_corpus(1337);
  core::DetectStats stats;
  const SketchParams params;
  (void)sketch::detect_sibling_prefixes(corpus, {.threads = 1, .stats = &stats}, params);
  EXPECT_EQ(stats.prefixes_scanned, corpus.detect_index().v4.prefix_count() +
                                        corpus.detect_index().v6.prefix_count());
  EXPECT_LE(stats.sources_fallback, stats.prefixes_scanned);
  EXPECT_EQ(stats.sources_fallback, stats.fallback_no_candidates +
                                        stats.fallback_low_estimate + stats.fallback_low_exact);
  // The zero-false-negative argument assumes estimate error < margin; the
  // engine records the worst error it saw while verifying survivors.
  EXPECT_LT(stats.max_estimate_error, params.margin);
  EXPECT_GE(stats.signature_build_ms, 0.0);
}

TEST(SketchDetect, LowExactFallbackCountsEachSourceOnce) {
  // J = 113/287 ≈ 0.394 sits just under the 0.40 fallback floor. Under
  // this seed the estimate clears the floor, so both sources take the
  // survivor path, verify below the floor and rerun exactly — and must
  // still count once each, as in the exact engine.
  SetCorpus corpus;
  for (DomainId element = 0; element < 200; ++element) corpus.add(p("20.1.0.0/16"), element);
  for (DomainId element = 87; element < 287; ++element) corpus.add(p("2620:a::/48"), element);
  corpus.finalize();

  core::DetectStats stats;
  const auto sketched =
      sketch::detect_sibling_prefixes(corpus, {.threads = 1, .stats = &stats}, {.seed = 2});
  ASSERT_EQ(stats.fallback_low_exact, 2u);
  EXPECT_EQ(stats.sources_fallback, 2u);
  EXPECT_EQ(stats.prefixes_scanned, 2u);

  core::DetectStats exact_stats;
  expect_byte_identical(sketched,
                        core::detect_sibling_prefixes(corpus, {.stats = &exact_stats}));
  EXPECT_EQ(stats.prefixes_scanned, exact_stats.prefixes_scanned);
}

TEST(SketchDetect, EmptyAndOneSidedCorpora) {
  SetCorpus empty;
  empty.finalize();
  EXPECT_TRUE(sketch::detect_sibling_prefixes(empty).empty());

  SetCorpus v4_only;
  v4_only.add(p("20.1.0.0/16"), 1);
  v4_only.finalize();
  EXPECT_TRUE(sketch::detect_sibling_prefixes(v4_only).empty());
}

// --- SketchEstimator + SP-Tuner integration ---

TEST(SketchEstimator, ExactOnCorpusHostSets) {
  const synth::SyntheticInternet universe(small_config());
  const auto snapshot = universe.snapshot_at(universe.month_count() - 1);
  const auto corpus = core::DualStackCorpus::build(snapshot, universe.rib());
  const SketchEstimator estimator(corpus);
  EXPECT_GT(estimator.cached_signatures(), 0u);

  // Single-set estimates between cached host sets: exact whenever both
  // sets fit in k, within the margin always.
  std::size_t checked = 0;
  std::vector<core::DomainSpan> hosts;
  for (const Family family : {Family::v4, Family::v6}) {
    const core::HostRange rows = corpus.hosts(family);
    for (std::size_t row = 0; row < rows.size(); ++row) hosts.push_back(rows.domains(row));
  }
  ASSERT_GT(hosts.size(), 1u);
  for (std::size_t i = 0; i + 1 < hosts.size() && checked < 200; i += 3, ++checked) {
    const core::DomainSpan a[] = {hosts[i]};
    const core::DomainSpan b[] = {hosts[i + 1]};
    const double est = estimator.estimate_union_jaccard(a, b);
    const double exact = core::jaccard(core::DomainSet(hosts[i].begin(), hosts[i].end()),
                                       core::DomainSet(hosts[i + 1].begin(), hosts[i + 1].end()));
    if (hosts[i].size() <= estimator.params().k && hosts[i + 1].size() <= estimator.params().k) {
      EXPECT_DOUBLE_EQ(est, exact);
    } else {
      EXPECT_NEAR(est, exact, estimator.params().margin);
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(SketchEstimator, UnionEstimatesMatchUncachedSets) {
  // The same contents through the cache (corpus-owned sets) and the
  // on-the-fly path (local copies at different addresses) must estimate
  // identically: signatures are functions of contents, not addresses.
  const synth::SyntheticInternet universe(small_config());
  const auto snapshot = universe.snapshot_at(universe.month_count() - 1);
  const auto corpus = core::DualStackCorpus::build(snapshot, universe.rib());
  const SketchEstimator estimator(corpus);

  const core::HostRange rows = corpus.hosts(Family::v4);
  ASSERT_GE(rows.size(), 4u);
  std::vector<core::DomainSpan> cached;
  std::vector<core::DomainSet> copies;
  for (std::size_t row = 0; row < 4; ++row) {
    cached.push_back(rows.domains(row));
    copies.emplace_back(cached.back().begin(), cached.back().end());
  }

  const core::DomainSpan a_cached[] = {cached[0], cached[1]};
  const core::DomainSpan b_cached[] = {cached[2], cached[3]};
  const core::DomainSpan a_fly[] = {copies[0], copies[1]};
  const core::DomainSpan b_fly[] = {copies[2], copies[3]};
  EXPECT_EQ(std::bit_cast<std::uint64_t>(estimator.estimate_union_jaccard(a_cached, b_cached)),
            std::bit_cast<std::uint64_t>(estimator.estimate_union_jaccard(a_fly, b_fly)));
}

TEST(SketchEstimator, TunerResultsUnchangedWithEstimatorFilter) {
  const synth::SyntheticInternet universe(small_config());
  const auto snapshot = universe.snapshot_at(universe.month_count() - 1);
  const auto corpus = core::DualStackCorpus::build(snapshot, universe.rib());
  const auto pairs = core::detect_sibling_prefixes(corpus, {});
  ASSERT_FALSE(pairs.empty());
  const SketchEstimator estimator(corpus);

  {  // SP-Tuner-MS
    const core::SpTunerMs baseline(corpus);
    const core::SpTunerMs filtered(corpus, {.estimator = &estimator});
    const auto expected = baseline.tune_all(pairs);
    const auto actual = filtered.tune_all(pairs);
    EXPECT_EQ(actual.input_count, expected.input_count);
    EXPECT_EQ(actual.changed_count, expected.changed_count);
    expect_byte_identical(actual.pairs, expected.pairs);
    // And through the parallel path with the estimator shared across
    // threads (it must be safely readable concurrently).
    expect_byte_identical(filtered.tune_all(pairs, 4).pairs, expected.pairs);
  }
  {  // SP-Tuner-LS
    const core::SpTunerLs baseline(corpus, universe.rib());
    const core::SpTunerLs filtered(corpus, universe.rib(), {.estimator = &estimator});
    const auto expected = baseline.tune_all(pairs);
    const auto actual = filtered.tune_all(pairs);
    EXPECT_EQ(actual.changed_count, expected.changed_count);
    expect_byte_identical(actual.pairs, expected.pairs);
  }
}

// --- synth scale knob ---

TEST(SynthScale, ScaleMultipliesTheUniverse) {
  synth::SynthConfig base = small_config();
  synth::SynthConfig scaled = small_config();
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
  synth::SynthConfig config = small_config();
  config.scale = 1;
  const synth::SyntheticInternet defaulted(small_config());
  const synth::SyntheticInternet explicit_one(config);
  EXPECT_EQ(defaulted.domains().size(), explicit_one.domains().size());
  const auto a = defaulted.snapshot_at(defaulted.month_count() - 1);
  const auto b = explicit_one.snapshot_at(explicit_one.month_count() - 1);
  const auto corpus_a = core::DualStackCorpus::build(a, defaulted.rib());
  const auto corpus_b = core::DualStackCorpus::build(b, explicit_one.rib());
  expect_byte_identical(core::detect_sibling_prefixes(corpus_a, {}),
                        core::detect_sibling_prefixes(corpus_b, {}));
}

TEST(SynthScale, SketchIdentityHoldsAtScale) {
  // The headline acceptance property exercised in the regime the sketch
  // engine exists for: a scaled universe with replicated CDN deployments.
  synth::SynthConfig config = small_config();
  config.scale = 3;
  const synth::SyntheticInternet universe(config);
  const auto snapshot = universe.snapshot_at(universe.month_count() - 1);
  const auto corpus = core::DualStackCorpus::build(snapshot, universe.rib());
  const auto exact = core::detect_sibling_prefixes(corpus, {});
  ASSERT_FALSE(exact.empty());
  core::DetectStats stats;
  const auto sketched = sketch::detect_sibling_prefixes(corpus, {.threads = 2, .stats = &stats});
  expect_byte_identical(sketched, exact);
  EXPECT_GT(stats.prefixes_scanned, 0u);
}

}  // namespace
}  // namespace sp::sketch
