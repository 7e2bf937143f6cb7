// StreamDetector byte-identity harness (ISSUE 8 acceptance property):
// applying month deltas incrementally must produce pair lists
// *byte-identical* (similarity doubles compared at the bit level) to a
// from-scratch exact run over the post-delta corpus — across seeds,
// event mixes, thread counts and the full-rescan path. Also covers the
// dirty-set sparsity the subsystem exists for, the error contract
// (apply before init, inconsistent deltas) and the
// `stream.pairs_current` gauge.
#include "stream/stream_detector.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/corpus_delta.h"
#include "core/detect.h"
#include "obs/metrics.h"

namespace sp::stream {
namespace {

using core::CorpusDelta;
using core::DetectIndex;
using core::DomainId;
using core::DomainSet;
using core::SiblingPair;

Prefix p(const char* text) { return Prefix::must_parse(text); }

constexpr std::uint32_t kSeeds[] = {1, 7, 42, 1337, 99991};
constexpr unsigned kThreadCounts[] = {1, 2, 4};

using EdgeMap = std::map<Prefix, std::set<DomainId>>;

/// Relative weights of the month-boundary events; the "event mixes" axis
/// of the identity property.
struct EventMix {
  const char* name;
  int add = 4;     // element gained by an existing prefix
  int remove = 3;  // element lost
  int birth = 2;   // new prefix appears
  int death = 1;   // existing prefix loses its whole set
};

constexpr EventMix kMixes[] = {
    {"balanced", 4, 3, 2, 1},
    {"churn-heavy", 8, 8, 1, 1},
    {"birth-heavy", 2, 1, 6, 0},
    {"death-heavy", 1, 4, 1, 5},
};

EdgeMap seeded_edges(std::uint32_t seed) {
  std::mt19937 rng(seed);
  EdgeMap edges;
  const int v4_count = 30 + static_cast<int>(rng() % 20);
  const int v6_count = 30 + static_cast<int>(rng() % 20);
  std::uniform_int_distribution<DomainId> element(0, 119);
  for (int i = 0; i < v4_count; ++i) {
    auto& set = edges[p(("10." + std::to_string(i) + ".0.0/24").c_str())];
    const int k = 1 + static_cast<int>(rng() % 5);
    for (int j = 0; j < k; ++j) set.insert(element(rng));
  }
  for (int i = 0; i < v6_count; ++i) {
    auto& set = edges[p(("2001:db8:" + std::to_string(i) + "::/48").c_str())];
    const int k = 1 + static_cast<int>(rng() % 5);
    for (int j = 0; j < k; ++j) set.insert(element(rng));
  }
  return edges;
}

void evolve(EdgeMap& edges, std::mt19937& rng, const EventMix& mix) {
  std::uniform_int_distribution<DomainId> element(0, 119);
  const int total = mix.add + mix.remove + mix.birth + mix.death;
  std::uniform_int_distribution<int> roll(0, total * 2 - 1);  // ~half the prefixes idle
  std::vector<Prefix> prefixes;
  for (const auto& [prefix, _] : edges) prefixes.push_back(prefix);
  int births = 0;
  for (const Prefix& prefix : prefixes) {
    const int r = roll(rng);
    auto& set = edges[prefix];
    if (r < mix.add) {
      set.insert(element(rng));
    } else if (r < mix.add + mix.remove) {
      if (!set.empty()) {
        auto it = set.begin();
        std::advance(it, static_cast<long>(rng() % set.size()));
        set.erase(it);
      }
    } else if (r < mix.add + mix.remove + mix.birth) {
      ++births;
    } else if (r < total) {
      set.clear();
    }
    if (set.empty()) edges.erase(prefix);
  }
  std::uniform_int_distribution<int> fresh(200, 250);
  for (int i = 0; i < births; ++i) {
    const bool v4 = (rng() % 2) == 0;
    const std::string text = v4 ? "10." + std::to_string(fresh(rng)) + ".0.0/24"
                                : "2001:db8:" + std::to_string(fresh(rng)) + "::/48";
    auto& set = edges[p(text.c_str())];
    const int k = 1 + static_cast<int>(rng() % 4);
    for (int j = 0; j < k; ++j) set.insert(element(rng));
  }
}

core::SetCorpus make_corpus(const EdgeMap& edges) {
  core::SetCorpus corpus;
  for (const auto& [prefix, elements] : edges) {
    for (const DomainId id : elements) corpus.add(prefix, id);
  }
  corpus.finalize();
  return corpus;
}

void expect_byte_identical(const std::vector<SiblingPair>& stream,
                           const std::vector<SiblingPair>& exact, const std::string& context) {
  ASSERT_EQ(stream.size(), exact.size()) << context;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(stream[i].v4, exact[i].v4) << context << " pair " << i;
    EXPECT_EQ(stream[i].v6, exact[i].v6) << context << " pair " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stream[i].similarity),
              std::bit_cast<std::uint64_t>(exact[i].similarity))
        << context << " pair " << i << " similarity " << stream[i].similarity << " vs "
        << exact[i].similarity;
    EXPECT_EQ(stream[i].shared_domains, exact[i].shared_domains) << context << " pair " << i;
    EXPECT_EQ(stream[i].v4_domain_count, exact[i].v4_domain_count) << context << " pair " << i;
    EXPECT_EQ(stream[i].v6_domain_count, exact[i].v6_domain_count) << context << " pair " << i;
  }
}

/// Runs `months` chained applies under `options` and checks the stream
/// pair list against a from-scratch exact run after every month.
void run_identity_campaign(std::uint32_t seed, const EventMix& mix, StreamOptions options,
                           int months = 4) {
  std::mt19937 rng(seed ^ 0x5bd1e995u);
  EdgeMap edges = seeded_edges(seed);
  StreamDetector detector(options);
  {
    const core::SetCorpus corpus = make_corpus(edges);
    detector.init(corpus.detect_index());
    expect_byte_identical(detector.pairs(), core::detect_sibling_prefixes(corpus),
                          std::string(mix.name) + " seed " + std::to_string(seed) + " init");
  }
  for (int month = 1; month <= months; ++month) {
    evolve(edges, rng, mix);
    const core::SetCorpus corpus = make_corpus(edges);
    detector.apply(CorpusDelta::between(detector.index(), corpus.detect_index()));
    expect_byte_identical(detector.pairs(), core::detect_sibling_prefixes(corpus),
                          std::string(mix.name) + " seed " + std::to_string(seed) + " month " +
                              std::to_string(month));
  }
}

TEST(StreamDetector, IncrementalMatchesScratchAcrossSeedsAndThreads) {
  for (const std::uint32_t seed : kSeeds) {
    for (const unsigned threads : kThreadCounts) {
      StreamOptions options;
      options.threads = threads;
      run_identity_campaign(seed, kMixes[0], options);
    }
  }
}

TEST(StreamDetector, IncrementalMatchesScratchAcrossEventMixes) {
  for (const EventMix& mix : kMixes) {
    for (const std::uint32_t seed : {3u, 11u}) {
      StreamOptions options;
      options.threads = 2;
      run_identity_campaign(seed, mix, options);
    }
  }
}

TEST(StreamDetectorFullRescan, ZeroFractionForcesFullRescanAndStaysIdentical) {
  for (const std::uint32_t seed : {7u, 99991u}) {
    StreamOptions options;
    options.threads = 2;
    options.full_rescan_fraction = 0.0;
    std::mt19937 rng(seed ^ 0x5bd1e995u);
    EdgeMap edges = seeded_edges(seed);
    StreamDetector detector(options);
    detector.init(make_corpus(edges).detect_index());
    evolve(edges, rng, kMixes[0]);
    const core::SetCorpus corpus = make_corpus(edges);
    detector.apply(CorpusDelta::between(detector.index(), corpus.detect_index()));
    EXPECT_TRUE(detector.last_stats().full_rescan);
    expect_byte_identical(detector.pairs(), core::detect_sibling_prefixes(corpus),
                          "full-rescan seed " + std::to_string(seed));
  }
}

TEST(StreamDetector, SmallDeltaKeepsDirtySetSparse) {
  EdgeMap edges = seeded_edges(42);
  StreamDetector detector;
  detector.init(make_corpus(edges).detect_index());

  // Touch one element on one prefix: the dirty set must stay well under
  // the universe (this is the whole point of the subsystem).
  auto& set = edges.begin()->second;
  DomainId fresh = 500;  // outside the seeded element range
  set.insert(fresh);
  const core::SetCorpus corpus = make_corpus(edges);
  detector.apply(CorpusDelta::between(detector.index(), corpus.detect_index()));

  const StreamApplyStats& stats = detector.last_stats();
  EXPECT_FALSE(stats.full_rescan);
  EXPECT_EQ(stats.delta_prefixes, 1u);
  EXPECT_EQ(stats.delta_edges, 1u);
  EXPECT_LT(stats.dirty_v4 + stats.dirty_v6, stats.sources_total / 2);
  expect_byte_identical(detector.pairs(), core::detect_sibling_prefixes(corpus), "sparse");
}

TEST(StreamDetector, EmptyDeltaIsANoOp) {
  const EdgeMap edges = seeded_edges(7);
  StreamDetector detector;
  detector.init(make_corpus(edges).detect_index());
  const std::vector<SiblingPair> before = detector.pairs();
  detector.apply(CorpusDelta{});
  EXPECT_EQ(detector.last_stats().dirty_v4 + detector.last_stats().dirty_v6, 0u);
  expect_byte_identical(detector.pairs(), before, "empty delta");
}

TEST(StreamDetector, ApplyBeforeInitThrows) {
  StreamDetector detector;
  EXPECT_FALSE(detector.initialized());
  EXPECT_THROW(detector.apply(CorpusDelta{}), std::logic_error);
}

TEST(StreamDetector, InconsistentDeltaThrowsAndKeepsState) {
  const EdgeMap edges = seeded_edges(1);
  StreamDetector detector;
  detector.init(make_corpus(edges).detect_index());
  const std::vector<SiblingPair> before = detector.pairs();

  CorpusDelta bad;
  bad.v4.push_back({p("10.0.0.0/24"), DomainSet{}, DomainSet{9999}});
  EXPECT_THROW(detector.apply(bad), std::invalid_argument);
  expect_byte_identical(detector.pairs(), before, "after bad delta");

  // The detector still works after the rejected apply.
  EdgeMap next = edges;
  next[p("10.0.0.0/24")].insert(777);
  const core::SetCorpus corpus = make_corpus(next);
  detector.apply(CorpusDelta::between(detector.index(), corpus.detect_index()));
  expect_byte_identical(detector.pairs(), core::detect_sibling_prefixes(corpus), "recovery");
}

TEST(StreamDetector, PairsCurrentGaugeTracksThePairCount) {
  const obs::Gauge gauge = obs::MetricsRegistry::global().gauge("stream.pairs_current");
  const std::int64_t base = gauge.value();
  const EdgeMap one_pair = {{p("10.0.0.0/24"), {1}}, {p("2001:db8::/48"), {1}}};
  EdgeMap two_pairs = one_pair;
  two_pairs[p("10.1.0.0/24")] = {2};
  two_pairs[p("2001:db8:1::/48")] = {2};
  {
    StreamDetector detector;
    detector.init(make_corpus(one_pair).detect_index());
    ASSERT_EQ(detector.pairs().size(), 1u);
    EXPECT_EQ(gauge.value() - base, 1);
    detector.apply(
        CorpusDelta::between(detector.index(), make_corpus(two_pairs).detect_index()));
    ASSERT_EQ(detector.pairs().size(), 2u);
    EXPECT_EQ(gauge.value() - base, 2);
    {
      // A second detector adds its own share; a re-init moves it by the
      // change, not the total.
      StreamDetector second;
      second.init(make_corpus(one_pair).detect_index());
      EXPECT_EQ(gauge.value() - base, 3);
      second.init(make_corpus(two_pairs).detect_index());
      EXPECT_EQ(gauge.value() - base, 4);
    }
    EXPECT_EQ(gauge.value() - base, 2);
  }
  EXPECT_EQ(gauge.value() - base, 0);
}

TEST(StreamDetector, ReinitReplacesState) {
  StreamDetector detector;
  detector.init(make_corpus(seeded_edges(1)).detect_index());
  const core::SetCorpus other = make_corpus(seeded_edges(2));
  detector.init(other.detect_index());
  expect_byte_identical(detector.pairs(), core::detect_sibling_prefixes(other), "reinit");
}

}  // namespace
}  // namespace sp::stream
