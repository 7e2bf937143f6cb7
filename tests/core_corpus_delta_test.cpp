// CorpusDelta / DetectIndexOverlay contract: `between` diffs two indexes
// into a canonical edge-level delta, and `apply` replays it so the
// overlay's index deep-equals DetectIndex::build over the post-delta
// sets — births, deaths and edits included. Inconsistent deltas throw
// std::invalid_argument and leave the index untouched.
#include "core/corpus_delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/detect_overlay.h"

namespace sp::core {
namespace {

Prefix p(const char* text) { return Prefix::must_parse(text); }

/// The model corpus the tests evolve: prefix → element set, both
/// families in one ordered map (Prefix carries its family).
using EdgeMap = std::map<Prefix, std::set<DomainId>>;

DetectIndex build_index(const EdgeMap& edges) {
  std::vector<DetectIndex::Edge> flat;
  for (const auto& [prefix, elements] : edges) {
    for (const DomainId element : elements) flat.push_back({prefix, element});
  }
  return DetectIndex::build(std::move(flat));
}

void expect_side_equal(const DetectIndex::Side& a, const DetectIndex::Side& b,
                       const char* label) {
  EXPECT_EQ(a.prefixes, b.prefixes) << label;
  EXPECT_EQ(a.set_offsets, b.set_offsets) << label;
  EXPECT_EQ(a.set_elements, b.set_elements) << label;
  EXPECT_EQ(a.posting_offsets, b.posting_offsets) << label;
  EXPECT_EQ(a.postings, b.postings) << label;
}

void expect_index_equal(const DetectIndex& a, const DetectIndex& b) {
  expect_side_equal(a.v4, b.v4, "v4 side");
  expect_side_equal(a.v6, b.v6, "v6 side");
}

EdgeMap seeded_edges(std::uint32_t seed) {
  std::mt19937 rng(seed);
  EdgeMap edges;
  const int v4_count = 20 + static_cast<int>(rng() % 15);
  const int v6_count = 20 + static_cast<int>(rng() % 15);
  std::uniform_int_distribution<DomainId> element(0, 99);
  for (int i = 0; i < v4_count; ++i) {
    auto& set = edges[p(("10." + std::to_string(i) + ".0.0/24").c_str())];
    const int k = 1 + static_cast<int>(rng() % 6);
    for (int j = 0; j < k; ++j) set.insert(element(rng));
  }
  for (int i = 0; i < v6_count; ++i) {
    auto& set = edges[p(("2001:db8:" + std::to_string(i) + "::/48").c_str())];
    const int k = 1 + static_cast<int>(rng() % 6);
    for (int j = 0; j < k; ++j) set.insert(element(rng));
  }
  return edges;
}

/// One month of churn: element adds/removes on existing prefixes, a few
/// births, a few deaths.
void evolve(EdgeMap& edges, std::mt19937& rng) {
  std::uniform_int_distribution<DomainId> element(0, 99);
  std::vector<Prefix> prefixes;
  for (const auto& [prefix, _] : edges) prefixes.push_back(prefix);
  for (const Prefix& prefix : prefixes) {
    const int roll = static_cast<int>(rng() % 10);
    auto& set = edges[prefix];
    if (roll < 4) set.insert(element(rng));
    if (roll >= 3 && roll < 6 && !set.empty()) {
      auto it = set.begin();
      std::advance(it, static_cast<long>(rng() % set.size()));
      set.erase(it);
    }
    if (roll == 9) set.clear();  // prefix death
    if (set.empty()) edges.erase(prefix);
  }
  for (int i = 0; i < 3; ++i) {  // births on fresh prefix numbers
    const std::string v4 = "10." + std::to_string(200 + static_cast<int>(rng() % 40)) + ".0.0/24";
    const std::string v6 = "2001:db8:" + std::to_string(200 + rng() % 40) + "::/48";
    edges[p(v4.c_str())].insert(element(rng));
    edges[p(v6.c_str())].insert(element(rng));
  }
}

TEST(CorpusDelta, BetweenIdenticalIndexesIsEmpty) {
  const DetectIndex index = build_index(seeded_edges(7));
  const CorpusDelta delta = CorpusDelta::between(index, index);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.prefix_count(), 0u);
  EXPECT_EQ(delta.edge_count(), 0u);
}

TEST(CorpusDelta, BetweenThenApplyReproducesNextIndexAcrossSeeds) {
  for (const std::uint32_t seed : {1u, 7u, 42u, 1337u, 99991u}) {
    std::mt19937 rng(seed ^ 0x9e3779b9u);
    EdgeMap edges = seeded_edges(seed);
    DetectIndexOverlay overlay(build_index(edges));
    for (int month = 0; month < 4; ++month) {
      evolve(edges, rng);
      const DetectIndex next = build_index(edges);
      const CorpusDelta delta = CorpusDelta::between(overlay.index(), next);
      overlay.apply(delta);
      expect_index_equal(overlay.index(), next);
    }
  }
}

TEST(CorpusDelta, DeltasAreCanonical) {
  std::mt19937 rng(42);
  EdgeMap edges = seeded_edges(42);
  const DetectIndex base = build_index(edges);
  evolve(edges, rng);
  const CorpusDelta delta = CorpusDelta::between(base, build_index(edges));
  ASSERT_FALSE(delta.empty());
  for (const Family family : {Family::v4, Family::v6}) {
    const auto& side = delta.side(family);
    for (std::size_t i = 0; i < side.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(side[i - 1].prefix, side[i].prefix);
      }
      EXPECT_EQ(side[i].prefix.family(), family);
      EXPECT_TRUE(!side[i].added.empty() || !side[i].removed.empty());
      EXPECT_TRUE(std::is_sorted(side[i].added.begin(), side[i].added.end()));
      EXPECT_TRUE(std::is_sorted(side[i].removed.begin(), side[i].removed.end()));
      DomainSet both = set_intersection(side[i].added, side[i].removed);
      EXPECT_TRUE(both.empty()) << side[i].prefix.to_string();
    }
  }
}

TEST(CorpusDelta, BirthIsAddsAgainstAbsentRow) {
  EdgeMap base_edges = {{p("10.0.0.0/24"), {1, 2}}, {p("2001:db8::/48"), {1, 2}}};
  EdgeMap next_edges = base_edges;
  next_edges[p("10.1.0.0/24")] = {2, 3};
  const DetectIndex base = build_index(base_edges);
  const DetectIndex next = build_index(next_edges);
  const CorpusDelta delta = CorpusDelta::between(base, next);
  ASSERT_EQ(delta.v4.size(), 1u);
  EXPECT_EQ(delta.v4[0].prefix, p("10.1.0.0/24"));
  EXPECT_EQ(delta.v4[0].added, (DomainSet{2, 3}));
  EXPECT_TRUE(delta.v4[0].removed.empty());
  EXPECT_TRUE(delta.v6.empty());

  DetectIndexOverlay overlay(base);
  overlay.apply(delta);
  expect_index_equal(overlay.index(), next);
}

TEST(CorpusDelta, DeathEmptiesTheSet) {
  EdgeMap base_edges = {{p("10.0.0.0/24"), {1, 2}},
                        {p("10.1.0.0/24"), {2}},
                        {p("2001:db8::/48"), {1, 2}}};
  EdgeMap next_edges = base_edges;
  next_edges.erase(p("10.1.0.0/24"));
  const DetectIndex base = build_index(base_edges);
  const DetectIndex next = build_index(next_edges);
  const CorpusDelta delta = CorpusDelta::between(base, next);
  ASSERT_EQ(delta.v4.size(), 1u);
  EXPECT_EQ(delta.v4[0].prefix, p("10.1.0.0/24"));
  EXPECT_TRUE(delta.v4[0].added.empty());
  EXPECT_EQ(delta.v4[0].removed, (DomainSet{2}));
  EXPECT_EQ(delta.edge_count(), 1u);

  DetectIndexOverlay overlay(base);
  overlay.apply(delta);
  expect_index_equal(overlay.index(), next);
  EXPECT_EQ(overlay.index().v4.prefix_count(), 1u);
}

TEST(CorpusDelta, EdgeCountSumsBothDirections) {
  CorpusDelta delta;
  delta.v4.push_back({p("10.0.0.0/24"), DomainSet{1, 2}, DomainSet{3}});
  delta.v6.push_back({p("2001:db8::/48"), DomainSet{}, DomainSet{4, 5}});
  EXPECT_EQ(delta.prefix_count(), 2u);
  EXPECT_EQ(delta.edge_count(), 5u);
}

TEST(CorpusDelta, InconsistentDeltaThrowsAndLeavesIndexUnchanged) {
  const EdgeMap edges = {{p("10.0.0.0/24"), {1, 2}}, {p("2001:db8::/48"), {1}}};
  const DetectIndex base = build_index(edges);

  // Removal of an element the prefix does not hold.
  {
    DetectIndexOverlay overlay(base);
    CorpusDelta bad;
    bad.v4.push_back({p("10.0.0.0/24"), DomainSet{}, DomainSet{9}});
    EXPECT_THROW(overlay.apply(bad), std::invalid_argument);
    expect_index_equal(overlay.index(), base);
  }
  // Addition of an element already present.
  {
    DetectIndexOverlay overlay(base);
    CorpusDelta bad;
    bad.v4.push_back({p("10.0.0.0/24"), DomainSet{1}, DomainSet{}});
    EXPECT_THROW(overlay.apply(bad), std::invalid_argument);
    expect_index_equal(overlay.index(), base);
  }
  // Removal from a prefix that does not exist.
  {
    DetectIndexOverlay overlay(base);
    CorpusDelta bad;
    bad.v4.push_back({p("10.9.0.0/24"), DomainSet{}, DomainSet{1}});
    EXPECT_THROW(overlay.apply(bad), std::invalid_argument);
    expect_index_equal(overlay.index(), base);
  }
}

TEST(CorpusDelta, ApplyingSameDeltaTwiceThrows) {
  EdgeMap edges = {{p("10.0.0.0/24"), {1}}, {p("2001:db8::/48"), {1}}};
  const DetectIndex base = build_index(edges);
  EdgeMap next_edges = edges;
  next_edges[p("10.0.0.0/24")] = {2};
  const CorpusDelta delta = CorpusDelta::between(base, build_index(next_edges));

  DetectIndexOverlay overlay(base);
  overlay.apply(delta);
  const DetectIndex after = overlay.index();
  EXPECT_THROW(overlay.apply(delta), std::invalid_argument);
  expect_index_equal(overlay.index(), after);
}

}  // namespace
}  // namespace sp::core
