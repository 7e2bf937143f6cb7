// Tests for LookupEngine: the full publish path (write_sibling_list CSV ->
// sibdb conversion -> mmap load -> engine) checked against a linear-scan
// oracle for every stored prefix and for random addresses inside and
// outside the covered space, across random seeds.
#include "serve/lookup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/sibling_list_io.h"
#include "core/worker_pool.h"
#include "serve/sibdb.h"

namespace sp::serve {
namespace {

Prefix p(const char* text) { return Prefix::must_parse(text); }

core::SiblingPair make_pair(const Prefix& v4, const Prefix& v6, double similarity,
                            std::uint32_t shared = 1) {
  core::SiblingPair pair;
  pair.v4 = v4;
  pair.v6 = v6;
  pair.similarity = similarity;
  pair.shared_domains = shared;
  pair.v4_domain_count = shared + 1;
  pair.v6_domain_count = shared + 2;
  return pair;
}

// The semantics the engine promises: the most specific stored prefix
// containing the query (an exact match qualifies; an address is its host
// prefix); among records sharing that prefix, the highest similarity,
// breaking ties by file order.
std::optional<SiblingAnswer> oracle(const SiblingDB& db, const Prefix& query) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < db.size(); ++i) {
    const Prefix stored = query.family() == Family::v4 ? db.v4_prefix(i) : db.v6_prefix(i);
    if (stored.family() != query.family() || !stored.contains(query)) continue;
    if (!best) {
      best = i;
      continue;
    }
    const Prefix current =
        query.family() == Family::v4 ? db.v4_prefix(*best) : db.v6_prefix(*best);
    if (stored.length() > current.length() ||
        (stored.length() == current.length() && db.similarity(i) > db.similarity(*best))) {
      best = i;
    }
  }
  if (!best) return std::nullopt;
  const std::size_t i = *best;
  SiblingAnswer answer;
  if (query.family() == Family::v4) {
    answer.matched = db.v4_prefix(i);
    answer.sibling = db.v6_prefix(i);
  } else {
    answer.matched = db.v6_prefix(i);
    answer.sibling = db.v4_prefix(i);
  }
  answer.similarity = db.similarity(i);
  answer.shared_domains = db.shared_domains(i);
  answer.v4_domain_count = db.v4_domain_count(i);
  answer.v6_domain_count = db.v6_domain_count(i);
  return answer;
}

TEST(ServeLookup, BasicBothFamilies) {
  std::vector<core::SiblingPair> pairs = {
      make_pair(p("20.1.0.0/16"), p("2620:100::/32"), 0.75),
      make_pair(p("20.1.2.0/24"), p("2620:100:1::/48"), 1.0),
  };
  const std::string path = ::testing::TempDir() + "/sp_lookup_basic.sibdb";
  ASSERT_TRUE(write_sibdb(path, pairs));
  const auto db = SiblingDB::load(path);
  ASSERT_TRUE(db.has_value());
  const LookupEngine engine(*db);
  EXPECT_EQ(engine.v4_prefix_count(), 2u);
  EXPECT_EQ(engine.v6_prefix_count(), 2u);

  const auto hit = engine.query(IPAddress(*IPv4Address::from_string("20.1.2.3")));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->matched, p("20.1.2.0/24"));
  EXPECT_EQ(hit->sibling, p("2620:100:1::/48"));
  EXPECT_EQ(hit->similarity, 1.0);

  const auto v6_hit = engine.query(*IPAddress::from_string("2620:100:1::42"));
  ASSERT_TRUE(v6_hit.has_value());
  EXPECT_EQ(v6_hit->matched, p("2620:100:1::/48"));
  EXPECT_EQ(v6_hit->sibling, p("20.1.2.0/24"));

  const auto v6_shallow = engine.query(*IPAddress::from_string("2620:100:ffff::1"));
  ASSERT_TRUE(v6_shallow.has_value());
  EXPECT_EQ(v6_shallow->matched, p("2620:100::/32"));

  EXPECT_FALSE(engine.query(IPAddress(*IPv4Address::from_string("21.0.0.1"))).has_value());
  EXPECT_FALSE(engine.query(*IPAddress::from_string("2001:db8::1")).has_value());
}

TEST(ServeLookup, PrefixQueriesMatchMostSpecificContainer) {
  std::vector<core::SiblingPair> pairs = {
      make_pair(p("20.0.0.0/8"), p("2620::/24"), 0.25),
      make_pair(p("20.1.0.0/16"), p("2620:100::/32"), 0.75),
  };
  const std::string path = ::testing::TempDir() + "/sp_lookup_prefix.sibdb";
  ASSERT_TRUE(write_sibdb(path, pairs));
  const auto db = SiblingDB::load(path);
  ASSERT_TRUE(db.has_value());
  const LookupEngine engine(*db);

  // Exact match.
  auto hit = engine.query(p("20.1.0.0/16"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->matched, p("20.1.0.0/16"));
  // More specific query falls into the /16.
  hit = engine.query(p("20.1.2.0/24"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->matched, p("20.1.0.0/16"));
  // Less specific than anything stored: only the /8 contains a /7? No —
  // a /7 contains the /8, not vice versa, so it must miss.
  EXPECT_FALSE(engine.query(p("20.0.0.0/7")).has_value());
  // v6 side works too.
  hit = engine.query(p("2620:100:1::/48"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->matched, p("2620:100::/32"));
}

TEST(ServeLookup, DuplicatePrefixAnswersHighestSimilarityFirstInFile) {
  std::vector<core::SiblingPair> pairs = {
      make_pair(p("20.1.0.0/16"), p("2620:100::/32"), 0.5, 1),
      make_pair(p("20.1.0.0/16"), p("2620:200::/32"), 0.9, 2),  // winner
      make_pair(p("20.1.0.0/16"), p("2620:300::/32"), 0.9, 3),  // tie, later in file
      make_pair(p("20.1.0.0/16"), p("2620:400::/32"), 0.7, 4),
  };
  const std::string path = ::testing::TempDir() + "/sp_lookup_dup.sibdb";
  ASSERT_TRUE(write_sibdb(path, pairs));
  const auto db = SiblingDB::load(path);
  ASSERT_TRUE(db.has_value());
  const LookupEngine engine(*db);
  EXPECT_EQ(engine.v4_prefix_count(), 1u);

  const auto hit = engine.query(IPAddress(*IPv4Address::from_string("20.1.2.3")));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->sibling, p("2620:200::/32"));
  EXPECT_EQ(hit->similarity, 0.9);
  EXPECT_EQ(hit->shared_domains, 2u);
}

// The acceptance property: CSV -> sibdb -> mmap -> engine agrees with the
// linear-scan oracle over the loaded records, for address and prefix
// queries alike, probing every stored prefix and random keys inside and
// outside the covered space.
class ServeLookupProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ServeLookupProperty, FullPathMatchesLinearScanOracle) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::uint32_t> word;
  std::uniform_int_distribution<unsigned> v4_len(8, 32);
  std::uniform_int_distribution<unsigned> v6_len(24, 64);
  std::uniform_real_distribution<double> sim(0.0, 1.0);

  // Cluster v4 into 20.0.0.0/10 and v6 into 2620::/16 so overlaps happen.
  std::vector<core::SiblingPair> pairs;
  for (int i = 0; i < 300; ++i) {
    const std::uint32_t v4_bits = 0x14000000u | (word(rng) & 0x003FFFFFu);
    IPv6Address::Bytes v6_bytes{};
    v6_bytes[0] = 0x26;
    v6_bytes[1] = 0x20;
    for (int b = 2; b < 9; ++b) v6_bytes[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(word(rng));
    pairs.push_back(make_pair(
        Prefix::of(IPAddress(IPv4Address(v4_bits)), v4_len(rng)),
        Prefix::of(IPAddress(IPv6Address(v6_bytes)), v6_len(rng)), sim(rng),
        1 + (word(rng) % 8)));
  }
  // Edge records: host routes on both families and, on odd seeds, the
  // default routes (even seeds keep misses in play).
  pairs.push_back(make_pair(p("20.1.2.3/32"), p("2620:0:1::3/128"), 0.5));
  pairs.push_back(make_pair(p("20.40.0.7/32"), p("2620:ffff::7/128"), 0.25));
  if (GetParam() % 2 == 1) pairs.push_back(make_pair(p("0.0.0.0/0"), p("::/0"), 0.125));

  const std::string seed_tag = std::to_string(GetParam());
  const std::string csv_path = ::testing::TempDir() + "/sp_lookup_prop_" + seed_tag + ".csv";
  const std::string db_path = ::testing::TempDir() + "/sp_lookup_prop_" + seed_tag + ".sibdb";
  ASSERT_TRUE(core::write_sibling_list(csv_path, pairs));
  std::string error;
  ASSERT_TRUE(convert_sibling_list(csv_path, db_path, &error)) << error;
  const auto db = SiblingDB::load(db_path, &error);
  ASSERT_TRUE(db.has_value()) << error;
  ASSERT_EQ(db->size(), pairs.size());

  const LookupEngine engine(*db);
  core::WorkerPool pool(2);

  // Probe set: every stored prefix's network address (both families), plus
  // random addresses inside the clusters and far outside them.
  std::vector<IPAddress> probes;
  for (std::size_t i = 0; i < db->size(); ++i) {
    probes.push_back(db->v4_prefix(i).address());
    probes.push_back(db->v6_prefix(i).address());
  }
  for (int i = 0; i < 2000; ++i) {
    probes.emplace_back(IPv4Address(0x14000000u | (word(rng) & 0x003FFFFFu)));
    probes.emplace_back(IPv4Address(word(rng)));  // mostly outside 20/10
    IPv6Address::Bytes v6_bytes{};
    for (auto& b : v6_bytes) b = static_cast<std::uint8_t>(word(rng));
    v6_bytes[0] = 0x26;
    v6_bytes[1] = 0x20;
    probes.emplace_back(IPv6Address(v6_bytes));
  }

  const auto serial = engine.query_many(probes);
  const auto pooled = engine.query_many(probes, &pool);
  ASSERT_EQ(serial.size(), probes.size());
  ASSERT_EQ(pooled.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto expected = oracle(*db, Prefix::host(probes[i]));
    ASSERT_EQ(serial[i], expected) << probes[i].to_string();
    ASSERT_EQ(pooled[i], serial[i]) << probes[i].to_string();
    ASSERT_EQ(engine.query(probes[i]), expected) << probes[i].to_string();
  }

  // Prefix probes: every stored prefix (exact matches), plus random
  // prefixes of every length inside the clusters and anywhere at all.
  std::vector<Prefix> prefix_probes;
  for (std::size_t i = 0; i < db->size(); ++i) {
    prefix_probes.push_back(db->v4_prefix(i));
    prefix_probes.push_back(db->v6_prefix(i));
  }
  std::uniform_int_distribution<unsigned> any_v4_len(0, 32);
  std::uniform_int_distribution<unsigned> any_v6_len(0, 128);
  for (int i = 0; i < 1000; ++i) {
    prefix_probes.push_back(Prefix::of(
        IPAddress(IPv4Address(0x14000000u | (word(rng) & 0x003FFFFFu))), any_v4_len(rng)));
    prefix_probes.push_back(Prefix::of(IPAddress(IPv4Address(word(rng))), any_v4_len(rng)));
    IPv6Address::Bytes inside{};
    IPv6Address::Bytes anywhere{};
    for (auto& b : inside) b = static_cast<std::uint8_t>(word(rng));
    for (auto& b : anywhere) b = static_cast<std::uint8_t>(word(rng));
    inside[0] = 0x26;
    inside[1] = 0x20;
    prefix_probes.push_back(Prefix::of(IPAddress(IPv6Address(inside)), any_v6_len(rng)));
    prefix_probes.push_back(Prefix::of(IPAddress(IPv6Address(anywhere)), any_v6_len(rng)));
  }
  for (const Prefix& probe : prefix_probes) {
    ASSERT_EQ(engine.query(probe), oracle(*db, probe)) << probe.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeLookupProperty, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace sp::serve
