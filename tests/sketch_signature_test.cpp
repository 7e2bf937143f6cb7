// Tests for the bottom-k signature layer: estimator exactness on small
// sets, the probabilistic error bound on large sets, shard-parallel build
// determinism, the canonical "SPSK" serialization (round-trip plus a
// battery of corrupt-blob rejections) and LSH candidate correctness.
#include "sketch/signature.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/corpus.h"
#include "core/detect.h"
#include "core/detect_index.h"
#include "core/worker_pool.h"
#include "sketch/hash.h"
#include "sketch/lsh.h"

namespace sp::sketch {
namespace {

using core::DomainId;
using core::DomainSet;

Prefix p(const char* text) { return Prefix::must_parse(text); }

/// Builds a DetectIndex whose v4 side holds `sets` (one /24 per set) and
/// whose v6 side mirrors them (one /48 per set), so both families can be
/// signed from the same fixtures.
core::DetectIndex index_of(const std::vector<DomainSet>& sets) {
  std::vector<core::DetectIndex::Edge> edges;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const Prefix v4 =
        Prefix::of(IPAddress(IPv4Address::from_octets(10, static_cast<std::uint8_t>(i / 256),
                                                      static_cast<std::uint8_t>(i % 256), 0)),
                   24);
    const Prefix v6 = p(("2001:db8:" + std::to_string(i) + "::/48").c_str());
    for (const DomainId element : sets[i]) {
      edges.push_back({v4, element});
      edges.push_back({v6, element});
    }
  }
  return core::DetectIndex::build(std::move(edges));
}

double exact_jaccard(const DomainSet& a, const DomainSet& b) {
  return core::jaccard(a, b);
}

DomainSet make_set(DomainId first, DomainId count) {
  DomainSet set;
  for (DomainId i = 0; i < count; ++i) set.push_back(first + i);
  return set;
}

TEST(Signature, ExactForSmallSets) {
  // Every set ≤ k: estimate_jaccard degenerates to the true Jaccard for
  // every pair, bit-for-bit equal to the exact similarity arithmetic.
  const std::vector<DomainSet> sets = {
      make_set(0, 30),    // 0..29
      make_set(10, 30),   // 10..39 → |∩| = 20, |∪| = 40
      make_set(0, 64),    // exactly k elements
      make_set(100, 5),   // disjoint from the first two
      {},                 // empty set never reaches signing (not in corpus)
      make_set(0, 30),    // identical twin of sets[0]
  };
  const SketchParams params;
  const auto index = index_of(sets);
  const SignatureSet sigs = SignatureSet::build(index.v4, params);
  ASSERT_EQ(sigs.prefix_count(), index.v4.prefix_count());

  // Map dense ids back to fixture indices via set contents.
  for (std::uint32_t a = 0; a < sigs.prefix_count(); ++a) {
    for (std::uint32_t b = 0; b < sigs.prefix_count(); ++b) {
      const auto ea = index.v4.elements_of(a);
      const auto eb = index.v4.elements_of(b);
      const DomainSet sa(ea.begin(), ea.end());
      const DomainSet sb(eb.begin(), eb.end());
      const double est = estimate_jaccard(sigs.of(a), sigs.of(b), params.k);
      EXPECT_DOUBLE_EQ(est, exact_jaccard(sa, sb))
          << "dense pair (" << a << ", " << b << ")";
    }
  }
}

TEST(Signature, ErrorBoundOnLargeSets) {
  // Sets far above k: the bottom-k estimate must stay within the Hoeffding
  // envelope. With k = 64, P(|est - J| ≥ 0.28) ≤ 2·exp(-2·64·0.28²) ≈ 9e-5
  // per pair; the fixture is deterministic, so this either always passes
  // or flags a real estimator regression.
  const SketchParams params;
  std::mt19937 rng(20250808);
  std::vector<DomainSet> sets;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (int trial = 0; trial < 60; ++trial) {
    const DomainId size = 300 + rng() % 1500;
    const DomainId shared = static_cast<DomainId>((rng() % 90 + 5) * size / 100);
    const DomainId base = static_cast<DomainId>(trial) * 100000u;
    // A = [base, base+size); B shares the first `shared` and adds its own.
    DomainSet a = make_set(base, size);
    DomainSet b = make_set(base, shared);
    for (DomainId i = 0; i < size - shared; ++i) b.push_back(base + 50000 + i);
    std::sort(b.begin(), b.end());
    sets.push_back(std::move(a));
    sets.push_back(std::move(b));
    pairs.emplace_back(sets.size() - 2, sets.size() - 1);
  }
  const auto index = index_of(sets);
  const SignatureSet sigs = SignatureSet::build(index.v4, params);

  // Dense ids are a permutation of fixture order; rebuild the mapping.
  // Paired sets share their first elements but never their last (the
  // non-shared tail lives in a disjoint id block), so key on the back.
  std::unordered_map<std::uint64_t, std::uint32_t> dense_by_last;
  for (std::uint32_t dense = 0; dense < sigs.prefix_count(); ++dense) {
    const auto elements = index.v4.elements_of(dense);
    ASSERT_FALSE(elements.empty());
    dense_by_last[elements.back()] = dense;
  }

  double max_error = 0.0;
  double sum_error = 0.0;
  for (const auto& [ia, ib] : pairs) {
    const std::uint32_t da = dense_by_last.at(sets[ia].back());
    const std::uint32_t db = dense_by_last.at(sets[ib].back());
    const double est = estimate_jaccard(sigs.of(da), sigs.of(db), params.k);
    const double exact = exact_jaccard(sets[ia], sets[ib]);
    const double error = std::abs(est - exact);
    max_error = std::max(max_error, error);
    sum_error += error;
    EXPECT_LE(error, 0.28) << "J = " << exact << " est = " << est;
  }
  // Mean |error| ≈ 0.8·σ ≈ 0.05 at k = 64; 0.08 leaves generous slack.
  EXPECT_LE(sum_error / static_cast<double>(pairs.size()), 0.08);
  EXPECT_GT(max_error, 0.0);  // sanity: large sets are genuinely estimated
}

TEST(Signature, ParallelBuildIsByteIdenticalToSerial) {
  std::mt19937 rng(7);
  std::vector<DomainSet> sets;
  for (int i = 0; i < 300; ++i) {
    DomainSet set;
    const int size = 1 + static_cast<int>(rng() % 200);
    for (int j = 0; j < size; ++j) set.push_back(rng() % 5000);
    core::normalize(set);
    sets.push_back(std::move(set));
  }
  const auto index = index_of(sets);
  const SketchParams params;
  const std::string serial = SignatureSet::build(index.v4, params).serialize();
  for (const unsigned threads : {2u, 8u}) {
    core::WorkerPool pool(threads);
    const std::string parallel = SignatureSet::build(index.v4, params, &pool).serialize();
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(Signature, SerializationRoundTripIsCanonical) {
  const std::vector<DomainSet> sets = {make_set(0, 10), make_set(5, 200), make_set(90, 64)};
  const auto index = index_of(sets);
  const SketchParams params{.k = 32, .seed = 0xABCDu};
  for (const auto* side : {&index.v4, &index.v6}) {
    const SignatureSet sigs = SignatureSet::build(*side, params);
    const std::string blob = sigs.serialize();
    std::string error;
    const auto parsed = SignatureSet::deserialize(blob, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->k(), params.k);
    EXPECT_EQ(parsed->seed(), params.seed);
    EXPECT_EQ(parsed->prefix_count(), sigs.prefix_count());
    EXPECT_EQ(parsed->prefixes(), sigs.prefixes());
    // Canonical: re-serializing an accepted blob reproduces it exactly.
    EXPECT_EQ(parsed->serialize(), blob);
  }
}

TEST(Signature, DeserializeRejectsTruncatedAndCorruptBlobs) {
  const std::vector<DomainSet> sets = {make_set(0, 10), make_set(5, 200)};
  const auto index = index_of(sets);
  const std::string blob = SignatureSet::build(index.v4, SketchParams{}).serialize();

  const auto rejects = [](std::string mutated) {
    std::string error;
    const auto parsed = SignatureSet::deserialize(mutated, &error);
    EXPECT_FALSE(parsed.has_value());
    EXPECT_FALSE(error.empty());
    return !parsed.has_value();
  };

  EXPECT_TRUE(rejects(""));                        // empty
  EXPECT_TRUE(rejects(blob.substr(0, 3)));         // shorter than the magic
  // Truncation at every prefix of the header and a sweep of body cuts.
  for (const std::size_t cut : {4u, 8u, 12u, 19u, 23u}) {
    ASSERT_LT(cut, blob.size());
    EXPECT_TRUE(rejects(blob.substr(0, cut))) << "cut at " << cut;
  }
  for (std::size_t cut = 24; cut < blob.size(); cut += 7) {
    EXPECT_TRUE(rejects(blob.substr(0, cut))) << "cut at " << cut;
  }
  EXPECT_TRUE(rejects(blob + 'x'));                // trailing garbage

  {  // wrong magic
    std::string mutated = blob;
    mutated[0] = 'X';
    EXPECT_TRUE(rejects(mutated));
  }
  {  // unsupported version
    std::string mutated = blob;
    mutated[4] = 9;
    EXPECT_TRUE(rejects(mutated));
  }
  {  // k = 0 out of range (offset 8: little-endian u32 k)
    std::string mutated = blob;
    mutated[8] = 0;
    EXPECT_TRUE(rejects(mutated));
  }
  {  // absurd prefix count (offset 20: u32 count) → allocation bound
    std::string mutated = blob;
    mutated[20] = '\xff';
    mutated[21] = '\xff';
    mutated[22] = '\xff';
    mutated[23] = '\x7f';
    EXPECT_TRUE(rejects(mutated));
  }
  {  // invalid family byte on the first record (offset 24)
    std::string mutated = blob;
    mutated[24] = 5;
    EXPECT_TRUE(rejects(mutated));
  }
  {  // prefix length beyond the family maximum (offset 25 for the v4 record)
    std::string mutated = blob;
    mutated[25] = 33;
    EXPECT_TRUE(rejects(mutated));
  }
  {  // non-canonical prefix: set a host bit below the /24 boundary
    std::string mutated = blob;
    mutated[29] |= 1;  // last address octet of the first /24 record
    EXPECT_TRUE(rejects(mutated));
  }
}

TEST(Signature, DeserializeRejectsMismatchedSeedMergesAtEstimateTime) {
  // Signatures built under different seeds produce different hashes for
  // the same set — the documented reason blobs carry the seed.
  const std::vector<DomainSet> sets = {make_set(0, 40)};
  const auto index = index_of(sets);
  const SignatureSet a = SignatureSet::build(index.v4, SketchParams{.seed = 1});
  const SignatureSet b = SignatureSet::build(index.v4, SketchParams{.seed = 2});
  ASSERT_EQ(a.prefix_count(), 1u);
  ASSERT_EQ(b.prefix_count(), 1u);
  EXPECT_NE(a.serialize(), b.serialize());
  const auto ha = a.of(0).hashes;
  const auto hb = b.of(0).hashes;
  EXPECT_FALSE(std::equal(ha.begin(), ha.end(), hb.begin(), hb.end()));
}

TEST(Lsh, CandidatesMatchBruteForceSharedHashes) {
  std::mt19937 rng(99);
  std::vector<DomainSet> sets;
  for (int i = 0; i < 120; ++i) {
    DomainSet set;
    const int size = 1 + static_cast<int>(rng() % 150);
    for (int j = 0; j < size; ++j) set.push_back(rng() % 2000);
    core::normalize(set);
    sets.push_back(std::move(set));
  }
  const auto index = index_of(sets);
  const SketchParams params;
  const SignatureSet sigs = SignatureSet::build(index.v4, params);
  const LshIndex lsh = LshIndex::build(sigs);
  EXPECT_GT(lsh.bucket_entries(), 0u);

  std::vector<std::uint32_t> candidates;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> scored;
  for (std::uint32_t query = 0; query < sigs.prefix_count(); ++query) {
    lsh.candidates_of(sigs.of(query), candidates);
    lsh.candidates_of(sigs.of(query), scored);
    // Sorted and duplicate-free, and the scored overload lists the same
    // candidates in the same order.
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    EXPECT_TRUE(std::adjacent_find(candidates.begin(), candidates.end()) == candidates.end());
    ASSERT_EQ(scored.size(), candidates.size());
    for (std::size_t i = 0; i < scored.size(); ++i) {
      EXPECT_EQ(scored[i].first, candidates[i]);
    }
    // Exactly the owners sharing at least one stored hash, with the hit
    // count equal to the stored-hash intersection size.
    for (std::uint32_t other = 0; other < sigs.prefix_count(); ++other) {
      const auto qa = sigs.of(query).hashes;
      const auto qb = sigs.of(other).hashes;
      std::vector<std::uint64_t> shared;
      std::set_intersection(qa.begin(), qa.end(), qb.begin(), qb.end(),
                            std::back_inserter(shared));
      const auto it = std::lower_bound(
          scored.begin(), scored.end(), other,
          [](const auto& entry, std::uint32_t value) { return entry.first < value; });
      const bool listed = it != scored.end() && it->first == other;
      EXPECT_EQ(listed, !shared.empty()) << "query " << query << " other " << other;
      if (listed) {
        EXPECT_EQ(it->second, shared.size()) << "query " << query << " other " << other;
      }
    }
  }
}

}  // namespace
}  // namespace sp::sketch
