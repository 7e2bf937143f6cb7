// Sibling prefix detection: steps 3-4 of the paper's methodology.
//
// For every prefix, candidate counterpart prefixes are the ones sharing at
// least one element (found via the element→prefix inverted index); the
// similarity metric is evaluated for each candidate and the best match
// kept, with ties preserved. The final pair list is the union of the best
// matches of both directions, deduplicated and sorted.
//
// Detection is generic over the corpus (paper section 3.7: any input that
// maps prefixes to sets works): every engine reads a DetectIndex, which
// DualStackCorpus builds from DNS domain sets and SetCorpus from arbitrary
// (prefix, element) observations such as responsive ports, rDNS names or
// alias identifiers.
#pragma once

#include <algorithm>
#include <compare>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/corpus.h"
#include "core/detect_index.h"
#include "core/similarity.h"

namespace sp::core {

struct SiblingPair {
  Prefix v4;
  Prefix v6;
  double similarity = 0.0;
  std::uint32_t shared_domains = 0;
  std::uint32_t v4_domain_count = 0;
  std::uint32_t v6_domain_count = 0;

  /// Ordering and equality are by prefix pair only; similarity is derived.
  [[nodiscard]] friend std::strong_ordering operator<=>(const SiblingPair& a,
                                                        const SiblingPair& b) noexcept {
    if (const auto cmp = a.v4 <=> b.v4; cmp != 0) return cmp;
    return a.v6 <=> b.v6;
  }
  [[nodiscard]] friend bool operator==(const SiblingPair& a, const SiblingPair& b) noexcept {
    return a.v4 == b.v4 && a.v6 == b.v6;
  }
};

/// Run counters of one detection pass, for the bench suite and capacity
/// planning. The counting fields are deterministic (identical for every
/// thread count); the wall times are not.
struct DetectStats {
  std::uint64_t prefixes_scanned = 0;      // source prefixes examined, both directions
  std::uint64_t candidates_evaluated = 0;  // similarity evaluations
  std::uint64_t pairs_emitted = 0;         // best/tie pairs before cross-direction dedup
  double v4_direction_ms = 0.0;            // wall time, v4→v6 direction
  double v6_direction_ms = 0.0;            // wall time, v6→v4 direction
  double merge_ms = 0.0;                   // final sort + dedup
  unsigned threads_used = 0;

  /// Adds `other`'s counters; wall times and threads_used are left alone.
  void add_counters(const DetectStats& other) noexcept {
    prefixes_scanned += other.prefixes_scanned;
    candidates_evaluated += other.candidates_evaluated;
    pairs_emitted += other.pairs_emitted;
  }
};

struct DetectOptions {
  Metric metric = Metric::Jaccard;
  /// Worker threads for the sharded detection driver; 0 picks the
  /// hardware concurrency. Output is byte-identical for every thread count.
  unsigned threads = 0;
  /// When non-null, receives the run's counters.
  DetectStats* stats = nullptr;
};

/// A generic prefix→element-set corpus (the "other inputs" of section
/// 3.7). Elements are opaque 32-bit ids — ports, interned rDNS names,
/// alias ids — below DetectIndex::kElementLimit; the index allocates one
/// posting offset per id up to the largest, so ids should be dense. Call
/// finalize() once after the last add().
class SetCorpus {
 public:
  /// Records one (prefix, element) observation. Throws std::out_of_range
  /// for an element at or above DetectIndex::kElementLimit, and
  /// std::logic_error once finalize() has run — the flat detection index
  /// would silently go stale otherwise.
  void add(const Prefix& prefix, DomainId element);

  /// Builds the flat DetectIndex from the recorded edges (duplicates
  /// collapse) and releases them. Idempotent; add() must not be called
  /// afterwards.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// The flat detection index; throws std::logic_error before finalize().
  [[nodiscard]] const DetectIndex& detect_index() const;

  /// Sorted element set of one prefix; empty when the prefix is unknown
  /// or finalize() has not run.
  [[nodiscard]] DomainSpan domains_of(const Prefix& prefix) const noexcept;

 private:
  std::vector<DetectIndex::Edge> edges_;
  DetectIndex index_;
  bool finalized_ = false;
};

namespace detail {

inline constexpr double kTieEpsilon = 1e-12;

// Emits the best-match pairs for every prefix of `from` family: hash-map
// candidate counting over the postings, then two passes over the
// candidates (the best value, then every tie with it).
inline void detect_direction(const DetectIndex& index, Metric metric, Family from,
                             std::vector<SiblingPair>& out) {
  const DetectIndex::Side& from_side = index.side(from);
  const DetectIndex::Side& to_side = index.side(from == Family::v4 ? Family::v6 : Family::v4);

  for (std::uint32_t source = 0; source < from_side.prefix_count(); ++source) {
    const Prefix& prefix = from_side.prefixes[source];
    const std::size_t size = from_side.set_size(source);
    // Candidate counterpart prefixes share at least one element.
    std::unordered_map<std::uint32_t, std::uint32_t> shared_counts;
    for (const DomainId id : from_side.elements_of(source)) {
      for (const std::uint32_t candidate : to_side.postings_of(id)) {
        ++shared_counts[candidate];
      }
    }
    if (shared_counts.empty()) continue;

    double best = 0.0;
    for (const auto& [candidate, shared] : shared_counts) {
      best = std::max(best, similarity_from_sizes(metric, shared, size,
                                                  to_side.set_size(candidate)));
    }
    if (best <= 0.0) continue;

    for (const auto& [candidate, shared] : shared_counts) {
      const std::size_t candidate_size = to_side.set_size(candidate);
      const double value = similarity_from_sizes(metric, shared, size, candidate_size);
      if (value + kTieEpsilon < best) continue;
      const Prefix& counterpart = to_side.prefixes[candidate];
      SiblingPair pair;
      pair.v4 = from == Family::v4 ? prefix : counterpart;
      pair.v6 = from == Family::v4 ? counterpart : prefix;
      pair.similarity = value;
      pair.shared_domains = shared;
      pair.v4_domain_count =
          static_cast<std::uint32_t>(from == Family::v4 ? size : candidate_size);
      pair.v6_domain_count =
          static_cast<std::uint32_t>(from == Family::v4 ? candidate_size : size);
      out.push_back(pair);
    }
  }
}

/// The global merge every engine ends with: sort by (v4, v6) and drop
/// the cross-direction duplicates (both directions emit identical bytes
/// for a shared pair).
inline void sort_unique(std::vector<SiblingPair>& pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
}

[[nodiscard]] inline std::vector<SiblingPair> detect_over(const DetectIndex& index,
                                                          const DetectOptions& options) {
  std::vector<SiblingPair> pairs;
  detect_direction(index, options.metric, Family::v4, pairs);
  detect_direction(index, options.metric, Family::v6, pairs);
  sort_unique(pairs);
  return pairs;
}

}  // namespace detail

/// Detects sibling prefix pairs over the DNS corpus. Output is sorted by
/// (v4, v6) and duplicate-free. Runs the sharded scan driver
/// (detect_scan.h) over the corpus's flat index on `options.threads`
/// workers; the result is byte-identical to the serial reference for
/// every thread count.
[[nodiscard]] std::vector<SiblingPair> detect_sibling_prefixes(const DualStackCorpus& corpus,
                                                               const DetectOptions& options = {});

/// Detection over a generic prefix→set corpus (finalize() must have run).
[[nodiscard]] std::vector<SiblingPair> detect_sibling_prefixes(const SetCorpus& corpus,
                                                               const DetectOptions& options = {});

/// The single-threaded reference implementation (detail::detect_over):
/// hash-map candidate counting and two similarity passes over the same
/// DetectIndex the sharded driver scans. Kept as the oracle for the
/// serial-vs-sharded equivalence harness and as the bench baseline;
/// `options.threads` and `options.stats` are ignored. The index build
/// itself is guarded by the reference corpus test.
[[nodiscard]] std::vector<SiblingPair> detect_sibling_prefixes_serial(
    const DualStackCorpus& corpus, const DetectOptions& options = {});
[[nodiscard]] std::vector<SiblingPair> detect_sibling_prefixes_serial(
    const SetCorpus& corpus, const DetectOptions& options = {});

/// Distinct v4 / v6 prefixes appearing in a pair list.
[[nodiscard]] std::size_t unique_prefix_count(std::span<const SiblingPair> pairs,
                                              Family family);

/// Similarity values of all pairs (for CDFs).
[[nodiscard]] std::vector<double> similarity_values(std::span<const SiblingPair> pairs);

}  // namespace sp::core
