// Sibling prefix detection: steps 3-4 of the paper's methodology.
//
// For every prefix, candidate counterpart prefixes are the ones sharing at
// least one element (found via the element→prefix inverted index); the
// similarity metric is evaluated for each candidate and the best match
// kept, with ties preserved. The final pair list is the union of the best
// matches of both directions, deduplicated and sorted.
//
// Detection is generic over the corpus (paper section 3.7: any input that
// maps prefixes to sets works): DualStackCorpus provides domain sets from
// DNS; SetCorpus accepts arbitrary (prefix, element) observations such as
// responsive ports, rDNS names or alias identifiers.
#pragma once

#include <algorithm>
#include <compare>
#include <span>
#include <unordered_map>
#include <unordered_set>
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
/// thread count); the wall times are not. The sketch engine
/// (sp::sketch) fills the sketch block too; the exact engine leaves it
/// zero.
struct DetectStats {
  std::uint64_t prefixes_scanned = 0;      // source prefixes examined, both directions
  std::uint64_t candidates_evaluated = 0;  // similarity evaluations
  std::uint64_t pairs_emitted = 0;         // best/tie pairs before cross-direction dedup
  // Sketch engine: how each source was routed and what the filter cost.
  std::uint64_t sources_fallback = 0;        // sources routed to the exact scan
  std::uint64_t fallback_no_candidates = 0;  // ... because the LSH found none
  std::uint64_t fallback_low_estimate = 0;   // ... because the best estimate < floor
  std::uint64_t fallback_low_exact = 0;      // ... because the verified best < floor
  std::uint64_t lsh_candidates = 0;          // candidates the LSH produced
  std::uint64_t estimates_skipped = 0;       // merges pruned by the hit bound
  std::uint64_t survivors_verified = 0;      // exact intersections computed
  double max_estimate_error = 0.0;           // max |estimate - exact| observed
  double signature_build_ms = 0.0;           // wall time, signatures + LSH
  double v4_direction_ms = 0.0;              // wall time, v4→v6 direction
  double v6_direction_ms = 0.0;              // wall time, v6→v4 direction
  double merge_ms = 0.0;                     // final sort + dedup
  unsigned threads_used = 0;

  /// Adds `other`'s counters (the maximum for max_estimate_error); wall
  /// times and threads_used are left alone.
  void add_counters(const DetectStats& other) noexcept {
    prefixes_scanned += other.prefixes_scanned;
    candidates_evaluated += other.candidates_evaluated;
    pairs_emitted += other.pairs_emitted;
    sources_fallback += other.sources_fallback;
    fallback_no_candidates += other.fallback_no_candidates;
    fallback_low_estimate += other.fallback_low_estimate;
    fallback_low_exact += other.fallback_low_exact;
    lsh_candidates += other.lsh_candidates;
    estimates_skipped += other.estimates_skipped;
    survivors_verified += other.survivors_verified;
    max_estimate_error = std::max(max_estimate_error, other.max_estimate_error);
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

/// The corpus interface detection runs on.
template <typename C>
concept SiblingCorpus = requires(const C& corpus, const Prefix& prefix, DomainId id,
                                 Family family) {
  { corpus.prefix_domains(family) } -> std::convertible_to<const std::unordered_map<Prefix, DomainSet>&>;
  { corpus.prefixes_of(id, family) } -> std::convertible_to<const std::vector<Prefix>&>;
  { corpus.domains_of(prefix) } -> std::convertible_to<const DomainSet*>;
};

/// A generic prefix→element-set corpus (the "other inputs" of section
/// 3.7). Elements are opaque 32-bit ids — ports, interned rDNS names,
/// alias ids. Call finalize() once after the last add().
class SetCorpus {
 public:
  /// Records one (prefix, element) observation. Throws std::logic_error
  /// once finalize() has run — the flat detection index would silently go
  /// stale otherwise.
  void add(const Prefix& prefix, DomainId element);

  /// Sorts sets and builds the inverted indexes (per-element prefix lists
  /// plus the flat DetectIndex). Idempotent; add() must not be called
  /// afterwards.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// The flat detection index; throws std::logic_error before finalize().
  [[nodiscard]] const DetectIndex& detect_index() const;

  [[nodiscard]] const std::unordered_map<Prefix, DomainSet>& prefix_domains(
      Family family) const noexcept {
    return family == Family::v4 ? v4_sets_ : v6_sets_;
  }
  [[nodiscard]] const std::vector<Prefix>& prefixes_of(DomainId element,
                                                       Family family) const noexcept;
  [[nodiscard]] const DomainSet* domains_of(const Prefix& prefix) const noexcept;

 private:
  std::unordered_map<Prefix, DomainSet> v4_sets_;
  std::unordered_map<Prefix, DomainSet> v6_sets_;
  std::vector<std::vector<Prefix>> v4_prefixes_by_element_;
  std::vector<std::vector<Prefix>> v6_prefixes_by_element_;
  DetectIndex index_;
  bool finalized_ = false;
};

namespace detail {

inline constexpr double kTieEpsilon = 1e-12;

// Emits the best-match pairs for every prefix of `from` family.
template <SiblingCorpus Corpus>
void detect_direction(const Corpus& corpus, Metric metric, Family from,
                      std::vector<SiblingPair>& out) {
  const Family to = from == Family::v4 ? Family::v6 : Family::v4;

  for (const auto& [prefix, elements] : corpus.prefix_domains(from)) {
    // Candidate counterpart prefixes share at least one element.
    std::unordered_map<Prefix, std::uint32_t> shared_counts;
    for (const DomainId id : elements) {
      for (const Prefix& candidate : corpus.prefixes_of(id, to)) {
        ++shared_counts[candidate];
      }
    }
    if (shared_counts.empty()) continue;

    double best = 0.0;
    for (const auto& [candidate, shared] : shared_counts) {
      const DomainSet* candidate_elements = corpus.domains_of(candidate);
      best = std::max(best, similarity_from_sizes(metric, shared, elements.size(),
                                                  candidate_elements->size()));
    }
    if (best <= 0.0) continue;

    for (const auto& [candidate, shared] : shared_counts) {
      const DomainSet* candidate_elements = corpus.domains_of(candidate);
      const double value = similarity_from_sizes(metric, shared, elements.size(),
                                                 candidate_elements->size());
      if (value + kTieEpsilon < best) continue;
      SiblingPair pair;
      pair.v4 = from == Family::v4 ? prefix : candidate;
      pair.v6 = from == Family::v4 ? candidate : prefix;
      pair.similarity = value;
      pair.shared_domains = shared;
      pair.v4_domain_count = static_cast<std::uint32_t>(
          from == Family::v4 ? elements.size() : candidate_elements->size());
      pair.v6_domain_count = static_cast<std::uint32_t>(
          from == Family::v4 ? candidate_elements->size() : elements.size());
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

template <SiblingCorpus Corpus>
[[nodiscard]] std::vector<SiblingPair> detect_over(const Corpus& corpus,
                                                   const DetectOptions& options) {
  std::vector<SiblingPair> pairs;
  detect_direction(corpus, options.metric, Family::v4, pairs);
  detect_direction(corpus, options.metric, Family::v6, pairs);
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
/// hash-map candidate counting, two similarity passes. Kept as the oracle
/// for the serial-vs-sharded equivalence harness and as the bench
/// baseline; `options.threads` and `options.stats` are ignored.
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
