// SP-Tuner: fine-tuning sibling prefix CIDR sizes (paper sections 3.3/3.4
// and appendix A.1).
//
// SP-Tuner-MS (Algorithm 1) refines each sibling pair into more-specific
// sub-prefixes: at every step the children of the current v4/v6 prefixes
// are evaluated pairwise and the combination with the best (never worse)
// Jaccard value is taken, preferring deeper prefixes on ties so pairs
// shrink toward the configured thresholds. Populated hosts that fall on
// the branch *not* taken are never dropped: they are re-queued as new
// candidate pairs together with the counterpart hosts serving the same
// domains ("UpdateBranches" in the paper's pseudocode), so no domain is
// lost by tuning.
//
// SP-Tuner-LS (Algorithm 2) evaluates less-specific covering prefixes
// instead, walking up a bounded number of levels and stopping early when
// the covering announcement's origin AS changes. The paper (Figure 22)
// finds it does not improve similarity; it is implemented for the ablation.
#pragma once

#include <span>
#include <vector>

#include "bgp/rib.h"
#include "core/detect.h"
#include "core/similarity_estimator.h"

namespace sp::core {

struct SpTunerConfig {
  /// Deepest prefix lengths tuning may produce. The paper's analysis
  /// defaults to /28 and /96; /24 and /48 give most-specific *routable*
  /// pairs; using the input lengths disables tuning.
  unsigned v4_threshold = 28;
  unsigned v6_threshold = 96;
  /// Optional candidate filter: combinations whose estimated Jaccard plus
  /// `estimator_margin` stays below the running best skip the exact
  /// evaluation. Results are unchanged as long as the estimator's error
  /// stays within the margin (see sketch::SketchEstimator). The estimator
  /// must outlive the tuner and is shared across tuning threads, so its
  /// implementation must be thread-safe.
  const SimilarityEstimator* estimator = nullptr;
  double estimator_margin = 0.3;
};

struct SpTunerResult {
  std::vector<SiblingPair> pairs;  // sorted by (v4, v6), duplicate-free
  std::size_t input_count = 0;
  /// Input pairs whose tuned output differs from the input prefixes.
  std::size_t changed_count = 0;
};

class SpTunerMs {
 public:
  explicit SpTunerMs(const DualStackCorpus& corpus, SpTunerConfig config = {});

  /// Refines one pair. The result contains at least one pair (the input
  /// itself when no refinement helps) plus any branch pairs; all entries
  /// carry recomputed Jaccard values.
  [[nodiscard]] std::vector<SiblingPair> tune_pair(const SiblingPair& pair) const;

  /// Refines every pair and merges the outputs. Pairs are independent, so
  /// `threads` workers (0 picks the hardware concurrency) produce the same
  /// result as the serial default.
  [[nodiscard]] SpTunerResult tune_all(std::span<const SiblingPair> pairs,
                                       unsigned threads = 1) const;

 private:
  struct Item {
    Prefix host;
    const DomainSet* domains;
  };
  struct Side {
    Prefix prefix;
    std::vector<Item> items;
  };
  struct Task {
    Side v4;
    Side v6;
  };

  [[nodiscard]] static DomainSet domains_of(std::span<const Item> items);
  /// The items' set pointers, in item order — the estimator input (the
  /// pointers are corpus-owned host sets, so estimator caches stay valid).
  [[nodiscard]] static std::vector<const DomainSet*> domain_pointers(
      std::span<const Item> items);
  [[nodiscard]] bool can_descend(const Side& side, unsigned threshold) const;
  /// Child sides with non-empty item partitions (0, 1 or 2 entries).
  [[nodiscard]] static std::vector<Side> children_of(const Side& side);

  const DualStackCorpus* corpus_;
  SpTunerConfig config_;
};

struct SpTunerLsConfig {
  /// How many levels the search may walk up (the paper uses 1 for IPv4 and
  /// 4 for IPv6).
  unsigned v4_levels_up = 1;
  unsigned v6_levels_up = 4;
  /// Same contract as SpTunerConfig::estimator — covering pairs whose
  /// estimate plus margin cannot beat the incumbent skip the exact pass.
  const SimilarityEstimator* estimator = nullptr;
  double estimator_margin = 0.3;
};

class SpTunerLs {
 public:
  SpTunerLs(const DualStackCorpus& corpus, const bgp::Rib& rib, SpTunerLsConfig config = {});

  /// Returns the best covering pair when a strictly better Jaccard exists
  /// within the level bounds without crossing an origin-AS boundary;
  /// otherwise returns the input pair unchanged.
  [[nodiscard]] SiblingPair tune_pair(const SiblingPair& pair) const;

  [[nodiscard]] SpTunerResult tune_all(std::span<const SiblingPair> pairs) const;

 private:
  const DualStackCorpus* corpus_;
  const bgp::Rib* rib_;
  SpTunerLsConfig config_;
};

}  // namespace sp::core
