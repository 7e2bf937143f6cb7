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
// How a step is scored. A side is its prefix plus an ascending list of
// row indexes into the announcement's HostRange (addresses ascending), so
// a child is one partition_point on the next prefix bit and nothing is
// copied. One counting pass marks the domains of both sides' rows in a
// per-worker scratch — a mask byte per domain id plus a touched list —
// with one bit each for the v4 low child, v4 high child, v6 low child and
// v6 high child. A 16-bucket histogram of the masks then gives the union
// and intersection sizes of every (v4 option, v6 option) combination, and
// each is scored with the same similarity_from_sizes call, iteration
// order and depth tie rule as the item-copying oracle in
// tests/reference_sptuner.h, so results are bit-identical to it.
//
// Chain jumps. A step is a chain step when every side that can still
// descend keeps all its rows in one child. In a chain step every
// combination has the current unions, so it scores exactly the current
// value; the depth rule takes every descending side's child, and no row
// is lost, so no branch is queued. A run of chain steps therefore
// collapses into one jump of k levels, k being the minimum over the
// descending sides of min(threshold, common prefix length of the side's
// first and last row) minus the side's length. The jump must be
// lockstep: a side that jumped on past the level where the other side
// splits could offer its own split in that same step, so both splits
// would be chosen jointly instead of one after the other, and other
// branches would be queued.
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

namespace sp::core {

struct SpTunerConfig {
  /// Deepest prefix lengths tuning may produce. The paper's analysis
  /// defaults to /28 and /96; /24 and /48 give most-specific *routable*
  /// pairs; using the input lengths disables tuning.
  unsigned v4_threshold = 28;
  unsigned v6_threshold = 96;
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
  /// result as the serial default. Each worker builds its own scratch on
  /// its own thread.
  [[nodiscard]] SpTunerResult tune_all(std::span<const SiblingPair> pairs,
                                       unsigned threads = 1) const;

 private:
  /// Per-worker counting scratch (defined in sptuner.cpp).
  struct Scratch;

  [[nodiscard]] std::vector<SiblingPair> tune_pair(const SiblingPair& pair,
                                                   Scratch& scratch) const;

  const DualStackCorpus* corpus_;
  SpTunerConfig config_;
};

struct SpTunerLsConfig {
  /// How many levels the search may walk up (the paper uses 1 for IPv4 and
  /// 4 for IPv6).
  unsigned v4_levels_up = 1;
  unsigned v6_levels_up = 4;
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
