// Pluggable similarity estimation for SP-Tuner's refinement loops.
//
// Tuning evaluates many candidate prefix combinations whose exact Jaccard
// requires materializing and intersecting unions of per-host domain sets.
// An estimator provides a cheap approximate Jaccard for such a union pair;
// callers combine it with a conservative margin (skip a candidate only
// when estimate + margin is still below the running best) so any estimator
// whose error stays within the margin leaves results unchanged.
//
// The interface lives in sp_core so the tuner can depend on it; the
// bottom-k implementation lives a layer up in sp::sketch
// (sketch::SketchEstimator), keeping core free of sketch internals.
#pragma once

#include <span>

#include "core/domain_set.h"

namespace sp::core {

class SimilarityEstimator {
 public:
  virtual ~SimilarityEstimator() = default;

  /// Estimates Jaccard(∪a, ∪b) for two unions of sorted domain sets;
  /// empty outer spans denote the empty set. The viewed ids must outlive
  /// the call. Implementations may cache per-set state keyed by the set's
  /// address, so callers should pass rows of the corpus's host→domains
  /// CSR (DualStackCorpus::hosts) where they can; any other set is
  /// estimated from its contents.
  [[nodiscard]] virtual double estimate_union_jaccard(std::span<const DomainSpan> a,
                                                      std::span<const DomainSpan> b) const = 0;
};

}  // namespace sp::core
