// SketchEstimator: the bottom-k implementation of core::SimilarityEstimator
// plugged into SP-Tuner (SpTunerConfig::estimator).
//
// Construction walks the corpus's host→domains CSR once and precomputes a
// signature for every row of both families — exactly the sets SP-Tuner-MS
// feeds back through estimate_union_jaccard — keyed by the row's address,
// so the cache is immutable after the constructor and estimation needs no
// locking at all (the tuner shares one estimator across its worker
// threads). A set is a cache hit only when both its address and its length
// match a row; any other set (e.g. the ephemeral covering unions
// SP-Tuner-LS builds) is sketched on the fly from its contents, so
// correctness never depends on a cache hit.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/corpus.h"
#include "core/similarity_estimator.h"
#include "sketch/signature.h"

namespace sp::sketch {

class SketchEstimator final : public core::SimilarityEstimator {
 public:
  /// Precomputes host-set signatures for `corpus`. The corpus must outlive
  /// the estimator (cached signatures are keyed by its row addresses).
  explicit SketchEstimator(const core::DualStackCorpus& corpus, SketchParams params = {});

  [[nodiscard]] double estimate_union_jaccard(std::span<const core::DomainSpan> a,
                                              std::span<const core::DomainSpan> b) const override;

  [[nodiscard]] const SketchParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t cached_signatures() const noexcept { return cache_.size(); }

 private:
  struct CachedSignature {
    std::vector<std::uint64_t> hashes;  // sorted distinct bottom-k
    std::uint32_t set_size = 0;
  };
  struct UnionSketch {
    std::vector<std::uint64_t> hashes;
    bool complete = false;
  };

  [[nodiscard]] UnionSketch sketch_union(std::span<const core::DomainSpan> sets) const;

  SketchParams params_;
  std::unordered_map<const core::DomainId*, CachedSignature> cache_;  // by row address
};

}  // namespace sp::sketch
