#include "sketch/estimator.h"

#include <algorithm>

#include "sketch/hash.h"

namespace sp::sketch {

namespace {

/// Bottom-k of one set's element hashes: sorted distinct, ≤ k entries.
std::vector<std::uint64_t> bottom_k(core::DomainSpan set, const SketchParams& params) {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(set.size());
  for (const core::DomainId element : set) {
    hashes.push_back(element_hash(element, params.seed));
  }
  const std::size_t keep = std::min<std::size_t>(params.k, hashes.size());
  std::partial_sort(hashes.begin(), hashes.begin() + static_cast<std::ptrdiff_t>(keep),
                    hashes.end());
  hashes.resize(keep);
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  return hashes;
}

}  // namespace

SketchEstimator::SketchEstimator(const core::DualStackCorpus& corpus, SketchParams params)
    : params_(params) {
  // Register every host row of both families: these are the rows SP-Tuner-MS
  // items point at, so its estimates are all cache hits. Insertion happens
  // only here; the map is read-only afterwards, which is what makes
  // estimate_union_jaccard safe to share across the tuner's threads
  // without a lock.
  for (const Family family : {Family::v4, Family::v6}) {
    const core::HostRange hosts = corpus.hosts(family);
    for (std::size_t row = 0; row < hosts.size(); ++row) {
      const core::DomainSpan set = hosts.domains(row);
      cache_[set.data()] = {bottom_k(set, params_), static_cast<std::uint32_t>(set.size())};
    }
  }
}

SketchEstimator::UnionSketch SketchEstimator::sketch_union(
    std::span<const core::DomainSpan> sets) const {
  UnionSketch result;
  // Gather every member's signature (cached or computed), then keep the k
  // smallest distinct union hashes. The union signature is complete —
  // holds every union element's hash — iff all members are complete and
  // nothing was truncated.
  bool members_complete = true;
  std::vector<std::uint64_t> merged;
  for (const core::DomainSpan set : sets) {
    const auto it = cache_.find(set.data());
    if (it != cache_.end() && it->second.set_size == set.size()) {
      merged.insert(merged.end(), it->second.hashes.begin(), it->second.hashes.end());
      if (it->second.set_size > params_.k) members_complete = false;
    } else {
      const auto hashes = bottom_k(set, params_);
      if (set.size() > params_.k) members_complete = false;
      merged.insert(merged.end(), hashes.begin(), hashes.end());
    }
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  result.complete = members_complete && merged.size() <= params_.k;
  if (merged.size() > params_.k) merged.resize(params_.k);
  result.hashes = std::move(merged);
  return result;
}

double SketchEstimator::estimate_union_jaccard(std::span<const core::DomainSpan> a,
                                               std::span<const core::DomainSpan> b) const {
  const UnionSketch sa = sketch_union(a);
  const UnionSketch sb = sketch_union(b);
  // estimate_jaccard switches to the exact full-merge mode when both
  // views are complete; set_size only feeds that check, so a complete
  // union reports its hash count and an incomplete one anything > k.
  const SignatureView va{sa.hashes,
                         sa.complete ? static_cast<std::uint32_t>(sa.hashes.size())
                                     : params_.k + 1};
  const SignatureView vb{sb.hashes,
                         sb.complete ? static_cast<std::uint32_t>(sb.hashes.size())
                                     : params_.k + 1};
  return estimate_jaccard(va, vb, params_.k);
}

}  // namespace sp::sketch
