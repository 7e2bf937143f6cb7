// DetectIndexOverlay — a delta-updatable owner of the flat CSR index.
//
// The DetectIndex is deliberately immutable: detection workers share it
// without synchronization, and the CSR layout has no room for in-place
// set growth. The overlay keeps that property while making the index
// delta-updatable: apply() merges a CorpusDelta into a *fresh* pair of
// CSR sides through DetectIndex::Side::append, copying the untouched
// rows' element spans verbatim, and rebuilds the posting lists with
// DetectIndex::Side::build_postings, the counting sort every index build
// runs. Compaction is O(elements) — linear in the corpus,
// independent of delta size — which is cheap next to detection's
// superlinear candidate work, and it means every engine keeps scanning a
// plain DetectIndex::Side: the byte-identity contract of
// core/detect_scan.h needs no overlay-aware variant.
//
// apply() validates the delta against the current index (removals must
// exist, additions must be new, entries sorted and unique) and throws
// std::invalid_argument on inconsistency: a delta that does not match
// its base is a caller bug, not an input format error (the serialized
// SPDL boundary in src/stream/ rejects instead of throwing).
#pragma once

#include <vector>

#include "core/corpus_delta.h"
#include "core/detect_index.h"

namespace sp::core {

class DetectIndexOverlay {
 public:
  DetectIndexOverlay() = default;
  explicit DetectIndexOverlay(DetectIndex index) : index_(std::move(index)) {}

  [[nodiscard]] const DetectIndex& index() const noexcept { return index_; }

  /// Replaces the owned index (the from-scratch boundary).
  void reset(DetectIndex index) { index_ = std::move(index); }

  /// Applies `delta`, compacting into fresh CSR sides. After apply(),
  /// index() equals DetectIndex::build over the post-delta edges (same
  /// prefix order, same element spans, same posting layout). Throws
  /// std::invalid_argument when the delta is inconsistent with the
  /// current index; the index is unchanged in that case.
  void apply(const CorpusDelta& delta);

 private:
  DetectIndex index_;
};

}  // namespace sp::core
