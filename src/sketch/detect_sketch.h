// Sketch-based sibling-prefix detection.
//
// The engine answers the same question as the exact scan — for every
// source prefix, its best-Jaccard counterpart(s) — but generates
// candidates from an LSH banding index over bottom-k signatures and runs
// the exact set intersection only on the few survivors near the best
// estimate. Output is byte-identical to the exact engine by construction
// on every path that matters:
//
//   no LSH candidates            → exact scan_source fallback
//   best estimate < floor        → exact scan_source fallback
//   best verified value < floor  → exact scan_source fallback (paranoia)
//   otherwise                    → survivors within `margin` of the best
//                                  estimate are verified with the *same*
//                                  similarity arithmetic and tie rules as
//                                  the exact engine (core/detect_scan.h)
//
// The zero-false-negative argument (DESIGN.md §3.7): a pair can only be
// missed if its source takes the survivor path AND either (a) the true
// best match shares none of the source's k bottom hashes — probability
// (1-J)^k with J ≥ floor, < 10^-14 at k = 64 — or (b) the combined
// estimate error of the best match and the estimate leader exceeds
// `margin` (≈ 4.8 combined standard deviations at k = 64, margin = 0.3).
// The identity property tests exercise both engines across seeds.
#pragma once

#include <cstddef>
#include <vector>

#include "core/corpus.h"
#include "core/detect.h"
#include "core/worker_pool.h"
#include "sketch/lsh.h"
#include "sketch/scan_sketch.h"
#include "sketch/signature.h"

namespace sp::sketch {

/// Signatures + LSH indexes for both families of a DetectIndex. Immutable
/// after build; shared read-only by all detection workers.
class SketchIndex {
 public:
  /// Builds signatures (shard-parallel over `pool` when given) and the
  /// per-family LSH indexes.
  [[nodiscard]] static SketchIndex build(const core::DetectIndex& index,
                                         const SketchParams& params,
                                         core::WorkerPool* pool = nullptr);

  [[nodiscard]] const SketchParams& params() const noexcept { return params_; }
  [[nodiscard]] const SignatureSet& signatures(Family family) const noexcept {
    return family == Family::v4 ? v4_signatures_ : v6_signatures_;
  }
  [[nodiscard]] const LshIndex& lsh(Family family) const noexcept {
    return family == Family::v4 ? v4_lsh_ : v6_lsh_;
  }

 private:
  SketchParams params_;
  SignatureSet v4_signatures_;
  SignatureSet v6_signatures_;
  LshIndex v4_lsh_;
  LshIndex v6_lsh_;
};

/// The sketch engine: builds a SketchIndex over the corpus's flat index,
/// then runs scan_source_sketch on the core detection driver for both
/// directions and merges exactly as the exact engine does. Output is
/// byte-identical to core::detect_sibling_prefixes (the identity
/// property). `options.metric` other than Jaccard routes every source
/// through the exact scan (estimates are Jaccard estimates, so only
/// Jaccard ordering can be trusted); `options.stats`, when given,
/// receives the run's counters, the sketch ones included.
[[nodiscard]] std::vector<core::SiblingPair> detect_sibling_prefixes(
    const core::DualStackCorpus& corpus, const core::DetectOptions& options = {},
    const SketchParams& params = {});

[[nodiscard]] std::vector<core::SiblingPair> detect_sibling_prefixes(
    const core::SetCorpus& corpus, const core::DetectOptions& options = {},
    const SketchParams& params = {});

}  // namespace sp::sketch
