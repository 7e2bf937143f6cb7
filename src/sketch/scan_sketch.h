// The per-source sketch-filtered scan shared by the sketch engines.
//
// sketch::detect_sibling_prefixes runs this scan on the core detection
// driver (core/detect_scan.h); the sp::stream incremental engine runs it
// on the same driver for large dirty sets (the "sketch LSH filter
// optional" path), which is what keeps the streamed output
// byte-identical to both the sketch and the exact engine. One
// definition, like core/detect_scan.h for the exact scan, so the engines
// can never drift in candidate pruning, estimate margins, or tie rules.
//
// The scan for one source prefix:
//
//   no LSH candidates            → exact scan_source fallback
//   best estimate < floor        → exact scan_source fallback
//   best verified value < floor  → exact scan_source fallback (paranoia)
//   otherwise                    → survivors within `margin` of the best
//                                  estimate are verified with the *same*
//                                  similarity arithmetic and tie rules as
//                                  the exact engine (core/detect_scan.h)
//
// Non-Jaccard metrics route every source through the exact scan — the
// estimates are Jaccard estimates, so only Jaccard ordering is trusted.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/detect.h"
#include "core/detect_index.h"
#include "core/detect_scan.h"
#include "sketch/lsh.h"
#include "sketch/signature.h"

namespace sp::sketch {

/// Exact shared-element count of two sorted spans (linear merge; same
/// arithmetic the posting-list scan accumulates per candidate).
inline std::uint32_t intersection_count(std::span<const core::DomainId> a,
                                        std::span<const core::DomainId> b) noexcept {
  std::uint32_t shared = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
  }
  return shared;
}

/// Appends the best-match pairs of `source` (with ties) to `out`, exactly
/// as core::detail::scan_source would, generating candidates from the
/// counterpart side's LSH index where the estimates allow it. Survivors
/// are kept in `scratch.ties`; the sketch counters of `stats` record how
/// the source was routed.
inline void scan_source_sketch(const core::DetectIndex::Side& from_side,
                               const core::DetectIndex::Side& to_side,
                               const SignatureSet& from_signatures,
                               const SignatureSet& to_signatures, const LshIndex& to_lsh,
                               const SketchParams& params, Family from, core::Metric metric,
                               std::uint32_t source, core::detail::ScanScratch& scratch,
                               std::vector<core::SiblingPair>& out, core::DetectStats& stats) {
  const auto exact_fallback = [&] {
    ++stats.sources_fallback;
    core::detail::scan_source(from_side, to_side, from, metric, source, scratch, out, stats);
  };

  // Non-Jaccard metrics cannot be ordered by a Jaccard estimate, so every
  // source takes the exact path (correct, but no filtering win).
  if (metric != core::Metric::Jaccard) {
    exact_fallback();
    return;
  }
  const SignatureView signature = from_signatures.of(source);
  // Empty set: the exact scan would touch no candidate either.
  if (signature.hashes.empty()) return;

  to_lsh.candidates_of(signature, scratch.candidates, scratch.lsh_counts);
  stats.lsh_candidates += scratch.candidates.size();
  if (scratch.candidates.empty()) {
    ++stats.fallback_no_candidates;
    exact_fallback();
    return;
  }

  // Process candidates in descending bucket-hit order: the best
  // estimate surfaces early, and every later merge whose hit bound
  // cannot reach the margin is skipped. The skip is conservative —
  // estimate_jaccard counts at most `hits` shared slots over at
  // least min(k, max(|sig_a|, |sig_b|)) union slots, so
  // hits / that floor upper-bounds the estimate. A skipped
  // candidate therefore can neither raise best_estimate nor
  // survive the margin cut, and the survivor set (and the output)
  // is exactly what the unpruned pass would produce.
  std::sort(scratch.candidates.begin(), scratch.candidates.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second : a.first < b.first;
            });
  const std::uint32_t k = params.k;
  const auto source_stored = static_cast<std::uint32_t>(signature.hashes.size());
  scratch.estimates.clear();
  double best_estimate = 0.0;
  for (const auto& [candidate, hits] : scratch.candidates) {
    const SignatureView candidate_signature = to_signatures.of(candidate);
    const std::uint32_t floor_slots = std::min(
        k, std::max(source_stored, static_cast<std::uint32_t>(candidate_signature.hashes.size())));
    const double upper = static_cast<double>(hits) / floor_slots;
    if (upper + params.margin < best_estimate) {
      ++stats.estimates_skipped;
      scratch.estimates.push_back(-1.0);  // provably below the margin
      continue;
    }
    const double estimate = estimate_jaccard(signature, candidate_signature, k);
    scratch.estimates.push_back(estimate);
    best_estimate = std::max(best_estimate, estimate);
  }
  if (best_estimate < params.fallback_floor) {
    ++stats.fallback_low_estimate;
    exact_fallback();
    return;
  }

  // Exact-verify every candidate within the margin of the best estimate,
  // with the same arithmetic the exact scan uses.
  const auto elements = from_side.elements_of(source);
  scratch.ties.clear();
  double best = 0.0;
  for (std::size_t c = 0; c < scratch.candidates.size(); ++c) {
    if (scratch.estimates[c] + params.margin < best_estimate) continue;
    const std::uint32_t candidate = scratch.candidates[c].first;
    const std::uint32_t shared = intersection_count(elements, to_side.elements_of(candidate));
    const double value =
        core::similarity_from_sizes(metric, shared, elements.size(), to_side.set_size(candidate));
    ++stats.survivors_verified;
    ++stats.candidates_evaluated;
    stats.max_estimate_error =
        std::max(stats.max_estimate_error, std::abs(scratch.estimates[c] - value));
    best = std::max(best, value);
    scratch.ties.push_back({candidate, shared, value});
  }
  if (best < params.fallback_floor) {
    // The verified best is inside the regime where an LSH miss or an
    // estimate inversion is conceivable — rerun exactly.
    ++stats.fallback_low_exact;
    exact_fallback();
    return;
  }
  core::detail::emit_ties(from_side, to_side, from, source, best, scratch.ties, out, stats);
}

}  // namespace sp::sketch
