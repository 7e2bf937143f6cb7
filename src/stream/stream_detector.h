// StreamDetector — incremental delta-driven sibling detection.
//
// The longitudinal campaign re-ran detection from scratch every month
// even though consecutive corpora differ by a few percent of their
// domain→prefix edges. The stream engine keeps the previous month's
// state — the flat CSR index (behind a DetectIndexOverlay) plus every
// source prefix's emitted best-match pairs — applies a CorpusDelta, and
// re-scores only the *dirty* sources: the prefixes whose scan inputs the
// delta can have touched.
//
// Dirty-set invariant (the byte-identity argument, DESIGN.md §3.8): the
// per-source scan (core/detect_scan.h) of a source prefix s on side F
// depends on exactly (a) s's own element set, (b) the counterpart
// posting list of each of s's elements, and (c) the element-set size of
// every candidate those postings name. A changed counterpart prefix c
// alters (b)/(c) only for sources sharing an element with c's old or
// new set, and old(c) ∪ new(c) = new(c) ∪ removed(c). So
//
//   dirty(F) = { changed prefixes on F, alive after the delta }
//            ∪ { p ∈ postings_F(e) : c changed on the counterpart side,
//                e ∈ new_set(c) ∪ removed(c) }
//
// and every source outside dirty(F) sees bit-identical scan inputs —
// its retained emission is the emission a from-scratch run would
// produce. Dirty sources are re-scanned by the *same* scan_sharded as
// the batch engine (same arithmetic, same kTieEpsilon tie rules); dead prefixes'
// emissions are dropped; and the sorted pair list is patched in one
// linear merge pass over exactly the keys whose emitting sources were
// touched (a key's presence is re-derived from the two per-source
// emission lists that can emit it, so cross-direction dedup is
// preserved without a global re-sort). The result is byte-identical to
// a from-scratch exact run over the post-delta index — property-tested
// across seeds, event mixes, and thread counts.
//
// When the dirty set approaches the whole universe, dirty bookkeeping
// stops paying; past full_rescan_fraction the engine just re-scans
// every source (still skipping the corpus rebuild the batch path would
// pay).
//
// Threading: the detector owns a WorkerPool and runs its (re-)scans on
// the core detection driver (core/detect_scan.h), which returns each
// source's emissions in source order, so output is independent of the
// thread count. Not reentrant; no internal locking — single-owner like
// the batch engines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/corpus_delta.h"
#include "core/detect.h"
#include "core/detect_overlay.h"
#include "core/worker_pool.h"
#include "obs/metrics.h"

namespace sp::stream {

struct StreamOptions {
  core::Metric metric = core::Metric::Jaccard;
  /// Worker threads for (re-)scans; 0 picks hardware concurrency.
  unsigned threads = 1;
  /// When dirty sources exceed this fraction of all sources, re-scan
  /// everything instead of tracking per-source dirtiness.
  double full_rescan_fraction = 0.5;
};

/// Counters describing one apply() (or init()) call.
struct StreamApplyStats {
  std::size_t delta_prefixes = 0;   // changed prefixes in the delta
  std::size_t delta_edges = 0;      // added + removed domain→prefix edges
  std::size_t dirty_v4 = 0;         // v4 sources re-scanned
  std::size_t dirty_v6 = 0;         // v6 sources re-scanned
  std::size_t sources_total = 0;    // post-delta universe size, both sides
  bool full_rescan = false;         // dirty set crossed full_rescan_fraction
  core::DetectStats scan;           // re-scan counters
  double apply_index_ms = 0.0;      // overlay apply + dirty-set derivation
  double rescan_ms = 0.0;
  double merge_ms = 0.0;
};

class StreamDetector {
 public:
  explicit StreamDetector(StreamOptions options = {});

  /// Gives this detector's share of the `stream.pairs_current` gauge back.
  ~StreamDetector();

  StreamDetector(const StreamDetector&) = delete;
  StreamDetector& operator=(const StreamDetector&) = delete;

  /// (Re-)initializes from a full index: the from-scratch boundary.
  /// Scans every source and records per-source emissions.
  void init(core::DetectIndex index);

  [[nodiscard]] bool initialized() const noexcept { return initialized_; }

  /// The current (post-delta) index.
  [[nodiscard]] const core::DetectIndex& index() const noexcept { return overlay_.index(); }

  /// Applies a corpus delta and re-scores exactly the dirty sources.
  /// Throws std::logic_error before init(), std::invalid_argument when
  /// the delta is inconsistent with the current index (the index is
  /// unchanged in that case).
  void apply(const core::CorpusDelta& delta);

  /// The current sibling list: byte-identical to a from-scratch exact
  /// run over index(). Sorted and deduplicated like the batch engines.
  [[nodiscard]] const std::vector<core::SiblingPair>& pairs() const noexcept { return pairs_; }

  /// Counters of the most recent init()/apply() call.
  [[nodiscard]] const StreamApplyStats& last_stats() const noexcept { return stats_; }

 private:
  using EmissionMap = std::unordered_map<Prefix, std::vector<core::SiblingPair>>;

  /// Re-scans `sources` (sorted dense ids on side `from`) against the
  /// current index, replacing their entries in the direction's emission
  /// map.
  void scan_sources(Family from, const std::vector<std::uint32_t>& sources);
  void scan_all();
  void rebuild_pairs();
  /// Moves the `stream.pairs_current` gauge by the change in pairs_.size().
  void publish_pair_count();
  /// Splices the re-scanned sources' emission changes into the sorted
  /// pair list in one linear pass (no global re-sort). `changed` holds
  /// the keys whose emitting sources were touched — the union of those
  /// sources' pre- and post-scan emissions.
  void merge_changed(std::vector<core::SiblingPair> changed);
  [[nodiscard]] EmissionMap& emissions(Family from) noexcept {
    return from == Family::v4 ? emissions_v4_ : emissions_v6_;
  }

  StreamOptions options_;
  core::WorkerPool pool_;
  core::DetectIndexOverlay overlay_;
  bool initialized_ = false;
  EmissionMap emissions_v4_;  // v4→v6 direction, keyed by source prefix
  EmissionMap emissions_v6_;  // v6→v4 direction
  std::vector<core::SiblingPair> pairs_;
  StreamApplyStats stats_;
  obs::Gauge pairs_current_;          // stream.pairs_current, summed over detectors
  std::int64_t pairs_published_ = 0;  // this detector's share of the gauge
};

}  // namespace sp::stream
