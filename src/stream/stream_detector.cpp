#include "stream/stream_detector.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "core/detect_scan.h"
#include "obs/metrics.h"

namespace sp::stream {

namespace {

using core::detail::elapsed_ms;

/// Dense id of `prefix` on `side` (prefixes are sorted ascending), or
/// nullopt when the prefix is not in the index (dead or never born).
std::optional<std::uint32_t> find_dense(const core::DetectIndex::Side& side,
                                        const Prefix& prefix) {
  const auto it = std::lower_bound(side.prefixes.begin(), side.prefixes.end(), prefix);
  if (it == side.prefixes.end() || *it != prefix) return std::nullopt;
  return static_cast<std::uint32_t>(it - side.prefixes.begin());
}

/// The sorted dense ids on side `from` whose scan inputs the delta can
/// have touched (see the dirty-set invariant in the header).
std::vector<std::uint32_t> dirty_sources(const core::DetectIndex& index,
                                         const core::CorpusDelta& delta, Family from) {
  const Family to = from == Family::v4 ? Family::v6 : Family::v4;
  const core::DetectIndex::Side& from_side = index.side(from);
  const core::DetectIndex::Side& to_side = index.side(to);

  std::vector<std::uint8_t> dirty(from_side.prefix_count(), 0);
  // Changed prefixes on this side that survived the delta re-scan
  // themselves (their own element set changed, or they were just born).
  for (const core::PrefixDelta& entry : delta.side(from)) {
    if (const auto dense = find_dense(from_side, entry.prefix)) dirty[*dense] = 1;
  }
  // Sources sharing an element with a changed counterpart's old or new
  // set: old(c) ∪ new(c) = new(c) ∪ removed(c).
  const auto mark_postings = [&](core::DomainId element) {
    for (const std::uint32_t posting : from_side.postings_of(element)) dirty[posting] = 1;
  };
  for (const core::PrefixDelta& entry : delta.side(to)) {
    if (const auto dense = find_dense(to_side, entry.prefix)) {
      for (const core::DomainId element : to_side.elements_of(*dense)) mark_postings(element);
    }
    for (const core::DomainId element : entry.removed) mark_postings(element);
  }

  std::vector<std::uint32_t> sources;
  for (std::uint32_t dense = 0; dense < dirty.size(); ++dense) {
    if (dirty[dense] != 0) sources.push_back(dense);
  }
  return sources;
}

}  // namespace

StreamDetector::StreamDetector(StreamOptions options)
    : options_(options),
      pool_(options.threads),
      pairs_current_(obs::MetricsRegistry::global().gauge("stream.pairs_current")) {}

StreamDetector::~StreamDetector() { pairs_current_.sub(pairs_published_); }

void StreamDetector::scan_sources(Family from, const std::vector<std::uint32_t>& sources) {
  const core::DetectIndex& index = overlay_.index();
  std::vector<core::SiblingPair> emitted;
  const std::vector<std::size_t> offsets = core::detail::scan_sharded(
      pool_, index, from, sources, options_.metric, "stream", emitted, stats_.scan);

  EmissionMap& map = emissions(from);
  const core::DetectIndex::Side& from_side = index.side(from);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    map[from_side.prefixes[sources[i]]] = std::vector<core::SiblingPair>(
        emitted.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
        emitted.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]));
  }
}

void StreamDetector::scan_all() {
  const core::DetectIndex& index = overlay_.index();
  emissions_v4_.clear();
  emissions_v6_.clear();
  const std::vector<std::uint32_t> v4_sources = core::detail::all_sources(index.v4);
  const std::vector<std::uint32_t> v6_sources = core::detail::all_sources(index.v6);
  stats_.dirty_v4 = v4_sources.size();
  stats_.dirty_v6 = v6_sources.size();
  scan_sources(Family::v4, v4_sources);
  scan_sources(Family::v6, v6_sources);
}

void StreamDetector::rebuild_pairs() {
  // The same global merge as the batch engines: concatenate every
  // per-source emission, sort by (v4, v6), drop cross-direction
  // duplicates (both directions emit identical bytes for a shared pair —
  // Jaccard and friends are symmetric in the two set sizes).
  std::size_t total = 0;
  for (const auto& [prefix, emitted] : emissions_v4_) total += emitted.size();
  for (const auto& [prefix, emitted] : emissions_v6_) total += emitted.size();
  pairs_.clear();
  pairs_.reserve(total);
  for (const auto& [prefix, emitted] : emissions_v4_) {
    pairs_.insert(pairs_.end(), emitted.begin(), emitted.end());
  }
  for (const auto& [prefix, emitted] : emissions_v6_) {
    pairs_.insert(pairs_.end(), emitted.begin(), emitted.end());
  }
  core::detail::sort_unique(pairs_);
}

void StreamDetector::publish_pair_count() {
  const auto current = static_cast<std::int64_t>(pairs_.size());
  pairs_current_.add(current - pairs_published_);
  pairs_published_ = current;
}

void StreamDetector::merge_changed(std::vector<core::SiblingPair> changed) {
  // Sort and key-dedup the touched keys, then walk them against the
  // previous sorted pair list: every key outside `changed` kept its
  // emitting sources bit-identical, so its record is reused verbatim; a
  // changed key's current record (if any source still emits it) carries
  // the re-scanned bytes. This is the "merge into the previous month's
  // sibling table" path — O(pairs + changed), no global re-sort.
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

  /// A pair (a, b) can only ever be emitted by source a (v4→v6) or
  /// source b (v6→v4); both directions produce identical bytes for a
  /// shared pair, so the first hit is authoritative.
  const auto find_emitted = [this](const core::SiblingPair& key) -> const core::SiblingPair* {
    if (const auto it = emissions_v4_.find(key.v4); it != emissions_v4_.end()) {
      for (const core::SiblingPair& pair : it->second) {
        if (pair == key) return &pair;
      }
    }
    if (const auto it = emissions_v6_.find(key.v6); it != emissions_v6_.end()) {
      for (const core::SiblingPair& pair : it->second) {
        if (pair == key) return &pair;
      }
    }
    return nullptr;
  };

  std::vector<core::SiblingPair> merged;
  merged.reserve(pairs_.size() + changed.size());
  auto retained = pairs_.begin();
  for (const core::SiblingPair& key : changed) {
    while (retained != pairs_.end() && *retained < key) merged.push_back(*retained++);
    if (retained != pairs_.end() && *retained == key) ++retained;  // superseded record
    if (const core::SiblingPair* current = find_emitted(key)) merged.push_back(*current);
  }
  merged.insert(merged.end(), retained, pairs_.end());
  pairs_ = std::move(merged);
}

void StreamDetector::init(core::DetectIndex index) {
  stats_ = StreamApplyStats{};
  stats_.scan.threads_used = pool_.thread_count();
  overlay_.reset(std::move(index));
  initialized_ = true;

  const auto rescan_start = std::chrono::steady_clock::now();
  scan_all();
  stats_.rescan_ms = elapsed_ms(rescan_start);
  const auto merge_start = std::chrono::steady_clock::now();
  rebuild_pairs();
  stats_.merge_ms = elapsed_ms(merge_start);
  stats_.sources_total =
      overlay_.index().v4.prefix_count() + overlay_.index().v6.prefix_count();

  publish_pair_count();
  obs::MetricsRegistry::global().counter("stream.inits").add();
}

void StreamDetector::apply(const core::CorpusDelta& delta) {
  if (!initialized_) throw std::logic_error("StreamDetector::apply before init");
  const auto apply_start = std::chrono::steady_clock::now();
  stats_ = StreamApplyStats{};
  stats_.scan.threads_used = pool_.thread_count();
  stats_.delta_prefixes = delta.prefix_count();
  stats_.delta_edges = delta.edge_count();

  overlay_.apply(delta);
  const core::DetectIndex& index = overlay_.index();
  std::vector<std::uint32_t> dirty_v4 = dirty_sources(index, delta, Family::v4);
  std::vector<std::uint32_t> dirty_v6 = dirty_sources(index, delta, Family::v6);
  stats_.apply_index_ms = elapsed_ms(apply_start);
  stats_.sources_total = index.v4.prefix_count() + index.v6.prefix_count();

  const auto rescan_start = std::chrono::steady_clock::now();
  const std::size_t dirty_total = dirty_v4.size() + dirty_v6.size();
  if (static_cast<double>(dirty_total) >
      options_.full_rescan_fraction * static_cast<double>(stats_.sources_total)) {
    stats_.full_rescan = true;
    scan_all();
    stats_.rescan_ms = elapsed_ms(rescan_start);
    const auto merge_start = std::chrono::steady_clock::now();
    rebuild_pairs();
    stats_.merge_ms = elapsed_ms(merge_start);
  } else {
    stats_.dirty_v4 = dirty_v4.size();
    stats_.dirty_v6 = dirty_v6.size();

    // The keys the incremental merge must re-derive: every pair a
    // touched source emitted before the delta or emits after it. A
    // touched source is a re-scanned dirty one or a changed prefix
    // (dead prefixes appear only in the delta).
    std::vector<core::SiblingPair> changed;
    const auto capture = [this, &index](Family from, const std::vector<std::uint32_t>& dirty,
                                        const std::vector<core::PrefixDelta>& entries,
                                        std::vector<core::SiblingPair>& out) {
      const EmissionMap& map = emissions(from);
      const core::DetectIndex::Side& side = index.side(from);
      for (const std::uint32_t dense : dirty) {
        if (const auto it = map.find(side.prefixes[dense]); it != map.end()) {
          out.insert(out.end(), it->second.begin(), it->second.end());
        }
      }
      for (const core::PrefixDelta& entry : entries) {
        if (const auto it = map.find(entry.prefix); it != map.end()) {
          out.insert(out.end(), it->second.begin(), it->second.end());
        }
      }
    };
    capture(Family::v4, dirty_v4, delta.v4, changed);
    capture(Family::v6, dirty_v6, delta.v6, changed);

    // Changed prefixes lose their retained emissions first: dead ones
    // stay gone, surviving ones are replaced by the re-scan below.
    for (const core::PrefixDelta& entry : delta.v4) emissions_v4_.erase(entry.prefix);
    for (const core::PrefixDelta& entry : delta.v6) emissions_v6_.erase(entry.prefix);

    scan_sources(Family::v4, dirty_v4);
    scan_sources(Family::v6, dirty_v6);

    // Post-scan emissions of the same touched sources (dead prefixes
    // have none): together with the pre-scan capture this is the full
    // key set whose membership can have changed.
    capture(Family::v4, dirty_v4, delta.v4, changed);
    capture(Family::v6, dirty_v6, delta.v6, changed);
    stats_.rescan_ms = elapsed_ms(rescan_start);

    const auto merge_start = std::chrono::steady_clock::now();
    merge_changed(std::move(changed));
    stats_.merge_ms = elapsed_ms(merge_start);
  }

  publish_pair_count();
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("stream.applies").add();
  registry.counter("stream.delta_edges").add(static_cast<std::int64_t>(stats_.delta_edges));
  registry.counter("stream.dirty_sources")
      .add(static_cast<std::int64_t>(stats_.dirty_v4 + stats_.dirty_v6));
  registry.histogram("stream.apply_us")
      .record(static_cast<std::uint64_t>(elapsed_ms(apply_start) * 1000.0));
}

}  // namespace sp::stream
