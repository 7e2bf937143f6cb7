// The detection driver: the exact per-source scan and the one sharded
// loop every engine runs its per-source scan on.
//
// The exact engine (detect_sibling_prefixes), the sketch engine
// (sp::sketch, whose per-source scan falls back to scan_source below on
// the sources its LSH filter cannot settle) and the stream engine
// (sp::stream, which re-scans only the sources a delta touched) all shard
// their sources through scan_sharded. Keeping one definition of the scan
// and one of the driver guarantees the engines can never drift in tie
// handling, similarity arithmetic, sharding or counter merging.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/detect.h"
#include "core/detect_index.h"
#include "core/worker_pool.h"
#include "obs/trace.h"

namespace sp::core::detail {

/// Per-worker reusable state: candidate counts indexed by the target
/// side's dense prefix id, a touched list so resets cost O(candidates),
/// and the surviving tie list of the current source prefix. The sketch
/// scan (sketch/scan_sketch.h) adds its LSH candidate and estimate
/// scratch and keeps its verified survivors in `ties`.
struct ScanScratch {
  explicit ScanScratch(std::size_t target_prefixes) : counts(target_prefixes, 0) {}

  struct Tie {
    std::uint32_t dense = 0;
    std::uint32_t shared = 0;
    double value = 0.0;
  };

  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> touched;
  std::vector<Tie> ties;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> candidates;  // (dense, LSH hits)
  std::vector<std::uint32_t> lsh_counts;  // dense hit-count scratch
  std::vector<double> estimates;
};

/// Appends a pair for every tie within kTieEpsilon of `best`: the
/// emission step the exact and the sketch scans share.
inline void emit_ties(const DetectIndex::Side& from_side, const DetectIndex::Side& to_side,
                      Family from, std::uint32_t source, double best,
                      std::span<const ScanScratch::Tie> ties, std::vector<SiblingPair>& out,
                      DetectStats& stats) {
  const bool from_v4 = from == Family::v4;
  const Prefix& source_prefix = from_side.prefixes[source];
  const std::uint32_t source_size = from_side.set_size(source);
  for (const ScanScratch::Tie& tie : ties) {
    if (tie.value + detail::kTieEpsilon < best) continue;
    const Prefix& candidate_prefix = to_side.prefixes[tie.dense];
    const std::uint32_t candidate_size = to_side.set_size(tie.dense);
    SiblingPair pair;
    pair.v4 = from_v4 ? source_prefix : candidate_prefix;
    pair.v6 = from_v4 ? candidate_prefix : source_prefix;
    pair.similarity = tie.value;
    pair.shared_domains = tie.shared;
    pair.v4_domain_count = from_v4 ? source_size : candidate_size;
    pair.v6_domain_count = from_v4 ? candidate_size : source_size;
    out.push_back(pair);
    ++stats.pairs_emitted;
  }
}

/// Appends the best-match pairs of `source` (with ties) to `out`.
/// Semantically identical to one iteration of detail::detect_direction: a
/// candidate is emitted iff its value + kTieEpsilon >= the maximum value
/// over all candidates, and the similarity doubles are produced by the
/// same similarity_from_sizes calls, so emission is byte-identical.
/// `prefixes_scanned` is the driver's to count, once per source.
inline void scan_source(const DetectIndex::Side& from_side, const DetectIndex::Side& to_side,
                        Family from, Metric metric, std::uint32_t source,
                        ScanScratch& scratch, std::vector<SiblingPair>& out,
                        DetectStats& stats) {
  const auto elements = from_side.elements_of(source);
  for (const DomainId element : elements) {
    for (const std::uint32_t candidate : to_side.postings_of(element)) {
      if (scratch.counts[candidate]++ == 0) scratch.touched.push_back(candidate);
    }
  }
  if (scratch.touched.empty()) return;

  // Single pass: the running best only grows, so any tie pruned against an
  // intermediate best would also be pruned against the final one; the
  // emission filter below re-checks survivors against the final best.
  double best = 0.0;
  scratch.ties.clear();
  stats.candidates_evaluated += scratch.touched.size();
  for (const std::uint32_t candidate : scratch.touched) {
    const std::uint32_t shared = scratch.counts[candidate];
    scratch.counts[candidate] = 0;
    const double value =
        similarity_from_sizes(metric, shared, elements.size(), to_side.set_size(candidate));
    if (value + detail::kTieEpsilon < best) continue;
    if (value > best) {
      best = value;
      std::erase_if(scratch.ties, [best](const ScanScratch::Tie& tie) {
        return tie.value + detail::kTieEpsilon < best;
      });
    }
    scratch.ties.push_back({candidate, shared, value});
  }
  scratch.touched.clear();
  if (best <= 0.0) return;
  emit_ties(from_side, to_side, from, source, best, scratch.ties, out, stats);
}

/// Source prefixes a worker claims per cursor fetch: large enough to
/// amortize the shared cursor, small enough to balance skewed set sizes.
inline constexpr std::size_t kChunk = 32;

/// Scans `sources` (dense ids on side `from`, each at most once) over
/// `pool`: workers claim chunks of kChunk from a shared cursor and call
/// `scan(from, source, scratch, out, stats)` with worker-local scratch,
/// output and counters. After the join the emitted pairs are appended
/// to `out` in source order, the worker counters are summed into `stats`
/// and every source counts once in `prefixes_scanned`, so the result is
/// independent of the thread count and of scheduling. Returns each
/// source's slice of `out`: sources[i] emitted out[offsets[i],
/// offsets[i + 1]). One trace span per worker (`<engine>.v4.shard<id>`,
/// category `engine`) shows shard skew.
template <typename Scan>
std::vector<std::size_t> scan_sharded(WorkerPool& pool, const DetectIndex& index, Family from,
                                      std::span<const std::uint32_t> sources,
                                      std::string_view engine, std::vector<SiblingPair>& out,
                                      DetectStats& stats, const Scan& scan) {
  // Cache-line aligned so one worker's counter writes never share a line
  // with its neighbour's.
  struct alignas(64) Worker {
    std::vector<SiblingPair> pairs;
    DetectStats stats;
  };
  /// Which worker claimed a chunk, and where its output starts in that
  /// worker's buffer.
  struct ChunkOwner {
    unsigned worker = 0;
    std::size_t offset = 0;
  };

  const std::size_t target_prefixes =
      index.side(from == Family::v4 ? Family::v6 : Family::v4).prefix_count();
  std::vector<Worker> workers(pool.thread_count());

  const std::size_t count = sources.size();
  std::vector<ChunkOwner> chunks((count + kChunk - 1) / kChunk);
  // Per-source emission counts until the join, then prefix-summed.
  std::vector<std::size_t> offsets(count + 1, 0);
  std::atomic<std::size_t> next{0};
  const std::string span_prefix =
      std::string(engine) + (from == Family::v4 ? ".v4.shard" : ".v6.shard");
  const std::function<void(unsigned)> job = [&](unsigned id) {
    const obs::ScopedSpan span(span_prefix + std::to_string(id), engine);
    // Built on the worker's own thread: built up front by the caller, it
    // made a cold 4-thread detection ~25% slower on a 4-core x86 host.
    ScanScratch scratch(target_prefixes);
    Worker& worker = workers[id];
    for (;;) {
      // sp-lint: atomics-ok(work-stealing chunk cursor; claims need no
      // ordering, only uniqueness — the pool join publishes results)
      const std::size_t begin = next.fetch_add(kChunk, std::memory_order_relaxed);
      if (begin >= count) return;
      const std::size_t end = std::min(count, begin + kChunk);
      chunks[begin / kChunk] = {id, worker.pairs.size()};
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t emitted_before = worker.pairs.size();
        scan(from, sources[i], scratch, worker.pairs, worker.stats);
        offsets[i + 1] = worker.pairs.size() - emitted_before;
      }
    }
  };
  pool.run(job);

  offsets[0] = out.size();
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  out.reserve(offsets.back());
  for (std::size_t chunk = 0; chunk < chunks.size(); ++chunk) {
    const std::size_t first = chunk * kChunk;
    const std::size_t emitted = offsets[std::min(count, first + kChunk)] - offsets[first];
    const auto begin = workers[chunks[chunk].worker].pairs.begin() +
                       static_cast<std::ptrdiff_t>(chunks[chunk].offset);
    out.insert(out.end(), begin, begin + static_cast<std::ptrdiff_t>(emitted));
  }
  for (const Worker& worker : workers) stats.add_counters(worker.stats);
  stats.prefixes_scanned += count;
  return offsets;
}

/// Every dense id of `side`, ascending: the source list of a full scan.
[[nodiscard]] inline std::vector<std::uint32_t> all_sources(const DetectIndex::Side& side) {
  std::vector<std::uint32_t> sources(side.prefix_count());
  std::iota(sources.begin(), sources.end(), 0u);
  return sources;
}

[[nodiscard]] inline double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

/// One-shot detection on the driver: every source of both directions,
/// then the global sort + dedup. Fills the counters and wall times of
/// `stats`.
template <typename Scan>
[[nodiscard]] std::vector<SiblingPair> detect_all(WorkerPool& pool, const DetectIndex& index,
                                                  std::string_view engine, DetectStats& stats,
                                                  const Scan& scan) {
  std::vector<SiblingPair> pairs;
  for (const Family from : {Family::v4, Family::v6}) {
    const auto start = std::chrono::steady_clock::now();
    scan_sharded(pool, index, from, all_sources(index.side(from)), engine, pairs, stats, scan);
    (from == Family::v4 ? stats.v4_direction_ms : stats.v6_direction_ms) = elapsed_ms(start);
  }
  const auto merge_start = std::chrono::steady_clock::now();
  sort_unique(pairs);
  stats.merge_ms = elapsed_ms(merge_start);
  return pairs;
}

}  // namespace sp::core::detail
