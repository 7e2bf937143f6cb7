#include "core/detect_scan.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "obs/trace.h"

namespace sp::core::detail {

namespace {

/// Per-worker reusable state: candidate counts indexed by the target
/// side's dense prefix id, a touched list so resets cost O(candidates),
/// and the surviving tie list of the current source prefix.
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
};

/// Appends the best-match pairs of `source` (with ties) to `out`.
/// Semantically identical to one iteration of detail::detect_direction,
/// so emission is byte-identical. `prefixes_scanned` is the driver's to
/// count, once per source.
void scan_source(const DetectIndex::Side& from_side, const DetectIndex::Side& to_side,
                 Family from, Metric metric, std::uint32_t source, ScanScratch& scratch,
                 std::vector<SiblingPair>& out, DetectStats& stats) {
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
    if (value + kTieEpsilon < best) continue;
    if (value > best) {
      best = value;
      std::erase_if(scratch.ties, [best](const ScanScratch::Tie& tie) {
        return tie.value + kTieEpsilon < best;
      });
    }
    scratch.ties.push_back({candidate, shared, value});
  }
  scratch.touched.clear();
  if (best <= 0.0) return;

  const bool from_v4 = from == Family::v4;
  const Prefix& source_prefix = from_side.prefixes[source];
  const std::uint32_t source_size = from_side.set_size(source);
  for (const ScanScratch::Tie& tie : scratch.ties) {
    if (tie.value + kTieEpsilon < best) continue;
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

/// Source prefixes a worker claims per cursor fetch: large enough to
/// amortize the shared cursor, small enough to balance skewed set sizes.
constexpr std::size_t kChunk = 32;

}  // namespace

void scan_sharded(WorkerPool& pool, const DetectIndex& index, Family from, Metric metric,
                  std::vector<SiblingPair>& out, DetectStats& stats) {
  // Cache-line aligned so one worker's counter writes never share a line
  // with its neighbour's.
  struct alignas(64) Worker {
    std::vector<SiblingPair> pairs;
    DetectStats stats;
  };
  /// Which worker scanned a chunk, and the slice of that worker's buffer
  /// that holds the chunk's pairs.
  struct Chunk {
    unsigned worker = 0;
    std::size_t offset = 0;
    std::size_t emitted = 0;
  };

  const DetectIndex::Side& from_side = index.side(from);
  const DetectIndex::Side& to_side = index.side(from == Family::v4 ? Family::v6 : Family::v4);
  std::vector<Worker> workers(pool.thread_count());

  const std::size_t count = from_side.prefix_count();
  std::vector<Chunk> chunks((count + kChunk - 1) / kChunk);
  std::atomic<std::size_t> next{0};
  const std::string span_prefix = from == Family::v4 ? "detect.v4.shard" : "detect.v6.shard";
  const std::function<void(unsigned)> job = [&](unsigned id) {
    const obs::ScopedSpan span(span_prefix + std::to_string(id), "detect");
    // Built on the worker's own thread: built up front by the caller, it
    // made a cold 4-thread detection ~25% slower on a 4-core x86 host.
    ScanScratch scratch(to_side.prefix_count());
    Worker& worker = workers[id];
    for (;;) {
      // sp-lint: atomics-ok(work-stealing chunk cursor; claims need no
      // ordering, only uniqueness — the pool join publishes results)
      const std::size_t begin = next.fetch_add(kChunk, std::memory_order_relaxed);
      if (begin >= count) return;
      const std::size_t end = std::min(count, begin + kChunk);
      const std::size_t offset = worker.pairs.size();
      for (std::size_t source = begin; source < end; ++source) {
        scan_source(from_side, to_side, from, metric, static_cast<std::uint32_t>(source),
                    scratch, worker.pairs, worker.stats);
      }
      chunks[begin / kChunk] = {id, offset, worker.pairs.size() - offset};
    }
  };
  pool.run(job);

  std::size_t total = out.size();
  for (const Chunk& chunk : chunks) total += chunk.emitted;
  out.reserve(total);
  for (const Chunk& chunk : chunks) {
    const auto begin =
        workers[chunk.worker].pairs.begin() + static_cast<std::ptrdiff_t>(chunk.offset);
    out.insert(out.end(), begin, begin + static_cast<std::ptrdiff_t>(chunk.emitted));
  }
  for (const Worker& worker : workers) stats.add_counters(worker.stats);
  stats.prefixes_scanned += count;
}

}  // namespace sp::core::detail
