// Sharded detection: the one loop that runs the exact per-source scan.
//
// The batch engine (detect_sibling_prefixes) scans every source of both
// directions; the stream engine (sp::stream) re-scans only the sources a
// delta touched. Both go through scan_sharded, whose scan is the one
// definition of candidate counting, similarity arithmetic and tie
// handling, so the engines can never drift in any of them, nor in
// sharding or counter merging.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <string_view>
#include <vector>

#include "core/detect.h"
#include "core/detect_index.h"
#include "core/worker_pool.h"

namespace sp::core::detail {

/// Scans `sources` (dense ids on side `from`, each at most once) against
/// the other side of `index` over `pool` and appends their best-match
/// pairs, ties included, to `out`. A source's pairs are exactly the
/// ones detail::detect_direction emits for it: a candidate is emitted
/// iff its value + kTieEpsilon >= the best value over all candidates,
/// with the same similarity_from_sizes doubles. Workers claim chunks of
/// sources from a shared cursor; after the join the pairs are appended
/// in source order, the worker counters are summed into `stats` and
/// every source counts once in `prefixes_scanned`, so the result is
/// independent of the thread count and of scheduling. Returns each
/// source's slice of `out`: sources[i] emitted out[offsets[i],
/// offsets[i + 1]). One trace span per worker (`<engine>.v4.shard<id>`,
/// category `engine`) shows shard skew.
std::vector<std::size_t> scan_sharded(WorkerPool& pool, const DetectIndex& index, Family from,
                                      std::span<const std::uint32_t> sources, Metric metric,
                                      std::string_view engine, std::vector<SiblingPair>& out,
                                      DetectStats& stats);

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

}  // namespace sp::core::detail
