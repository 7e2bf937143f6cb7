// Sharded detection: the one loop that runs the exact per-source scan.
//
// detect_sibling_prefixes runs scan_sharded once per direction. Its scan
// is the one definition of candidate counting, similarity arithmetic and
// tie handling on the sharded path; the serial reference in detect.h is
// the oracle the equivalence harness holds it to.
#pragma once

#include <vector>

#include "core/detect.h"
#include "core/detect_index.h"
#include "core/worker_pool.h"

namespace sp::core::detail {

/// Scans every source prefix on side `from` of `index` against the other
/// side over `pool` and appends their best-match pairs, ties included,
/// to `out`. A source's pairs are exactly the ones
/// detail::detect_direction emits for it: a candidate is emitted iff its
/// value + kTieEpsilon >= the best value over all candidates, with the
/// same similarity_from_sizes doubles. Workers claim chunks of sources
/// from a shared cursor; after the join the chunks' pairs are appended
/// in source order, the worker counters are summed into `stats` and
/// every source counts once in `prefixes_scanned`, so the result is
/// independent of the thread count and of scheduling. One trace span per
/// worker (`detect.v4.shard<id>` / `detect.v6.shard<id>`, category
/// `detect`) shows shard skew.
void scan_sharded(WorkerPool& pool, const DetectIndex& index, Family from, Metric metric,
                  std::vector<SiblingPair>& out, DetectStats& stats);

}  // namespace sp::core::detail
