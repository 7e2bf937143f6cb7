#include "sketch/detect_sketch.h"

#include <chrono>

#include "core/detect_scan.h"
#include "obs/metrics.h"

namespace sp::sketch {

SketchIndex SketchIndex::build(const core::DetectIndex& index, const SketchParams& params,
                               core::WorkerPool* pool) {
  SketchIndex sketch;
  sketch.params_ = params;
  sketch.v4_signatures_ = SignatureSet::build(index.v4, params, pool);
  sketch.v6_signatures_ = SignatureSet::build(index.v6, params, pool);
  sketch.v4_lsh_ = LshIndex::build(sketch.v4_signatures_);
  sketch.v6_lsh_ = LshIndex::build(sketch.v6_signatures_);
  return sketch;
}

namespace {

std::vector<core::SiblingPair> detect_indexed(const core::DetectIndex& index,
                                              const core::DetectOptions& options,
                                              const SketchParams& params) {
  const auto run_start = std::chrono::steady_clock::now();
  core::WorkerPool pool(options.threads);
  core::DetectStats stats;
  stats.threads_used = pool.thread_count();

  const auto signature_start = std::chrono::steady_clock::now();
  const SketchIndex sketch = SketchIndex::build(index, params, &pool);
  stats.signature_build_ms = core::detail::elapsed_ms(signature_start);

  auto pairs = core::detail::detect_all(
      pool, index, "sketch", stats,
      [&](Family from, std::uint32_t source, core::detail::ScanScratch& scratch,
          std::vector<core::SiblingPair>& out, core::DetectStats& local) {
        const Family to = from == Family::v4 ? Family::v6 : Family::v4;
        scan_source_sketch(index.side(from), index.side(to), sketch.signatures(from),
                           sketch.signatures(to), sketch.lsh(to), params, from, options.metric,
                           source, scratch, out, local);
      });

  // Registry updates once per run: candidate-filter selectivity, estimate
  // error and exact-verify rate, per the observability contract.
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("sketch.runs").add();
  registry.counter("sketch.sources").add(static_cast<std::int64_t>(stats.prefixes_scanned));
  registry.counter("sketch.sources_fallback")
      .add(static_cast<std::int64_t>(stats.sources_fallback));
  registry.counter("sketch.lsh_candidates").add(static_cast<std::int64_t>(stats.lsh_candidates));
  registry.counter("sketch.estimates_skipped")
      .add(static_cast<std::int64_t>(stats.estimates_skipped));
  registry.counter("sketch.survivors_verified")
      .add(static_cast<std::int64_t>(stats.survivors_verified));
  registry.counter("sketch.pairs_emitted").add(static_cast<std::int64_t>(pairs.size()));
  registry.histogram("sketch.estimate_error_ppm")
      .record(static_cast<std::uint64_t>(stats.max_estimate_error * 1e6));
  registry.histogram("sketch.run_us")
      .record(static_cast<std::uint64_t>(core::detail::elapsed_ms(run_start) * 1000.0));
  if (options.stats != nullptr) *options.stats = stats;
  return pairs;
}

}  // namespace

std::vector<core::SiblingPair> detect_sibling_prefixes(const core::DualStackCorpus& corpus,
                                                       const core::DetectOptions& options,
                                                       const SketchParams& params) {
  return detect_indexed(corpus.detect_index(), options, params);
}

std::vector<core::SiblingPair> detect_sibling_prefixes(const core::SetCorpus& corpus,
                                                       const core::DetectOptions& options,
                                                       const SketchParams& params) {
  return detect_indexed(corpus.detect_index(), options, params);
}

}  // namespace sp::sketch
