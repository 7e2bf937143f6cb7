// Incremental vs from-scratch detection (google-benchmark).
// BM_DetectScratch re-runs the exact engine on a month's corpus;
// BM_StreamApplyLowChurn applies a single-edge delta to a warm
// StreamDetector — the warm rolling path, which must come out ≥5×
// faster — and BM_StreamApplyMonthDelta applies a real synth month
// boundary. BM_StreamInit prices the cold start a resume gap pays.
//
// A console tool: perfbench's `campaign` workload, whose detect stages
// chain this engine, is the benchmark of record (perfbench/README.md).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/corpus_delta.h"
#include "core/detect.h"
#include "stream/stream_detector.h"
#include "synth/universe.h"

namespace {

using namespace sp;

/// The bench fixture: two consecutive monthly indexes plus a synthetic
/// "low churn" month (one fresh domain on one prefix of month 1). Built
/// once, shared by every benchmark.
struct Months {
  core::DetectIndex month0;
  core::DetectIndex month1;
  core::DetectIndex month1_low_churn;
  core::CorpusDelta boundary;       // month0 → month1
  core::CorpusDelta boundary_back;  // month1 → month0
  core::CorpusDelta low_fwd;        // month1 → month1_low_churn
  core::CorpusDelta low_back;
  std::size_t month1_pairs = 0;
};

/// The index's (prefix, element) edges, both sides, so the low-churn
/// variant can be rebuilt with one edge added.
std::vector<core::DetectIndex::Edge> edges_of(const core::DetectIndex& index) {
  std::vector<core::DetectIndex::Edge> edges;
  for (const core::DetectIndex::Side* side : {&index.v4, &index.v6}) {
    for (std::uint32_t dense = 0; dense < side->prefix_count(); ++dense) {
      for (const core::DomainId id : side->elements_of(dense)) {
        edges.push_back({side->prefixes[dense], id});
      }
    }
  }
  return edges;
}

const Months& months() {
  static std::unique_ptr<Months> cache;
  if (!cache) {
    cache = std::make_unique<Months>();
    synth::SynthConfig config;
    config.months = 2;
    config.organization_count = 12000;
    const synth::SyntheticInternet universe(config);
    const auto corpus0 = core::DualStackCorpus::build(universe.snapshot_at(0), universe.rib());
    const auto corpus1 = core::DualStackCorpus::build(universe.snapshot_at(1), universe.rib());
    cache->month0 = corpus0.detect_index();
    cache->month1 = corpus1.detect_index();

    // One fresh v4 element (past every v4 id) on the first v4 prefix.
    auto edges = edges_of(cache->month1);
    const auto fresh = static_cast<core::DomainId>(cache->month1.v4.element_count());
    edges.push_back({cache->month1.v4.prefixes.front(), fresh});
    cache->month1_low_churn = core::DetectIndex::build(std::move(edges));

    cache->boundary = core::CorpusDelta::between(cache->month0, cache->month1);
    cache->boundary_back = core::CorpusDelta::between(cache->month1, cache->month0);
    cache->low_fwd = core::CorpusDelta::between(cache->month1, cache->month1_low_churn);
    cache->low_back = core::CorpusDelta::between(cache->month1_low_churn, cache->month1);
  }
  return *cache;
}

/// The from-scratch baseline both stream paths are measured against.
void BM_DetectScratch(benchmark::State& state) {
  const Months& fixture = months();
  std::size_t pairs = 0;
  for (auto _ : state) {
    core::SetCorpus scratch;  // corpus rebuild is part of the cold cost
    for (std::uint32_t d = 0; d < fixture.month1.v4.prefix_count(); ++d) {
      for (const core::DomainId id : fixture.month1.v4.elements_of(d)) {
        scratch.add(fixture.month1.v4.prefixes[d], id);
      }
    }
    for (std::uint32_t d = 0; d < fixture.month1.v6.prefix_count(); ++d) {
      for (const core::DomainId id : fixture.month1.v6.elements_of(d)) {
        scratch.add(fixture.month1.v6.prefixes[d], id);
      }
    }
    scratch.finalize();
    const auto result = core::detect_sibling_prefixes(
        scratch, {.threads = static_cast<unsigned>(state.range(0))});
    pairs = result.size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}
BENCHMARK(BM_DetectScratch)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_StreamInit(benchmark::State& state) {
  const Months& fixture = months();
  stream::StreamDetector detector(
      {.threads = static_cast<unsigned>(state.range(0))});
  for (auto _ : state) {
    detector.init(fixture.month1);
    benchmark::DoNotOptimize(detector.pairs().size());
  }
  state.counters["pairs"] = static_cast<double>(detector.pairs().size());
}
BENCHMARK(BM_StreamInit)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// The warm rolling path on a low-churn month: one changed edge, two
/// applies per iteration (forward + back, so every iteration sees the
/// same state). The per-apply time is it half this benchmark's time.
void BM_StreamApplyLowChurn(benchmark::State& state) {
  const Months& fixture = months();
  stream::StreamDetector detector(
      {.threads = static_cast<unsigned>(state.range(0))});
  detector.init(fixture.month1);
  std::size_t dirty = 0;
  for (auto _ : state) {
    detector.apply(fixture.low_fwd);
    detector.apply(fixture.low_back);
    dirty = detector.last_stats().dirty_v4 + detector.last_stats().dirty_v6;
    benchmark::DoNotOptimize(detector.pairs().size());
  }
  state.counters["pairs"] = static_cast<double>(detector.pairs().size());
  state.counters["dirty_sources"] = static_cast<double>(dirty);
  state.counters["sources_total"] =
      static_cast<double>(detector.last_stats().sources_total);
  state.counters["applies_per_iter"] = 2.0;
  state.counters["apply_index_ms"] = detector.last_stats().apply_index_ms;
  state.counters["rescan_ms"] = detector.last_stats().rescan_ms;
  state.counters["merge_ms"] = detector.last_stats().merge_ms;
}
BENCHMARK(BM_StreamApplyLowChurn)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// A real synth month boundary (every dataset event of the month).
void BM_StreamApplyMonthDelta(benchmark::State& state) {
  const Months& fixture = months();
  stream::StreamDetector detector(
      {.threads = static_cast<unsigned>(state.range(0))});
  detector.init(fixture.month0);
  bool forward = true;
  std::size_t edges = 0;
  for (auto _ : state) {
    detector.apply(forward ? fixture.boundary : fixture.boundary_back);
    forward = !forward;
    edges = detector.last_stats().delta_edges;
    benchmark::DoNotOptimize(detector.pairs().size());
  }
  state.counters["delta_edges"] = static_cast<double>(edges);
  state.counters["dirty_sources"] = static_cast<double>(
      detector.last_stats().dirty_v4 + detector.last_stats().dirty_v6);
  state.counters["full_rescan"] = detector.last_stats().full_rescan ? 1.0 : 0.0;
}
BENCHMARK(BM_StreamApplyMonthDelta)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
