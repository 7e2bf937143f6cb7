// Detection-at-scale benchmarks (google-benchmark): the exact engine vs
// the sketch engine (bottom-k MinHash signatures + LSH banding,
// DESIGN.md §3.7) on the synthetic universe at scale 1 (today's corpus)
// and scale 10 (replicated hypergiant edge clusters — the paper-scale
// regime the sketch filter exists for). Both engines produce
// byte-identical output; BM_Identity asserts it inside the bench so the
// checked-in numbers always come from a verified run.
//
// `--json out.json` writes google-benchmark JSON (see bench_json_main.h);
// BENCH_sketch.json at the repo root is a checked-in run of this binary:
//
//   ./build/bench/bench_sketch --json BENCH_sketch.json
//
// The scale-10 universe takes minutes to build and several GB of RSS, so
// each scale's corpus is built once and shared across benchmarks, and the
// scale-10 timings run a single iteration.
#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <memory>

#include "bench_json_main.h"
#include "core/detect.h"
#include "sketch/detect_sketch.h"
#include "synth/universe.h"

namespace {

using namespace sp;

/// One corpus + flattened index per scale, built lazily and cached.
/// DualStackCorpus owns its data, so the multi-GB universe is dropped as
/// soon as the build finishes.
struct ScaledCorpus {
  core::DualStackCorpus corpus;
  core::DetectIndex index;
};

const ScaledCorpus& corpus_at(int scale) {
  static std::map<int, std::unique_ptr<ScaledCorpus>> cache;
  auto& slot = cache[scale];
  if (!slot) {
    synth::SynthConfig config;
    config.scale = scale;
    const synth::SyntheticInternet universe(config);
    const auto snapshot = universe.snapshot_at(universe.month_count() - 1);
    auto corpus = core::DualStackCorpus::build(snapshot, universe.rib());
    auto index = corpus.detect_index();
    slot = std::make_unique<ScaledCorpus>(
        ScaledCorpus{std::move(corpus), std::move(index)});
  }
  return *slot;
}

void BM_DetectExact(benchmark::State& state) {
  const auto& corpus = corpus_at(static_cast<int>(state.range(0))).corpus;
  core::DetectStats stats;
  std::size_t pairs = 0;
  for (auto _ : state) {
    const auto result =
        core::detect_sibling_prefixes(corpus, {.threads = 1, .stats = &stats});
    pairs = result.size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["candidates_evaluated"] = static_cast<double>(stats.candidates_evaluated);
  spbench::record_peak_rss(state);
}
BENCHMARK(BM_DetectExact)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DetectExact)->Arg(10)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_DetectSketch(benchmark::State& state) {
  const auto& corpus = corpus_at(static_cast<int>(state.range(0))).corpus;
  core::DetectStats stats;
  std::size_t pairs = 0;
  for (auto _ : state) {
    const auto result =
        sketch::detect_sibling_prefixes(corpus, {.threads = 1, .stats = &stats});
    pairs = result.size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["signature_build_ms"] = stats.signature_build_ms;
  state.counters["sources_total"] = static_cast<double>(stats.prefixes_scanned);
  state.counters["sources_fallback"] = static_cast<double>(stats.sources_fallback);
  state.counters["lsh_candidates"] = static_cast<double>(stats.lsh_candidates);
  state.counters["estimates_skipped"] = static_cast<double>(stats.estimates_skipped);
  state.counters["survivors_verified"] = static_cast<double>(stats.survivors_verified);
  state.counters["max_estimate_error"] = stats.max_estimate_error;
  spbench::record_peak_rss(state);
}
BENCHMARK(BM_DetectSketch)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DetectSketch)->Arg(10)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_SignatureBuild(benchmark::State& state) {
  const auto& index = corpus_at(static_cast<int>(state.range(0))).index;
  for (auto _ : state) {
    const auto sketch_index = sketch::SketchIndex::build(index, {});
    benchmark::DoNotOptimize(&sketch_index);
  }
  state.counters["v4_prefixes"] = static_cast<double>(index.v4.prefix_count());
  state.counters["v6_prefixes"] = static_cast<double>(index.v6.prefix_count());
}
BENCHMARK(BM_SignatureBuild)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SignatureBuild)->Arg(10)->Iterations(1)->Unit(benchmark::kMillisecond);

/// Not a timing benchmark: runs both engines once at the given scale and
/// fails the bench if any pair (or its similarity, byte-compared) differs,
/// so a checked-in BENCH_sketch.json certifies identity at every scale it
/// reports.
void BM_Identity(benchmark::State& state) {
  const auto& corpus = corpus_at(static_cast<int>(state.range(0))).corpus;
  std::size_t mismatches = 0;
  for (auto _ : state) {
    const auto exact = core::detect_sibling_prefixes(corpus, {.threads = 1});
    const auto sketched = sketch::detect_sibling_prefixes(corpus, {.threads = 1});
    if (exact.size() != sketched.size()) {
      ++mismatches;
    } else {
      for (std::size_t i = 0; i < exact.size(); ++i) {
        if (sketched[i].v4 != exact[i].v4 || sketched[i].v6 != exact[i].v6 ||
            std::memcmp(&sketched[i].similarity, &exact[i].similarity,
                        sizeof(double)) != 0) {
          ++mismatches;
          break;
        }
      }
    }
  }
  if (mismatches != 0) {
    state.SkipWithError("sketch output diverged from exact");
    return;
  }
  state.counters["mismatches"] = 0.0;
}
BENCHMARK(BM_Identity)->Arg(1)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Identity)->Arg(10)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) { return spbench::benchmark_json_main(argc, argv); }
