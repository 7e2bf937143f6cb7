// Campaign-runner benchmarks (google-benchmark): the same synthetic
// multi-month campaign executed three ways —
//   * serial: a 1-thread pool, the whole DAG inline in topological order;
//   * dag: a multi-worker pool, independent months pipelining so CPU work
//     overlaps the checkpoint fsync waits (on a single-core host the win
//     is exactly that overlap — durability I/O no longer serializes the
//     schedule);
//   * warm_resume: every checkpoint valid, measuring the fixed cost of a
//     no-op resume (universe rebuild + hash validation of every artifact).
//
// A console tool: perfbench's `campaign` workload is the benchmark of
// record for the campaign path (perfbench/README.md).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "pipeline/campaign.h"

namespace {

using namespace sp;

pipeline::CampaignConfig bench_config(std::string dir, unsigned threads) {
  pipeline::CampaignConfig config;
  config.synth.months = 6;
  config.synth.organization_count = 80;
  config.synth.probe_count = 100;
  config.threads = threads;
  config.out_dir = std::move(dir);
  return config;
}

void report_counters(benchmark::State& state, const pipeline::CampaignReport& report) {
  state.counters["stages"] =
      static_cast<double>(report.done_count + report.cached_count);
  state.counters["cached"] = static_cast<double>(report.cached_count);
}

void run_cold(benchmark::State& state, unsigned threads) {
  const std::string dir =
      "/tmp/sp_bench_pipeline_t" + std::to_string(threads);
  pipeline::CampaignReport report;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
    report = pipeline::Campaign(bench_config(dir, threads)).run(/*resume=*/false);
    if (!report.ok) {
      state.SkipWithError(report.error.empty() ? "campaign failed" : report.error.c_str());
      return;
    }
  }
  report_counters(state, report);
}

void BM_CampaignSerial(benchmark::State& state) { run_cold(state, 1); }
BENCHMARK(BM_CampaignSerial)->Unit(benchmark::kMillisecond);

void BM_CampaignDag(benchmark::State& state) {
  run_cold(state, static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_CampaignDag)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CampaignWarmResume(benchmark::State& state) {
  const std::string dir = "/tmp/sp_bench_pipeline_resume";
  std::filesystem::remove_all(dir);
  const auto primed = pipeline::Campaign(bench_config(dir, 4)).run(/*resume=*/false);
  if (!primed.ok) {
    state.SkipWithError("priming run failed");
    return;
  }
  pipeline::CampaignReport report;
  for (auto _ : state) {
    report = pipeline::Campaign(bench_config(dir, 4)).run(/*resume=*/true);
    if (!report.ok || report.done_count != 0) {
      state.SkipWithError("warm resume re-ran stages");
      return;
    }
  }
  report_counters(state, report);
}
BENCHMARK(BM_CampaignWarmResume)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
