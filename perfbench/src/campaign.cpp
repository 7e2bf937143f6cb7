// Workload `campaign`: cold pipeline::Campaign runs (24 months, 3000
// orgs, 4 DAG workers, default stream detection), each in a fresh
// out_dir, back to back until the run's time is up.
//
// The universe is the project's default synthetic Internet (synth seed
// 42) for every workload seed. Campaign::run takes nothing but its
// config, and the campaign's cost moves by up to 30% between synth seeds,
// which would swamp any change; with one universe every run is the same
// work and its published lists have one recorded digest. The workload
// seed only names the runs' out_dirs.
//
// op_p50_ms is the median Campaign::run wall time; setup_s is the median
// time from the run() call to the first stage start (universe build and
// graph construction). The traced run alternates untraced and traced
// campaigns: traced ones install an obs::TraceRecorder for the phase
// spans the campaign already emits and fold the StageResult observer's
// stage walls into per-kind layer times.
#include <algorithm>
#include <cstdio>
#include <mutex>

#include "bench.h"
#include "obs/trace.h"
#include "pipeline/campaign.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kUniverseSeed = 42;
constexpr int kMonths = 24;
constexpr int kOrgs = 3000;

const char* const kStageKinds[] = {"evolve",  "export",  "corpus", "detect", "sptuner",
                                   "publish", "sibdb",   "sibdelta", "diff", "longitudinal"};
const char* const kPhaseSpans[] = {"evolve.read_rib", "evolve.replay",   "evolve.write",
                                   "export.render",   "export.write_csv", "sibdelta.load",
                                   "sibdelta.diff",   "sibdelta.write"};

struct StageDone {
  std::string kind;
  bool ok = false;
  double wall_ms = 0.0;
  Clock::time_point start, end;
};

struct CampaignRun {
  bool ok = false;
  std::string error;
  double wall_ms = 0.0;
  double setup_ms = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<StageDone> stages;
  std::vector<sp::obs::TraceEvent> phases;
  std::optional<std::uint64_t> digest;
};

CampaignRun run_once(const Options& options, const std::string& dir, bool traced) {
  remove_tree(dir);
  sp::pipeline::CampaignConfig config;
  config.synth.seed = kUniverseSeed;
  config.synth.months = kMonths;
  config.synth.organization_count = kOrgs;
  config.threads = kThreads;
  config.out_dir = dir;

  CampaignRun run;
  std::mutex mutex;
  const auto observer = [&](const sp::pipeline::StageResult& stage) {
    const Clock::time_point end = Clock::now();
    const auto wall = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(stage.wall_ms));
    const std::lock_guard<std::mutex> lock(mutex);
    run.stages.push_back({stage.name.substr(0, stage.name.find('[')),
                          stage.status == sp::pipeline::StageStatus::Done, stage.wall_ms,
                          end - wall, end});
  };

  sp::obs::TraceRecorder recorder;
  if (traced) sp::obs::TraceRecorder::set_active(&recorder);
  reset_peak_rss();
  const Clock::time_point start = Clock::now();
  const sp::pipeline::CampaignReport report = sp::pipeline::Campaign(config).run(false, observer);
  run.wall_ms = ms_since(start);
  run.peak_rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;
  if (traced) {
    sp::obs::TraceRecorder::set_active(nullptr);
    run.phases = recorder.events();
    if (!options.trace_dir.empty()) (void)recorder.write(options.trace_dir + "/campaign.json");
  }

  run.ok = report.ok;
  run.error = report.error;
  Clock::time_point first_start = Clock::now();
  for (const StageDone& stage : run.stages) first_start = std::min(first_start, stage.start);
  run.setup_ms = run.stages.empty() ? run.wall_ms : ms_between(start, first_start);
  run.digest = digest_files(dir, "siblings-", {".csv", ".sibdb"});
  remove_tree(dir);
  return run;
}

}  // namespace

Result run_campaign(const Options& options) {
  Result result;
  std::vector<double> wall_ms, setup_ms, rss_mb, traced_wall_ms, untraced_wall_ms;
  std::map<std::string, double> kind_ms, phase_ms;
  double stage_span_ms = 0.0, busy_ms = 0.0, traced_setup_ms = 0.0;
  int traced_runs = 0;
  std::optional<std::uint64_t> digest;

  const Clock::time_point start = Clock::now();
  // The traced run needs one campaign of each kind for the overhead.
  const int min_runs = options.trace ? 2 : 1;
  for (int i = 0; i < min_runs || ms_since(start) < options.seconds * 1000.0; ++i) {
    const bool traced = options.trace && i % 2 == 1;
    const CampaignRun run = run_once(options,
                                     options.work_dir + "/campaign-" +
                                         std::to_string(options.seed) + "-" + std::to_string(i),
                                     traced);

    result.check(run.ok, "campaign run failed: " + run.error);
    for (const StageDone& stage : run.stages) {
      result.check(stage.ok, "stage " + stage.kind + " did not complete");
    }
    if (result.check(run.digest.has_value(), "campaign produced no published lists")) {
      if (!digest) digest = run.digest;
      result.check(*run.digest == *digest, "campaign outputs differ between runs of one seed");
    }

    wall_ms.push_back(run.wall_ms);
    setup_ms.push_back(run.setup_ms);
    rss_mb.push_back(run.peak_rss_mb);
    (traced ? traced_wall_ms : untraced_wall_ms).push_back(run.wall_ms);
    if (!traced) continue;

    ++traced_runs;
    traced_setup_ms += run.setup_ms;
    Clock::time_point first = Clock::time_point::max(), last = Clock::time_point::min();
    for (const StageDone& stage : run.stages) {
      kind_ms[stage.kind] += stage.wall_ms;
      busy_ms += stage.wall_ms;
      first = std::min(first, stage.start);
      last = std::max(last, stage.end);
    }
    if (!run.stages.empty()) stage_span_ms += ms_between(first, last);
    for (const sp::obs::TraceEvent& event : run.phases) phase_ms[event.name] += event.dur_us / 1e3;
  }
  if (digest) check_digest(result, options, *digest);

  const double months_per_s = kMonths / (median(wall_ms) / 1e3);
  result.end_to_end["op_p50_ms"] = {median(wall_ms), "ms"};
  result.end_to_end["items_per_s"] = {months_per_s, "1/s"};
  result.end_to_end["setup_s"] = {median(setup_ms) / 1e3, "s"};
  result.end_to_end["peak_rss_mb"] = {median(rss_mb), "MB"};

  result.note("campaign_s", median(wall_ms) / 1e3, "s");
  result.note("campaigns_measured", static_cast<double>(wall_ms.size()), "count");
  result.note("setup_s", median(setup_ms) / 1e3, "s");
  result.note("peak_rss_mb", median(rss_mb), "MB");

  if (traced_runs > 0) {
    const double n = traced_runs;
    const double threads = kThreads;
    const double traced_ms = median(traced_wall_ms);
    for (const char* kind : kStageKinds) {
      result.layer(std::string("pipeline.") + kind + "_ms", kind_ms[kind] / n, "ms");
    }
    result.layer("pipeline.worker_busy_ratio",
                 stage_span_ms > 0 ? busy_ms / (threads * stage_span_ms) : 0.0, "ratio");
    result.layer("pipeline.setup_ms", traced_setup_ms / n, "ms");
    // campaign wall = setup + Σ stage wall ÷ threads + remainder: the
    // remainder is time workers sat idle on the DAG's critical path.
    result.layer("pipeline.remainder_ms", traced_ms - traced_setup_ms / n - busy_ms / n / threads,
                 "ms");
    for (const char* phase : kPhaseSpans) {
      result.layer(std::string(phase) + "_ms", phase_ms[phase] / n, "ms");
    }
    result.layer("mrt.read_ms", phase_ms["evolve.read_rib"] / n, "ms");
    result.layer("bgp.rib_build_ms", phase_ms["evolve.replay"] / n, "ms");
    result.layer("io.snapshot_csv_ms", phase_ms["export.write_csv"] / n, "ms");
    result.layer("core.corpus_build_ms", kind_ms["corpus"] / n, "ms");
    result.layer("core.detect_ms", kind_ms["detect"] / n, "ms");
    result.layer("core.sptuner_ms", kind_ms["sptuner"] / n, "ms");
    result.layer("core.list_write_ms", kind_ms["publish"] / n, "ms");
    result.layer("trace.op_ms", traced_ms, "ms");
    result.layer("trace.overhead_ms", traced_ms - median(untraced_wall_ms), "ms");
  }
  return result;
}

}  // namespace perfbench
