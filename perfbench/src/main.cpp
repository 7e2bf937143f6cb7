// perfbench_runner — runs one benchmark workload and prints its result.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --work-dir <dir> --serve-bin <sp_serve> [--trace-dir <dir>]
//                    [--expect-digest <hex>] [--stamp <text>]
//
// run.py builds this runner and passes the flags. Human-readable lines
// come first; the last stdout line is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

// Every per-layer metric the benchmark defines; each traced run prints all
// of them, and a layer the workload's measured path never calls reads 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"pipeline.evolve_ms", "ms"},        {"pipeline.export_ms", "ms"},
    {"pipeline.corpus_ms", "ms"},        {"pipeline.detect_ms", "ms"},
    {"pipeline.sptuner_ms", "ms"},       {"pipeline.publish_ms", "ms"},
    {"pipeline.sibdb_ms", "ms"},         {"pipeline.sibdelta_ms", "ms"},
    {"pipeline.diff_ms", "ms"},          {"pipeline.longitudinal_ms", "ms"},
    {"pipeline.worker_busy_ratio", "ratio"}, {"pipeline.setup_ms", "ms"},
    {"pipeline.remainder_ms", "ms"},     {"evolve.read_rib_ms", "ms"},
    {"evolve.replay_ms", "ms"},          {"evolve.write_ms", "ms"},
    {"export.render_ms", "ms"},          {"export.write_csv_ms", "ms"},
    {"sibdelta.load_ms", "ms"},          {"sibdelta.diff_ms", "ms"},
    {"sibdelta.write_ms", "ms"},         {"mrt.read_ms", "ms"},
    {"bgp.rib_build_ms", "ms"},          {"io.snapshot_csv_ms", "ms"},
    {"core.corpus_build_ms", "ms"},      {"core.detect_ms", "ms"},
    {"core.detect_candidates", "count"}, {"core.sptuner_ms", "ms"},
    {"core.sptuner_changed", "count"},   {"core.list_write_ms", "ms"},
    {"serve.sibdb_convert_ms", "ms"},    {"publish.remainder_ms", "ms"},
    {"serve.db_load_ms", "ms"},          {"serve.engine_build_ms", "ms"},
    {"serve.service_load_ms", "ms"},     {"serve.snapshot_rss_mb", "MB"},
    {"stream.delta_reload_ms", "ms"},    {"serve.lookup_v4_ns", "ns"},
    {"serve.lookup_v6_ns", "ns"},        {"serve.lookup_prefix_ns", "ns"},
    {"serve.batch_ns_per_key", "ns"},    {"serve.mixed_ns_per_key", "ns"},
    {"serve.frame_lookup_us", "us"},     {"serve.hit_ratio", "ratio"},
    {"net.decode_request_ns", "ns"},     {"net.encode_response_ns", "ns"},
    {"net.server_frame_p50_us", "us"},   {"net.queue_wire_us", "us"},
    {"net.frame_p99_us", "us"},          {"net.frames_in", "count"},
    {"net.reads_paused", "count"},       {"net.remainder_us", "us"},
    {"loadgen.late_p99_us", "us"},       {"loadgen.max_outstanding", "count"},
    {"trace.op_ms", "ms"},               {"trace.overhead_ms", "ms"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload <campaign|publish-scale|serve-reload> "
               "--seed N --seconds S --trace 0|1 --work-dir DIR --serve-bin PATH "
               "[--trace-dir DIR] [--expect-digest HEX] [--stamp TEXT]\n");
  return 2;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

std::string json_metrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + json_number(metric.value) + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string stamp;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--work-dir") options.work_dir = value;
    else if (flag == "--trace-dir") options.trace_dir = value;
    else if (flag == "--serve-bin") options.serve_bin = value;
    else if (flag == "--expect-digest") options.expect_digest = value;
    else if (flag == "--stamp") stamp = value;
    else return usage();
  }
  if (argc % 2 == 0 || options.work_dir.empty() || options.seconds <= 0) return usage();
  if (!perfbench::make_dirs(options.work_dir)) {
    std::fprintf(stderr, "cannot create %s\n", options.work_dir.c_str());
    return 1;
  }

  std::printf("stamp %s build=%s compiler=\"%s\" nproc=%u workload=%s seed=%llu seconds=%g "
              "trace=%d\n",
              stamp.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              std::thread::hardware_concurrency(), options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  Result result;
  if (options.workload == "campaign") result = perfbench::run_campaign(options);
  else if (options.workload == "publish-scale") result = perfbench::run_publish(options);
  else if (options.workload == "serve-reload") result = perfbench::run_serve_reload(options);
  else return usage();
  perfbench::remove_tree(options.work_dir);

  for (const auto& [name, metric] : result.report) {
    std::printf("metric %-28s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& failure : result.failures) std::printf("FAILED %s\n", failure.c_str());
  std::printf("fail_ratio %.6g (%llu of %llu checked operations)\n",
              result.attempted == 0 ? 0.0
                                    : static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  std::map<std::string, Metric> metrics;
  if (options.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = result.layers.find(name);
      metrics[name] = it != result.layers.end() ? it->second : Metric{0.0, unit};
    }
  } else {
    metrics = result.end_to_end;
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(result.attempted, 1)),
              static_cast<unsigned long long>(result.failed), json_metrics(metrics).c_str());
  return 0;
}
