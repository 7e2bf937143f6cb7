// sp_pipeline — the whole system as one command-line tool.
//
// Campaign mode runs the paper's longitudinal workflow as a checkpointed
// stage DAG (src/pipeline): one RIB + snapshot + corpus + detection +
// SP-Tuner + published list + .sibdb per month, consecutive-release
// diffs, and a final longitudinal series. A killed run resumes from its
// manifest, re-running only incomplete stages; the dated .sibdb outputs
// are directly RELOAD-able by sp_serve.
//
//   sp_pipeline run <out_dir> [--months N] [--orgs N] [--seed S]
//                   [--threads T] [--v4 N] [--v6 N] [--trace FILE]
//   sp_pipeline resume <out_dir> [--threads T] [--trace FILE]
//   sp_pipeline status <out_dir>                 # per-stage manifest table;
//                                                # re-hashes artifacts and
//                                                # reports deleted/corrupted
//                                                # outputs as "stale"
//
// Detection runs incrementally: each month applies a corpus delta to the
// previous month's warm detector state and re-scores only the affected
// prefixes; the pairs CSVs are byte-identical to a from-scratch run.
// Consecutive .sibdb snapshots are additionally diffed into
// delta-<date>.spdl patch files sp_serve can RELOAD directly.
//
// --trace writes a Chrome-trace-format JSON of every stage execution
// (one span per stage, on the worker that ran it) — load it in Perfetto
// or chrome://tracing to see the DAG schedule.
//
// One-shot mode consumes the two files a real deployment would feed it —
// an MRT TABLE_DUMP_V2 RIB dump (Routeviews format) and a
// resolution-snapshot CSV (see io/snapshot_csv.h) — and runs detection +
// SP-Tuner to a sibling-prefix list CSV:
//
//   sp_pipeline <rib.mrt> <snapshot.csv> <out.csv> [v4_threshold v6_threshold]
//   sp_pipeline --demo                # generate inputs, then run on them
//
// Campaign runs stop gracefully on SIGINT/SIGTERM: the in-flight stage
// finishes, everything not yet started is recorded as skipped, and the
// manifest stays resumable — `sp_pipeline resume <out_dir>` converges to
// the byte-identical artifacts of an uninterrupted run.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/detect.h"
#include "core/sibling_list_io.h"
#include "core/sptuner.h"
#include "dns/zonefile.h"
#include "io/snapshot_csv.h"
#include "mrt/file.h"
#include "pipeline/campaign.h"
#include "synth/universe.h"

#include <unordered_map>
#include <unordered_set>

using namespace sp;

namespace {

int run(const std::string& mrt_path, const std::string& snapshot_path,
        const std::string& out_path, unsigned v4_threshold, unsigned v6_threshold) {
  std::string error;
  const auto records = mrt::read_file(mrt_path, &error);
  if (!records) {
    std::fprintf(stderr, "error: cannot read %s: %s\n", mrt_path.c_str(), error.c_str());
    return 1;
  }
  const auto rib = bgp::Rib::from_mrt(*records);
  std::printf("RIB: %zu prefixes from %zu MRT records\n", rib.prefix_count(),
              records->size());

  // Input flexibility: a ".zone" master file is resolved into a snapshot
  // (every owner name queried through the zone's CNAME chains); anything
  // else is read as a snapshot CSV.
  std::optional<dns::ResolutionSnapshot> snapshot;
  if (snapshot_path.ends_with(".zone")) {
    dns::ZoneDatabase zones;
    const auto parsed = dns::parse_zone_file(snapshot_path, zones);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s:%zu: %s\n", snapshot_path.c_str(),
                   parsed.error->line, parsed.error->message.c_str());
      return 1;
    }
    std::unordered_set<dns::DomainName> owners;
    zones.visit_records([&owners](const dns::ResourceRecord& record) {
      if (record.type == dns::RecordType::A || record.type == dns::RecordType::AAAA ||
          record.type == dns::RecordType::CNAME) {
        owners.insert(record.name);
      }
    });
    const std::vector<dns::DomainName> queries(owners.begin(), owners.end());
    snapshot = dns::ResolutionSnapshot::resolve_all(zones, queries, Date{2024, 9, 11});
    std::printf("zone %s: %zu records -> %zu resolvable names\n", snapshot_path.c_str(),
                parsed.records_added, snapshot->domain_count());
  } else {
    snapshot = io::read_snapshot_csv(snapshot_path);
  }
  if (!snapshot) {
    std::fprintf(stderr, "error: cannot parse snapshot %s\n", snapshot_path.c_str());
    return 1;
  }
  std::printf("snapshot %s: %zu domains, %zu dual-stack\n",
              snapshot->date().to_string().c_str(), snapshot->domain_count(),
              snapshot->dual_stack_count());

  const auto corpus = core::DualStackCorpus::build(*snapshot, rib);
  const auto& stats = corpus.stats();
  std::printf("corpus: %zu DS identities on %zu v4 / %zu v6 prefixes, %zu v4 / %zu v6 hosts,"
              " %zu host-domain edges (%zu reserved addresses discarded, %zu unmapped)\n",
              corpus.ds_domain_count(), stats.v4_prefixes, stats.v6_prefixes, stats.v4_hosts,
              stats.v6_hosts, stats.host_domain_edges, stats.discarded_reserved,
              stats.unmapped_addresses);

  auto pairs = core::detect_sibling_prefixes(corpus);
  std::printf("detected %zu sibling pairs (BGP-announced sizes)\n", pairs.size());

  if (v4_threshold != 0) {
    const core::SpTunerMs tuner(corpus,
                                {.v4_threshold = v4_threshold, .v6_threshold = v6_threshold});
    auto result = tuner.tune_all(pairs);
    std::printf("SP-Tuner(/%u,/%u): %zu pairs, %zu inputs refined\n", v4_threshold,
                v6_threshold, result.pairs.size(), result.changed_count);
    pairs = std::move(result.pairs);
  }

  if (!core::write_sibling_list(out_path, pairs)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %zu pairs to %s\n", pairs.size(), out_path.c_str());
  return 0;
}

int demo() {
  std::printf("--demo: generating synthetic inputs\n");
  synth::SynthConfig config;
  config.organization_count = 500;
  config.months = 2;
  const synth::SyntheticInternet universe(config);
  if (!mrt::write_file("demo_rib.mrt", universe.mrt_dump())) return 1;
  if (!io::write_snapshot_csv("demo_snapshot.csv",
                              universe.snapshot_at(universe.month_count() - 1))) {
    return 1;
  }
  std::printf("wrote demo_rib.mrt and demo_snapshot.csv\n\n");
  return run("demo_rib.mrt", "demo_snapshot.csv", "demo_siblings.csv", 28, 96);
}

// --- Campaign mode -------------------------------------------------------

// SIGINT/SIGTERM graceful stop. A lock-free std::atomic<bool> store is
// async-signal-safe; the stage graph polls it between stage dispatches.
std::atomic<bool> g_campaign_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);

void handle_campaign_stop(int) { g_campaign_stop.store(true); }

void install_campaign_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_campaign_stop;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

void print_stage(const pipeline::StageResult& result) {
  if (result.status == pipeline::StageStatus::Failed ||
      result.status == pipeline::StageStatus::Skipped) {
    std::printf("[%s] %s%s%s\n", std::string(to_string(result.status)).c_str(),
                result.name.c_str(), result.error.empty() ? "" : ": ",
                result.error.c_str());
    return;
  }
  std::printf("[%s] %s (%.1f ms)\n", std::string(to_string(result.status)).c_str(),
              result.name.c_str(), result.wall_ms);
}

int run_campaign(pipeline::Campaign campaign, bool resume) {
  const auto report = campaign.run(resume, print_stage);
  if (!report.error.empty()) {
    std::fprintf(stderr, "error: %s\n", report.error.c_str());
    return 1;
  }
  const bool interrupted = g_campaign_stop.load();
  std::printf("%s: %zu done, %zu cached, %zu failed, %zu skipped in %.1f ms "
              "(peak RSS %ld KB)\nmanifest: %s\n",
              report.ok ? "OK" : (interrupted ? "INTERRUPTED" : "FAILED"), report.done_count,
              report.cached_count, report.failed_count, report.skipped_count,
              report.total_wall_ms, report.peak_rss_kb, report.manifest_path.c_str());
  if (interrupted) {
    std::printf("interrupted by signal; `sp_pipeline resume %s` picks up the "
                "skipped stages\n",
                campaign.config().out_dir.c_str());
    // The conventional "killed by signal" exit status, so supervisors and
    // the signal-resume smoke can tell a graceful stop from a failure.
    return 130;
  }
  return report.ok ? 0 : 1;
}

int campaign_run(int argc, char** argv) {
  pipeline::CampaignConfig config;
  config.out_dir = argv[2];
  config.synth.months = 6;
  config.synth.organization_count = 300;
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const long value = std::strtol(argv[i + 1], nullptr, 10);
    if (flag == "--months") config.synth.months = static_cast<int>(value);
    else if (flag == "--orgs") config.synth.organization_count = static_cast<int>(value);
    else if (flag == "--seed") config.synth.seed = static_cast<std::uint64_t>(value);
    else if (flag == "--threads") config.threads = static_cast<unsigned>(value);
    else if (flag == "--v4") config.v4_threshold = static_cast<unsigned>(value);
    else if (flag == "--v6") config.v6_threshold = static_cast<unsigned>(value);
    else if (flag == "--trace") config.trace_path = argv[i + 1];
    else {
      std::fprintf(stderr, "error: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  install_campaign_signal_handlers();
  config.stop_flag = &g_campaign_stop;
  return run_campaign(pipeline::Campaign(std::move(config)), /*resume=*/false);
}

int campaign_resume(int argc, char** argv) {
  const std::string out_dir = argv[2];
  unsigned threads = 1;
  std::string trace_path;
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--threads") {
      threads = static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
    } else if (flag == "--trace") {
      trace_path = argv[i + 1];
    }
  }
  std::string error;
  const auto manifest =
      pipeline::RunManifest::load(pipeline::Campaign::manifest_path(out_dir), &error);
  if (!manifest) {
    std::fprintf(stderr, "error: cannot load manifest: %s\n", error.c_str());
    return 1;
  }
  auto config = pipeline::config_from_manifest(*manifest, out_dir, threads);
  config.trace_path = std::move(trace_path);
  install_campaign_signal_handlers();
  config.stop_flag = &g_campaign_stop;
  return run_campaign(pipeline::Campaign(std::move(config)), /*resume=*/true);
}

int campaign_status(const std::string& out_dir) {
  std::string error;
  const auto manifest =
      pipeline::RunManifest::load(pipeline::Campaign::manifest_path(out_dir), &error);
  if (!manifest) {
    std::fprintf(stderr, "error: cannot load manifest: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", manifest->campaign.c_str());

  // A "done" record whose artifact was deleted or corrupted since the
  // run is stale, not done — resume would re-run it, and a serving
  // deployment must not RELOAD it. Revalidate every recorded output.
  std::unordered_map<std::string, std::string> stale_reason;
  for (const auto& entry : pipeline::stale_stages(*manifest, out_dir)) {
    auto& reason = stale_reason[entry.name];
    if (!reason.empty()) reason += "; ";
    reason += entry.path + " " + entry.reason;
  }

  std::size_t done = 0, cached = 0, failed = 0, skipped = 0, stale = 0;
  for (const auto& stage : manifest->stages) {
    const auto stale_it = stale_reason.find(stage.name);
    const bool is_stale = stale_it != stale_reason.end();
    const std::string& status = is_stale ? "stale" : stage.status;
    const std::string& note = is_stale ? stale_it->second : stage.error;
    std::printf("  %-8s %-28s %9.1f ms  %zu output%s%s%s\n", status.c_str(),
                stage.name.c_str(), stage.wall_ms, stage.outputs.size(),
                stage.outputs.size() == 1 ? "" : "s", note.empty() ? "" : "  ", note.c_str());
    if (is_stale) ++stale;
    else if (stage.status == "done") ++done;
    else if (stage.status == "cached") ++cached;
    else if (stage.status == "failed") ++failed;
    else if (stage.status == "skipped") ++skipped;
  }
  std::printf("%zu stages: %zu done, %zu cached, %zu failed, %zu skipped, %zu stale\n",
              manifest->stages.size(), done, cached, failed, skipped, stale);
  return failed == 0 && stale == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--demo") return demo();
  if (argc >= 3 && std::string(argv[1]) == "run") return campaign_run(argc, argv);
  if (argc >= 3 && std::string(argv[1]) == "resume") return campaign_resume(argc, argv);
  if (argc == 3 && std::string(argv[1]) == "status") return campaign_status(argv[2]);
  if (argc != 4 && argc != 6) {
    std::fprintf(stderr,
                 "usage: %s run <out_dir> [--months N] [--orgs N] [--seed S] [--threads T]"
                 " [--v4 N] [--v6 N] [--trace FILE]\n"
                 "       %s resume <out_dir> [--threads T] [--trace FILE]\n"
                 "       %s status <out_dir>\n"
                 "       %s <rib.mrt> <snapshot.csv|zonefile.zone> <out.csv> [v4_thresh v6_thresh]\n"
                 "       %s --demo\n",
                 argv[0], argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  unsigned v4_threshold = 0;
  unsigned v6_threshold = 0;
  if (argc == 6) {
    v4_threshold = static_cast<unsigned>(std::strtoul(argv[4], nullptr, 10));
    v6_threshold = static_cast<unsigned>(std::strtoul(argv[5], nullptr, 10));
    if (v4_threshold == 0 || v4_threshold > 32 || v6_threshold == 0 || v6_threshold > 128) {
      std::fprintf(stderr, "error: thresholds must be 1-32 (v4) and 1-128 (v6)\n");
      return 2;
    }
  }
  return run(argv[1], argv[2], argv[3], v4_threshold, v6_threshold);
}
