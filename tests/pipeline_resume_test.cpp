// Campaign checkpoint/resume contract:
//  * an interrupted run (manifest truncated after a completed-stage
//    prefix — the crash model: the manifest is rewritten atomically after
//    every completion, so a kill leaves exactly such a prefix) resumed
//    with the same config re-runs only unrecorded stages and converges to
//    byte-identical artifacts and per-stage hashes;
//  * a changed config knob invalidates exactly its downstream cone;
//  * a corrupted artifact forces exactly that stage to re-run;
//  * a stage whose producer is cached loads the producer's file in place
//    of the in-memory hand-off, to the same bytes.
// Plus unit coverage of the manifest JSON codec and the checkpoint
// primitives the contract rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "io/durable.h"
#include "pipeline/campaign.h"
#include "pipeline/checkpoint.h"
#include "pipeline/manifest.h"

namespace sp::pipeline {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

CampaignConfig small_config(std::string out_dir) {
  CampaignConfig config;
  config.synth.months = 3;
  config.synth.organization_count = 50;
  config.synth.probe_count = 50;
  config.threads = 2;
  config.out_dir = std::move(out_dir);
  return config;
}

RunManifest load_manifest(const std::string& out_dir) {
  std::string error;
  const auto manifest = RunManifest::load(Campaign::manifest_path(out_dir), &error);
  EXPECT_TRUE(manifest.has_value()) << error;
  return manifest.value_or(RunManifest{});
}

/// Asserts both runs recorded the same per-stage inputs hash and the same
/// output files with the same content hashes (status/timings may differ).
void expect_same_hashes(const RunManifest& a, const RunManifest& b) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (const StageRecord& stage : a.stages) {
    const StageRecord* other = b.find(stage.name);
    ASSERT_NE(other, nullptr) << stage.name;
    EXPECT_EQ(stage.inputs_hash, other->inputs_hash) << stage.name;
    EXPECT_EQ(stage.outputs, other->outputs) << stage.name;
  }
}

/// Byte-compares every artifact recorded in `a`'s manifest across the two
/// run directories (published lists, .sibdbs, intermediates alike).
void expect_same_artifacts(const RunManifest& a, const std::string& dir_a,
                           const std::string& dir_b) {
  for (const StageRecord& stage : a.stages) {
    for (const OutputRecord& output : stage.outputs) {
      EXPECT_EQ(read_file(dir_a + "/" + output.path), read_file(dir_b + "/" + output.path))
          << output.path;
    }
  }
}

TEST(PipelineResume, SerialAndDagSchedulesProduceIdenticalArtifacts) {
  const std::string dir_serial = fresh_dir("sp_campaign_serial");
  const std::string dir_dag = fresh_dir("sp_campaign_dag");

  auto serial_config = small_config(dir_serial);
  serial_config.threads = 1;
  const auto serial_report = Campaign(serial_config).run(/*resume=*/false);
  ASSERT_TRUE(serial_report.ok) << serial_report.error;

  const auto dag_report = Campaign(small_config(dir_dag)).run(/*resume=*/false);
  ASSERT_TRUE(dag_report.ok) << dag_report.error;
  EXPECT_EQ(serial_report.done_count, dag_report.done_count);

  const RunManifest serial_manifest = load_manifest(dir_serial);
  const RunManifest dag_manifest = load_manifest(dir_dag);
  expect_same_hashes(serial_manifest, dag_manifest);
  expect_same_artifacts(serial_manifest, dir_serial, dir_dag);
}

TEST(PipelineResume, CrashAfterAnyCompletedPrefixResumesToIdenticalRun) {
  const std::string dir_full = fresh_dir("sp_campaign_full");
  const auto full_report = Campaign(small_config(dir_full)).run(/*resume=*/false);
  ASSERT_TRUE(full_report.ok) << full_report.error;
  const RunManifest full_manifest = load_manifest(dir_full);
  const std::size_t stage_count = full_manifest.stages.size();
  ASSERT_GT(stage_count, 20u);  // 3 months × 6 stages + 2 sibdeltas + 2 diffs + longitudinal

  // Kill points across the schedule: right after the first stage, mid-run,
  // and just before the fan-in.
  for (const std::size_t keep :
       {std::size_t{1}, stage_count / 3, stage_count - 2}) {
    const std::string dir = fresh_dir("sp_campaign_crash_" + std::to_string(keep));
    const auto report = Campaign(small_config(dir)).run(/*resume=*/false);
    ASSERT_TRUE(report.ok) << report.error;

    // Simulate the kill: the manifest is exactly the completion-order
    // prefix of the first `keep` stages.
    RunManifest truncated = load_manifest(dir);
    truncated.stages.resize(keep);
    std::string error;
    ASSERT_TRUE(truncated.save(Campaign::manifest_path(dir), &error)) << error;

    const auto resumed = Campaign(small_config(dir)).run(/*resume=*/true);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(resumed.cached_count, keep);
    EXPECT_EQ(resumed.done_count, stage_count - keep);

    const RunManifest resumed_manifest = load_manifest(dir);
    expect_same_hashes(full_manifest, resumed_manifest);
    expect_same_artifacts(full_manifest, dir_full, dir);
  }
}

TEST(PipelineResume, ChangedThresholdInvalidatesOnlyTheTunerCone) {
  const std::string dir = fresh_dir("sp_campaign_retune");
  const auto report = Campaign(small_config(dir)).run(/*resume=*/false);
  ASSERT_TRUE(report.ok) << report.error;

  auto retuned = small_config(dir);
  retuned.v4_threshold = 30;
  retuned.v6_threshold = 112;
  const auto resumed = Campaign(retuned).run(/*resume=*/true);
  ASSERT_TRUE(resumed.ok) << resumed.error;

  const RunManifest manifest = load_manifest(dir);
  for (const StageRecord& stage : manifest.stages) {
    const bool upstream = stage.name.rfind("evolve", 0) == 0 ||
                          stage.name.rfind("export", 0) == 0 ||
                          stage.name.rfind("corpus", 0) == 0 ||
                          stage.name.rfind("detect", 0) == 0;
    EXPECT_EQ(stage.status, upstream ? "cached" : "done") << stage.name;
  }
}

TEST(PipelineResume, CorruptedArtifactRerunsExactlyThatStage) {
  const std::string dir = fresh_dir("sp_campaign_corrupt");
  const auto report = Campaign(small_config(dir)).run(/*resume=*/false);
  ASSERT_TRUE(report.ok) << report.error;
  const RunManifest before = load_manifest(dir);

  // Clobber one mid-pipeline artifact. Its producer re-runs and — the
  // content-addressed part — regenerates identical bytes, so every
  // downstream checkpoint revalidates and stays cached.
  const StageRecord* detect = nullptr;
  for (const StageRecord& stage : before.stages) {
    if (stage.name.rfind("detect", 0) == 0) detect = &stage;
  }
  ASSERT_NE(detect, nullptr);
  {
    std::ofstream out(dir + "/" + detect->outputs[0].path, std::ios::trunc);
    out << "corrupted\n";
  }

  const auto resumed = Campaign(small_config(dir)).run(/*resume=*/true);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.done_count, 1u);
  EXPECT_EQ(resumed.cached_count, before.stages.size() - 1);

  const RunManifest after = load_manifest(dir);
  expect_same_hashes(before, after);
  EXPECT_EQ(after.find(detect->name)->status, "done");
}

// A month's stages hand the RIB, its prefixes and the snapshot to each
// other in memory; when a producer is cached its consumer reads the file
// instead. Deleted artifacts make a resume run each mix of the two, and
// the resume must write the deleted bytes again.
TEST(PipelineResume, ConsumersOfCachedProducersReadTheirFiles) {
  const std::string dir = fresh_dir("sp_campaign_handoff");
  const auto report = Campaign(small_config(dir)).run(/*resume=*/false);
  ASSERT_TRUE(report.ok) << report.error;
  const RunManifest before = load_manifest(dir);
  // The manifest lists stages in completion order; dated file names sort
  // by month.
  const auto output_of = [&before](const std::string& kind, std::size_t month) {
    std::vector<std::string> outputs;
    for (const StageRecord& stage : before.stages) {
      if (stage.name.rfind(kind + "[", 0) == 0) outputs.push_back(stage.outputs.back().path);
    }
    std::sort(outputs.begin(), outputs.end());
    EXPECT_GT(outputs.size(), month) << kind;
    return outputs.at(month);
  };
  // Every month's corpus and detect stages re-run, so each month builds a
  // corpus and detects on it:
  //   month 0: the RIB prefixes and the snapshot both come from files;
  //   month 1: export re-runs and hands over its snapshot, while the
  //            prefixes come from rib-<month 1>.mrt;
  //   month 2: evolve re-runs with evolve[1] cached, so it replays onto
  //            the RIB it reads from rib-<month 1>.mrt, and hands over
  //            its prefixes, while the snapshot comes from its file.
  std::vector<std::string> deleted = {output_of("export", 1), output_of("evolve", 2)};
  for (std::size_t month = 0; month < 3; ++month) {
    deleted.push_back(output_of("corpus", month));
    deleted.push_back(output_of("detect", month));
  }
  std::map<std::string, std::string> lost;
  for (const std::string& rel : deleted) {
    lost[rel] = read_file(dir + "/" + rel);
    ASSERT_TRUE(std::filesystem::remove(dir + "/" + rel)) << rel;
  }

  const auto resumed = Campaign(small_config(dir)).run(/*resume=*/true);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.done_count, deleted.size());
  const RunManifest after = load_manifest(dir);
  for (const StageRecord& stage : after.stages) {
    bool lost_output = false;
    for (const OutputRecord& output : stage.outputs) lost_output |= lost.count(output.path) != 0;
    EXPECT_EQ(stage.status, lost_output ? "done" : "cached") << stage.name;
  }
  expect_same_hashes(before, after);
  for (const auto& [rel, bytes] : lost) EXPECT_EQ(read_file(dir + "/" + rel), bytes) << rel;
}

// resume rebuilds the campaign from the manifest's config block, so every
// field that shapes artifact bytes must survive describe_config →
// config_from_manifest. Every SynthConfig field is set off its default.
TEST(PipelineManifest, ConfigRoundTripRestoresEveryField) {
  CampaignConfig config;
  config.synth = {.seed = 7,
                  .scale = 3,
                  .months = 5,
                  .end_date = Date{2023, 3, 15},
                  .organization_count = 77,
                  .eyeball_share = 0.3,
                  .hg_prefix_scale = 0.07,
                  .domains_per_org = 11.5,
                  .ds_share_start = 0.2,
                  .ds_share_end = 0.4,
                  .single_prefix_org_share = 0.3,
                  .structured_org_share = 0.6,
                  .separate_v6_asn_share = 0.25,
                  .multi_org_domain_share = 0.1,
                  .monitoring_org = false,
                  .monitoring_v4_prefixes = 33,
                  .monitoring_v6_prefixes = 12,
                  .always_visible_share = 0.5,
                  .once_visible_share = 0.1,
                  .intermittent_visibility = 0.6,
                  .v4_prefix_change_share = 0.11,
                  .v6_prefix_change_share = 0.07,
                  .address_change_share = 0.09,
                  .rpki_adopter_share = 0.5,
                  .rpki_wrong_origin_share = 0.05,
                  .rpki_short_maxlen_share = 0.4,
                  .scan_silent_org_share = 0.2,
                  .scan_port_flip_probability = 0.2,
                  .probe_count = 123,
                  .probe_full_coverage_share = 0.5,
                  .probe_partial_coverage_share = 0.25,
                  .probe_same_group_share = 0.9};
  config.v4_threshold = 30;
  config.v6_threshold = 112;

  RunManifest manifest;
  manifest.config = describe_config(config);
  const CampaignConfig restored = config_from_manifest(manifest, "restored", 3);
  EXPECT_EQ(describe_config(restored), manifest.config);
  EXPECT_EQ(restored.synth.scale, 3);
  EXPECT_TRUE(restored.synth == config.synth);
  EXPECT_EQ(restored.v4_threshold, 30u);
  EXPECT_EQ(restored.v6_threshold, 112u);
  EXPECT_EQ(restored.out_dir, "restored");
  EXPECT_EQ(restored.threads, 3u);
}

TEST(PipelineManifest, JsonRoundTripPreservesEverything) {
  RunManifest manifest;
  manifest.campaign = "test \"campaign\"\nwith escapes\t\\";
  manifest.config = {{"synth.seed", "42"}, {"v4_threshold", "28"}};
  StageRecord stage;
  stage.name = "detect[2024-09-11]";
  stage.status = "done";
  stage.inputs_hash = 0xDEADBEEFCAFEF00Dull;
  stage.outputs = {{"pairs-2024-09-11.csv", 0x0123456789ABCDEFull}, {"other.txt", 7}};
  stage.wall_ms = 12.25;
  stage.peak_rss_kb = 48212;
  manifest.stages.push_back(stage);
  StageRecord failed;
  failed.name = "sptuner[2024-09-11]";
  failed.status = "failed";
  failed.error = "boom: line 3";
  manifest.stages.push_back(failed);

  std::string error;
  const auto parsed = RunManifest::from_json(manifest.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->campaign, manifest.campaign);
  EXPECT_EQ(parsed->config, manifest.config);
  ASSERT_EQ(parsed->stages.size(), 2u);
  EXPECT_EQ(parsed->stages[0], manifest.stages[0]);
  EXPECT_EQ(parsed->stages[1], manifest.stages[1]);
}

TEST(PipelineManifest, RejectsMalformedDocuments) {
  for (const std::string_view bad : {
           std::string_view{""},
           std::string_view{"{"},
           std::string_view{"{\"version\": 2, \"campaign\": \"x\", \"stages\": []}"},
           std::string_view{"{\"version\": 1, \"unknown\": 3}"},
           std::string_view{"{\"version\": 1, \"stages\": []} trailing"},
       }) {
    std::string error;
    EXPECT_FALSE(RunManifest::from_json(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(PipelineCheckpoint, HashHexRoundTripsAndRejectsGarbage) {
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xFFFFFFFFFFFFFFFF}, kFnvBasis}) {
    const std::string hex = hash_hex(value);
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(parse_hash_hex(hex), value);
  }
  EXPECT_FALSE(parse_hash_hex("").has_value());
  EXPECT_FALSE(parse_hash_hex("123").has_value());
  EXPECT_FALSE(parse_hash_hex("zzzzzzzzzzzzzzzz").has_value());
}

TEST(PipelineCheckpoint, AtomicWriteHashAndFinalize) {
  const std::string dir = fresh_dir("sp_checkpoint_files");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/artifact.txt";
  std::string error;
  ASSERT_TRUE(io::atomic_write_file(path, "hello checkpoint", &error)) << error;
  EXPECT_EQ(read_file(path), "hello checkpoint");
  EXPECT_EQ(hash_file(path), fnv1a64("hello checkpoint"));
  EXPECT_FALSE(hash_file(dir + "/missing").has_value());

  // io::durable_rename publishes a streamed temp file under the final name.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << "second version";
  }
  ASSERT_TRUE(io::durable_rename(tmp, path, &error)) << error;
  EXPECT_EQ(read_file(path), "second version");
  EXPECT_FALSE(std::filesystem::exists(tmp));
}

}  // namespace
}  // namespace sp::pipeline
