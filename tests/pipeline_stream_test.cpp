// The campaign's per-month contract: each month's detect stage writes a
// pairs CSV byte-identical to the serial oracle over that month's own
// artifacts, and a month whose detect stage fails stops only its own
// cone, with a manifest record per stage; the per-month .spdl delta logs
// chain each sibdb snapshot to the next; stale_stages catches checkpoints
// whose on-disk artifact was deleted or corrupted after the run ("stale",
// not "done"); and a run directory that cannot be made fails the run
// before any stage starts.
#include "pipeline/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/rib.h"
#include "core/corpus.h"
#include "core/detect.h"
#include "core/sibling_list_io.h"
#include "io/snapshot_csv.h"
#include "mrt/file.h"
#include "serve/sibdb.h"
#include "stream/spdl.h"
#include "synth/universe.h"

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

/// Sorted out_dir-relative paths matching `prefix`…`suffix` (dates sort
/// lexicographically, so this is month order).
std::vector<std::string> artifacts_matching(const std::string& out_dir,
                                            const std::string& prefix,
                                            const std::string& suffix) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(out_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix)) {
      paths.push_back(name);
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(PipelineStream, PairsMatchSerialOracleEveryMonth) {
  const std::string dir = fresh_dir("sp_campaign_stream");
  const auto report = Campaign(small_config(dir)).run(/*resume=*/false);
  ASSERT_TRUE(report.ok) << report.error;

  // Every month's pairs CSV — the detect stage's output — must equal the
  // serial oracle's list over a corpus rebuilt from that month's own rib
  // and snapshot artifacts: the sharded-vs-serial identity check at
  // campaign scope.
  const auto pair_files = artifacts_matching(dir, "pairs-", ".csv");
  ASSERT_EQ(pair_files.size(), 3u);
  for (const std::string& pairs_file : pair_files) {
    const std::string date = pairs_file.substr(6, pairs_file.size() - 10);
    std::string error;
    const auto records = mrt::read_file(dir + "/rib-" + date + ".mrt", &error);
    ASSERT_TRUE(records.has_value()) << error;
    const auto snapshot = io::read_snapshot_csv(dir + "/snapshot-" + date + ".csv");
    ASSERT_TRUE(snapshot.has_value()) << date;
    const auto corpus = core::DualStackCorpus::build(*snapshot, bgp::Rib::from_mrt(*records));
    const std::string oracle = dir + "/oracle-" + date + ".csv";
    ASSERT_TRUE(
        core::write_sibling_list(oracle, core::detect_sibling_prefixes_serial(corpus)));
    EXPECT_EQ(read_file(dir + "/" + pairs_file), read_file(oracle)) << pairs_file;
  }
}

TEST(PipelineDetect, FailedMonthSkipsOnlyItsOwnCone) {
  const std::string dir = fresh_dir("sp_campaign_bad_detect");
  const CampaignConfig config = small_config(dir);
  const synth::SyntheticInternet universe(config.synth);
  const std::string d0 = universe.date_of_month(0).to_string();
  const std::string d1 = universe.date_of_month(1).to_string();
  const std::string d2 = universe.date_of_month(2).to_string();

  // A non-empty directory where month 1's pairs CSV goes: the detect
  // stage writes its temp file, and the final rename onto it fails.
  std::filesystem::create_directories(dir + "/pairs-" + d1 + ".csv/occupied");
  const auto report = Campaign(config).run(/*resume=*/false);
  EXPECT_FALSE(report.ok);

  // Month 1's cone: its tuner and snapshot, every delta log and diff
  // touching it, and the longitudinal fan-in. Every other stage runs,
  // the detection of months 0 and 2 included.
  const std::set<std::string> cone = {"sptuner[" + d1 + "]",
                                      "sibdb[" + d1 + "]",
                                      "sibdelta[" + d0 + ".." + d1 + "]",
                                      "sibdelta[" + d1 + ".." + d2 + "]",
                                      "diff[" + d0 + ".." + d1 + "]",
                                      "diff[" + d1 + ".." + d2 + "]",
                                      "longitudinal"};
  ASSERT_EQ(report.stages.size(), 23u);  // 3 months x 6 + 2 sibdeltas + 2 diffs + longitudinal
  for (const StageResult& stage : report.stages) {
    const std::string_view want = stage.name == "detect[" + d1 + "]" ? "failed"
                                  : cone.contains(stage.name)        ? "skipped"
                                                                     : "done";
    EXPECT_EQ(to_string(stage.status), want) << stage.name;
  }

  // The manifest holds one record per stage with its status and error.
  // Only a done stage records outputs, and only a skipped one, whose body
  // never ran, has no inputs hash.
  const RunManifest manifest = load_manifest(dir);
  ASSERT_EQ(manifest.stages.size(), report.stages.size());
  for (const StageResult& stage : report.stages) {
    const StageRecord* record = manifest.find(stage.name);
    ASSERT_NE(record, nullptr) << stage.name;
    EXPECT_EQ(record->status, to_string(stage.status)) << stage.name;
    EXPECT_EQ(record->error, stage.error) << stage.name;
    EXPECT_EQ(record->error.empty(), stage.status == StageStatus::Done) << stage.name;
    EXPECT_EQ(record->outputs.empty(), stage.status != StageStatus::Done) << stage.name;
    EXPECT_EQ(record->inputs_hash == 0, stage.status == StageStatus::Skipped) << stage.name;
  }
}

TEST(PipelineCampaign, UnusableRunDirectoryFailsBeforeAnyStage) {
  const std::string file = fresh_dir("sp_campaign_not_a_dir");
  std::ofstream(file) << "a file, not a directory\n";
  for (const std::string& out_dir : {file, file + "/run"}) {
    const auto report = Campaign(small_config(out_dir)).run(/*resume=*/false);
    EXPECT_FALSE(report.ok) << out_dir;
    EXPECT_TRUE(report.error.starts_with("mkdir " + out_dir + ": ")) << report.error;
    EXPECT_TRUE(report.stages.empty()) << out_dir;
  }
  std::filesystem::remove(file);
}

TEST(PipelineStream, DeltaLogsChainSnapshotsAcrossMonths) {
  const std::string dir = fresh_dir("sp_campaign_deltachain");
  const auto report = Campaign(small_config(dir)).run(/*resume=*/false);
  ASSERT_TRUE(report.ok) << report.error;

  const auto sibdbs = artifacts_matching(dir, "siblings-", ".sibdb");
  const auto deltas = artifacts_matching(dir, "delta-", ".spdl");
  ASSERT_EQ(sibdbs.size(), 3u);
  ASSERT_EQ(deltas.size(), 2u);  // months 1..2, each against its predecessor

  for (std::size_t m = 0; m < deltas.size(); ++m) {
    std::string error;
    const auto base = serve::SiblingDB::load(dir + "/" + sibdbs[m], &error);
    ASSERT_TRUE(base.has_value()) << error;
    const auto delta = stream::read_spdl(dir + "/" + deltas[m], &error);
    ASSERT_TRUE(delta.has_value()) << error;
    const std::string patched = dir + "/patched-" + std::to_string(m) + ".sibdb";
    ASSERT_TRUE(stream::apply_spdl(*base, *delta, patched, &error)) << error;
    EXPECT_EQ(read_file(patched), read_file(dir + "/" + sibdbs[m + 1]))
        << deltas[m] << " applied to " << sibdbs[m];
  }
}

TEST(PipelineStream, StaleStagesFlagsMissingAndCorruptedArtifacts) {
  const std::string dir = fresh_dir("sp_campaign_stale");
  const auto report = Campaign(small_config(dir)).run(/*resume=*/false);
  ASSERT_TRUE(report.ok) << report.error;
  const RunManifest manifest = load_manifest(dir);

  // A healthy run has nothing stale.
  EXPECT_TRUE(stale_stages(manifest, dir).empty());

  // Delete one artifact and corrupt another.
  const auto sibdbs = artifacts_matching(dir, "siblings-", ".sibdb");
  ASSERT_GE(sibdbs.size(), 2u);
  std::filesystem::remove(dir + "/" + sibdbs[0]);
  {
    std::fstream file(dir + "/" + sibdbs[1],
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekp(0);
    file.put('X');  // clobber the magic
  }

  const auto stale = stale_stages(manifest, dir);
  ASSERT_EQ(stale.size(), 2u);
  const auto find_reason = [&](const std::string& path) {
    for (const StaleStage& entry : stale) {
      if (entry.path == path) return entry.reason;
    }
    return std::string("not reported");
  };
  EXPECT_EQ(find_reason(sibdbs[0]), "missing");
  EXPECT_EQ(find_reason(sibdbs[1]), "hash mismatch");
  for (const StaleStage& entry : stale) {
    EXPECT_TRUE(entry.name.starts_with("sibdb[")) << entry.name;
  }
}

}  // namespace
}  // namespace sp::pipeline
