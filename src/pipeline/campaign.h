// Campaign — the paper's longitudinal workflow (49 monthly snapshots,
// Sep 2020 → Sep 2024) as a checkpointed stage DAG.
//
// Per month m (dated d):
//
//   evolve[d]   month-0: full synthetic TABLE_DUMP_V2 dump; month-m:
//               replay that month's BGP4MP updates onto the RIB that
//               evolve[m-1] left in memory (or, when evolve[m-1] did not
//               run in this process, onto the RIB read from its
//               rib-<d'>.mrt), export the evolved RIB (bgp::Rib::to_mrt)
//               → rib-<d>.mrt (+ updates-<d>.mrt). Depends on
//               evolve[m-1]: the cross-month chain of the DAG.
//   export[d]   resolution snapshot CSV → snapshot-<d>.csv
//   corpus[d]   the snapshot export[d] rendered and the prefixes evolve[d]
//               announced (or the snapshot/rib files they wrote) →
//               DualStackCorpus (kept in memory for the month's
//               detect/sptuner stages) + corpus-<d>.txt stats marker
//   detect[d]   sibling pair detection → pairs-<d>.csv: the exact scan
//               over the month's own corpus, on one thread
//   sptuner[d]  SP-Tuner-MS refinement → the published list
//               siblings-<d>.csv
//   sibdb[d]    binary serving snapshot → siblings-<d>.sibdb (directly
//               RELOAD-able by sp_serve)
//   sibdelta[d',d]  patch between consecutive .sibdb snapshots →
//               delta-<d>.spdl (sp_serve RELOADs it onto the d' snapshot)
//   diff[d',d]  release diff of consecutive published lists → diff-<d>.csv
//   longitudinal  fan-in over every published list + diff → longitudinal.csv
//
// Months are independent except for the evolve chain, so a multi-worker
// pool pipelines them: month 3 can be detecting while month 5 exports and
// month 2's checkpoints fsync. Workers take the ready stage added first,
// which is the earliest month's, so a month finishes and releases its
// corpus before later months pile up.
//
// Bookkeeping: each stage has one state, by stage id — its outputs hash,
// its manifest record and the release of the slots it consumes. The body
// fills the hash and the record; the graph observer, which StageGraph
// runs on the body's worker before any dependent starts, completes and
// saves the record and releases the slots, so no stage state is locked.
//
// Checkpointing (see checkpoint.h): every stage's inputs hash chains the
// stage name, its config component (synth config for evolve/export,
// SP-Tuner thresholds for sptuner, the .sibdb format version for sibdb)
// and its parents' output hashes; the manifest (manifest.h) records them
// after each completion. Resume skips stages whose recorded inputs hash
// matches and whose output files still hash to their recorded values, so
// a changed threshold re-runs only the sptuner→…→longitudinal cone while
// the detection cone stays cached.
//
// In-memory hand-offs: once a producer's files are durable it leaves
// what it built for its one consumer, in a per-month slot — evolve[m]
// its RIB for evolve[m+1] and its announced prefixes for corpus[m],
// export[m] its snapshot for corpus[m]. The files stay the checkpoint,
// the resume source and the published artifacts: every stage writes,
// fsyncs and hashes exactly what it would without the slots. A slot is
// empty when its producer was cached or ran in an earlier process; the
// consumer then loads the producer's file. A cached corpus stage builds
// no corpus; if a downstream stage of that month does run, it lazily
// re-materializes the corpus from the (checkpoint-verified) rib/snapshot
// artifacts. Each slot, and the month's corpus, is dropped once its last
// consumer (the corpus's is sptuner[m]) reaches any terminal status —
// done, cached, failed or skipped — bounding resident memory to the
// months in flight.
//
// The synthetic universe is rebuilt at the start of every run (it is a
// pure function of the synth config and is not serialized); checkpoints
// cover the per-stage artifact work, which is where the wall-clock goes.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/manifest.h"
#include "pipeline/stage_graph.h"
#include "synth/config.h"

namespace sp::pipeline {

struct CampaignConfig {
  /// The synthetic universe; `synth.months` is the campaign length.
  synth::SynthConfig synth;
  /// SP-Tuner thresholds (the paper's /28 and /96 defaults).
  unsigned v4_threshold = 28;
  unsigned v6_threshold = 96;
  /// How many stages run at once: the DAG worker pool size. 0 picks the
  /// hardware concurrency; 1 runs the stages serially, month by month in
  /// the order they were added (the bench baseline).
  unsigned threads = 1;
  /// Run directory: artifacts + manifest.json (created if missing).
  std::string out_dir;
  /// When non-empty, run() records one Chrome-trace span per stage
  /// execution and writes the trace JSON here (obs/trace.h). Like
  /// threads/out_dir this shapes observation, not artifact bytes, so it
  /// is excluded from describe_config.
  std::string trace_path;
  /// Graceful-stop hook (SIGINT/SIGTERM in sp_pipeline): when non-null
  /// and the pointee flips true, the in-flight stage finishes, every
  /// not-yet-started stage is finalized as Skipped (still recorded in
  /// the manifest), and run() reports !ok — a later resume re-runs
  /// exactly the skipped cone to byte-identical artifacts. Shapes
  /// scheduling, not content, so excluded from describe_config. Must
  /// outlive run().
  const std::atomic<bool>* stop_flag = nullptr;
};

/// Ordered key=value view of every config field that shapes artifact
/// bytes (threads and out_dir change scheduling/placement, not content,
/// and are excluded). Stored in the manifest so `resume` and `status`
/// need no flags repeated.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> describe_config(
    const CampaignConfig& config);

/// Rebuilds a config from a manifest's stored kvs (unknown keys are
/// ignored, absent keys keep their defaults). `out_dir` and `threads`
/// come from the caller — they are not manifest content.
[[nodiscard]] CampaignConfig config_from_manifest(const RunManifest& manifest,
                                                  std::string out_dir, unsigned threads);

/// A manifest record whose checkpoint looks healthy ("done"/"cached")
/// but whose on-disk artifact no longer matches it.
struct StaleStage {
  std::string name;    // stage name, e.g. "sibdb[2020-09-11]"
  std::string path;    // out_dir-relative artifact path
  std::string reason;  // "missing" or "hash mismatch"
};

/// Revalidates every done/cached stage's recorded outputs against the
/// files in `out_dir` (the same hash_file check resume performs).
/// `sp_pipeline status` uses this to flag stages whose checkpoint hash
/// is valid but whose artifact was deleted or corrupted since — "stale"
/// rather than "done".
[[nodiscard]] std::vector<StaleStage> stale_stages(const RunManifest& manifest,
                                                   const std::string& out_dir);

struct CampaignReport {
  bool ok = false;
  std::string error;  // setup-level failure (bad out_dir, manifest I/O)
  std::vector<StageResult> stages;
  std::size_t done_count = 0;
  std::size_t cached_count = 0;
  std::size_t failed_count = 0;
  std::size_t skipped_count = 0;
  double total_wall_ms = 0.0;  // whole run() call, universe build included
  long peak_rss_kb = 0;
  std::string manifest_path;
};

class Campaign {
 public:
  explicit Campaign(CampaignConfig config) : config_(std::move(config)) {}

  /// Executes the campaign. With `resume` false every stage runs; with
  /// `resume` true, stages whose checkpoints validate against
  /// `out_dir`/manifest.json are skipped as Cached. `observer`, when set,
  /// sees every terminal StageResult as it lands (the CLI progress line).
  [[nodiscard]] CampaignReport run(bool resume,
                                   std::function<void(const StageResult&)> observer = {});

  [[nodiscard]] static std::string manifest_path(const std::string& out_dir) {
    return out_dir + "/manifest.json";
  }

  [[nodiscard]] const CampaignConfig& config() const noexcept { return config_; }

 private:
  CampaignConfig config_;
};

}  // namespace sp::pipeline
