#include "pipeline/campaign.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <system_error>
#include <type_traits>
#include <utility>

#include "bgp/rib.h"
#include "core/corpus.h"
#include "core/detect.h"
#include "core/sibling_diff.h"
#include "core/sibling_list_io.h"
#include "core/sptuner.h"
#include "io/durable.h"
#include "io/snapshot_csv.h"
#include "mrt/file.h"
#include "obs/trace.h"
#include "pipeline/checkpoint.h"
#include "serve/sibdb.h"
#include "stream/spdl.h"
#include "synth/universe.h"

namespace sp::pipeline {

namespace {

/// The one key table of describe_config and config_from_manifest: calls
/// `visit(key, field)` for every config field that shapes artifact bytes,
/// in manifest order. `Config` is CampaignConfig or const CampaignConfig.
template <typename Config, typename Visit>
void for_each_config_key(Config& config, Visit visit) {
  auto& s = config.synth;
  visit("synth.seed", s.seed);
  visit("synth.scale", s.scale);
  visit("synth.months", s.months);
  visit("synth.end_date", s.end_date);
  visit("synth.organization_count", s.organization_count);
  visit("synth.eyeball_share", s.eyeball_share);
  visit("synth.hg_prefix_scale", s.hg_prefix_scale);
  visit("synth.domains_per_org", s.domains_per_org);
  visit("synth.ds_share_start", s.ds_share_start);
  visit("synth.ds_share_end", s.ds_share_end);
  visit("synth.single_prefix_org_share", s.single_prefix_org_share);
  visit("synth.structured_org_share", s.structured_org_share);
  visit("synth.separate_v6_asn_share", s.separate_v6_asn_share);
  visit("synth.multi_org_domain_share", s.multi_org_domain_share);
  visit("synth.monitoring_org", s.monitoring_org);
  visit("synth.monitoring_v4_prefixes", s.monitoring_v4_prefixes);
  visit("synth.monitoring_v6_prefixes", s.monitoring_v6_prefixes);
  visit("synth.always_visible_share", s.always_visible_share);
  visit("synth.once_visible_share", s.once_visible_share);
  visit("synth.intermittent_visibility", s.intermittent_visibility);
  visit("synth.v4_prefix_change_share", s.v4_prefix_change_share);
  visit("synth.v6_prefix_change_share", s.v6_prefix_change_share);
  visit("synth.address_change_share", s.address_change_share);
  visit("synth.rpki_adopter_share", s.rpki_adopter_share);
  visit("synth.rpki_wrong_origin_share", s.rpki_wrong_origin_share);
  visit("synth.rpki_short_maxlen_share", s.rpki_short_maxlen_share);
  visit("synth.scan_silent_org_share", s.scan_silent_org_share);
  visit("synth.scan_port_flip_probability", s.scan_port_flip_probability);
  visit("synth.probe_count", s.probe_count);
  visit("synth.probe_full_coverage_share", s.probe_full_coverage_share);
  visit("synth.probe_partial_coverage_share", s.probe_partial_coverage_share);
  visit("synth.probe_same_group_share", s.probe_same_group_share);
  visit("v4_threshold", config.v4_threshold);
  visit("v6_threshold", config.v6_threshold);
}

template <typename T>
std::string format_value(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
  } else if constexpr (std::is_same_v<T, Date>) {
    return value.to_string();
  } else {
    return std::to_string(value);
  }
}

/// Parses a manifest value back into its field; a malformed date leaves
/// the field as it was.
template <typename T>
void parse_value(const std::string& text, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out = text == "true";
  } else if constexpr (std::is_same_v<T, double>) {
    out = std::strtod(text.c_str(), nullptr);
  } else if constexpr (std::is_same_v<T, Date>) {
    int year = 0, month = 0, day = 0;
    if (std::sscanf(text.c_str(), "%d-%d-%d", &year, &month, &day) == 3) {
      out = Date{year, month, day};
    }
  } else if constexpr (std::is_signed_v<T>) {
    out = static_cast<T>(std::strtoll(text.c_str(), nullptr, 10));
  } else {
    out = static_cast<T>(std::strtoull(text.c_str(), nullptr, 10));
  }
}

/// Why a recorded output no longer vouches for its file under `out_dir`
/// ("missing" or "hash mismatch"), or nullptr while it still does. The
/// one check behind both resume and stale_stages.
[[nodiscard]] const char* output_fault(const std::string& out_dir, const OutputRecord& output) {
  const auto on_disk = hash_file(out_dir + "/" + output.path);
  if (!on_disk) return "missing";
  return *on_disk == output.hash ? nullptr : "hash mismatch";
}

/// A stage's outputs_hash over its (path, content hash) pairs, in
/// declaration order (checkpoint.h).
[[nodiscard]] std::uint64_t outputs_hash(const std::vector<OutputRecord>& outputs) {
  std::uint64_t hash = kFnvBasis;
  for (const OutputRecord& output : outputs) {
    hash = fnv1a64(output.path, hash);
    hash = fnv1a64_mix(output.hash, hash);
  }
  return hash;
}

/// One campaign execution: owns the universe, the graph, and the
/// manifest bookkeeping. Stage bodies run on pool workers. states_ and
/// months_ are sized before run(); a stage's state is touched only by its
/// own body and its observer call, which StageGraph runs on the same
/// worker, and dependents read its outputs_hash after the graph lock has
/// ordered them. The manifest and the per-month slots have their own
/// mutexes.
class Runner {
 public:
  Runner(const CampaignConfig& config, bool resume,
         std::function<void(const StageResult&)> observer)
      : config_(config),
        resume_(resume),
        user_observer_(std::move(observer)),
        universe_(config.synth) {}

  CampaignReport run();

 private:
  using StageId = StageGraph::StageId;

  /// One stage's home, by StageId. The body fills `outputs_hash` and
  /// `record`; the graph observer completes and saves the record and calls
  /// `release`.
  struct StageState {
    std::uint64_t outputs_hash = kFnvBasis;
    StageRecord record;
    /// Empties the hand-off slots this stage consumes, at any terminal
    /// status.
    std::function<void()> release;
  };
  /// What one month's stages hand each other in memory. A producer fills
  /// its slot once its files are durable; the one consumer takes it, and
  /// the slot is emptied when that consumer reaches any terminal status
  /// (its StageState::release). An empty slot means the producer was
  /// cached or ran in an earlier process, and the consumer loads the
  /// producer's file.
  struct MonthContext {
    std::mutex mutex;
    std::optional<bgp::Rib> rib;                      // evolve[m] → evolve[m+1]
    std::optional<std::vector<Prefix>> announced;     // evolve[m] → corpus[m]
    std::optional<dns::ResolutionSnapshot> snapshot;  // export[m] → corpus[m]
    // corpus[m] (or whichever of the month's stages runs first) →
    // detect[m], sptuner[m]
    std::shared_ptr<const core::DualStackCorpus> corpus;
  };

  [[nodiscard]] MonthContext& month_context(int month) {
    return *months_[static_cast<std::size_t>(month)];
  }
  [[nodiscard]] std::string abs(const std::string& rel) const {
    return config_.out_dir + "/" + rel;
  }
  [[nodiscard]] std::string ds(int month) const {
    return universe_.date_of_month(month).to_string();
  }
  [[nodiscard]] std::string rib_name(int m) const { return "rib-" + ds(m) + ".mrt"; }
  [[nodiscard]] std::string updates_name(int m) const { return "updates-" + ds(m) + ".mrt"; }
  [[nodiscard]] std::string snapshot_name(int m) const { return "snapshot-" + ds(m) + ".csv"; }
  [[nodiscard]] std::string corpus_name(int m) const { return "corpus-" + ds(m) + ".txt"; }
  [[nodiscard]] std::string pairs_name(int m) const { return "pairs-" + ds(m) + ".csv"; }
  [[nodiscard]] std::string list_name(int m) const { return "siblings-" + ds(m) + ".csv"; }
  [[nodiscard]] std::string sibdb_name(int m) const { return "siblings-" + ds(m) + ".sibdb"; }
  [[nodiscard]] std::string diff_name(int m) const { return "diff-" + ds(m) + ".csv"; }
  [[nodiscard]] std::string delta_name(int m) const { return "delta-" + ds(m) + ".spdl"; }

  StageId add_stage(std::string name, std::vector<StageId> deps, std::uint64_t config_hash,
                    std::vector<std::string> outputs, std::function<bool(std::string*)> body);
  void build_graph();
  void on_stage_result(const StageResult& result);

  /// Publishes the artifact `rel`: `write(tmp)` fills `<rel>.tmp`, which
  /// io::durable_rename then fsyncs and renames into place.
  template <typename Write>
  [[nodiscard]] bool write_artifact(const std::string& rel, Write write, std::string* error) {
    const std::string path = abs(rel);
    const std::string tmp = path + ".tmp";
    if (!write(tmp)) {
      *error = "cannot write " + tmp;
      return false;
    }
    return io::durable_rename(tmp, path, error);
  }
  [[nodiscard]] bool write_mrt(const std::string& rel, std::span<const mrt::MrtRecord> records,
                               std::string* error) {
    return write_artifact(
        rel, [&](const std::string& tmp) { return mrt::write_file(tmp, records); }, error);
  }
  [[nodiscard]] bool write_pairs(const std::string& rel,
                                 std::span<const core::SiblingPair> pairs, std::string* error) {
    return write_artifact(
        rel, [&](const std::string& tmp) { return core::write_sibling_list(tmp, pairs); },
        error);
  }
  [[nodiscard]] std::optional<std::vector<core::SiblingPair>> read_pairs(
      const std::string& rel, std::string* error);
  [[nodiscard]] std::shared_ptr<const core::DualStackCorpus> corpus_for(int month,
                                                                        std::string* error);

  CampaignConfig config_;
  bool resume_;
  std::function<void(const StageResult&)> user_observer_;
  synth::SyntheticInternet universe_;

  StageGraph graph_;
  std::vector<StageState> states_;  // by StageId, sized pre-run
  std::vector<std::unique_ptr<MonthContext>> months_;

  RunManifest old_;       // resume source (empty on fresh runs)
  RunManifest manifest_;  // being written
  std::string manifest_file_;
  // lock-order: 36 pipeline.campaign.manifest_mutex (taken from the graph
  // observer, after pipeline.stage_graph.observer_mutex; leaf)
  std::mutex manifest_mutex_;
  std::string manifest_error_;  // first save failure, surfaced in the report
};

Runner::StageId Runner::add_stage(std::string name, std::vector<StageId> deps,
                                  std::uint64_t config_hash, std::vector<std::string> outputs,
                                  std::function<bool(std::string*)> body) {
  const StageId id = graph_.size();
  states_.push_back({});
  auto fn = [this, id, name, deps, config_hash, outputs,
             body = std::move(body)]() -> StageOutcome {
    StageState& state = states_[id];
    StageRecord& record = state.record;
    record.inputs_hash = fnv1a64_mix(config_hash, fnv1a64(name));
    // Parents published states_ before this stage became ready (ordered by
    // the graph lock), so the chain below is race-free.
    for (const StageId dep : deps) {
      record.inputs_hash = fnv1a64_mix(states_[dep].outputs_hash, record.inputs_hash);
    }

    if (resume_) {
      const StageRecord* checkpoint = old_.find(name);
      bool valid = checkpoint != nullptr &&
                   (checkpoint->status == "done" || checkpoint->status == "cached") &&
                   checkpoint->inputs_hash == record.inputs_hash &&
                   checkpoint->outputs.size() == outputs.size();
      for (std::size_t i = 0; valid && i < outputs.size(); ++i) {
        // A missing or corrupted artifact means a re-run.
        valid = checkpoint->outputs[i].path == outputs[i] &&
                output_fault(config_.out_dir, checkpoint->outputs[i]) == nullptr;
      }
      if (valid) {
        record.outputs = checkpoint->outputs;
        state.outputs_hash = outputs_hash(record.outputs);
        return StageOutcome::hit();
      }
    }

    std::string error;
    bool ok = body(&error);
    for (std::size_t i = 0; ok && i < outputs.size(); ++i) {
      const auto hash = hash_file(abs(outputs[i]));
      if (hash) {
        record.outputs.push_back({outputs[i], *hash});
      } else {
        error = "stage completed without producing " + outputs[i];
        ok = false;
      }
    }
    if (!ok) {
      record.outputs.clear();  // a failed record carries no outputs
      return StageOutcome::failure(std::move(error));
    }
    state.outputs_hash = outputs_hash(record.outputs);
    return StageOutcome::success();
  };
  return graph_.add(std::move(name), std::move(deps), std::move(fn));
}

// StageGraph calls this on the worker that ran the stage's body (a Skipped
// stage's body never ran), before any dependent can start, so the record
// the body filled needs no lock.
void Runner::on_stage_result(const StageResult& result) {
  StageState& state = states_[result.id];
  if (state.release) state.release();
  StageRecord record = std::move(state.record);
  record.name = result.name;
  record.status = to_string(result.status);
  record.error = result.error;
  record.wall_ms = result.wall_ms;
  record.peak_rss_kb = result.peak_rss_kb;
  {
    const std::lock_guard<std::mutex> lock(manifest_mutex_);
    manifest_.upsert(std::move(record));
    std::string error;
    if (!manifest_.save(manifest_file_, &error) && manifest_error_.empty()) {
      manifest_error_ = "manifest save failed: " + error;
    }
  }
  if (user_observer_) user_observer_(result);
}

std::optional<std::vector<core::SiblingPair>> Runner::read_pairs(const std::string& rel,
                                                                 std::string* error) {
  core::SiblingListError list_error;
  auto pairs = core::read_sibling_list(abs(rel), &list_error);
  if (!pairs) {
    *error = "cannot read " + rel + ": " + list_error.message +
             (list_error.line != 0 ? " (line " + std::to_string(list_error.line) + ")" : "");
  }
  return pairs;
}

std::shared_ptr<const core::DualStackCorpus> Runner::corpus_for(int month, std::string* error) {
  MonthContext& context = month_context(month);
  const std::lock_guard<std::mutex> lock(context.mutex);
  if (context.corpus) return context.corpus;
  // Each input comes from its hand-off slot when its producer ran in this
  // process, else from the producer's checkpoint-verified file.
  std::optional<std::vector<Prefix>> announced = std::exchange(context.announced, std::nullopt);
  if (!announced) {
    std::string parse_error;
    const auto records = mrt::read_file(abs(rib_name(month)), &parse_error);
    if (!records) {
      *error = "cannot read " + rib_name(month) + ": " + parse_error;
      return nullptr;
    }
    announced = bgp::Rib::from_mrt(*records).prefixes();
  }
  std::optional<dns::ResolutionSnapshot> snapshot = std::exchange(context.snapshot, std::nullopt);
  if (!snapshot) snapshot = io::read_snapshot_csv(abs(snapshot_name(month)));
  if (!snapshot) {
    *error = "cannot read " + snapshot_name(month);
    return nullptr;
  }
  context.corpus = std::make_shared<const core::DualStackCorpus>(
      core::DualStackCorpus::build(*snapshot, *announced));
  return context.corpus;
}

void Runner::build_graph() {
  const int months = universe_.month_count();
  months_.clear();
  for (int m = 0; m < months; ++m) months_.push_back(std::make_unique<MonthContext>());

  // Per-stage config hash components: only the knobs that shape the
  // stage's bytes, so a changed threshold leaves the detection cone
  // cached (see campaign.h).
  std::uint64_t synth_hash = kFnvBasis;
  for (const auto& [key, value] : describe_config(config_)) {
    if (key.rfind("synth.", 0) != 0) continue;
    synth_hash = fnv1a64(key, synth_hash);
    synth_hash = fnv1a64(value, synth_hash);
  }
  const std::uint64_t detect_hash = fnv1a64("jaccard");
  std::uint64_t tuner_hash = fnv1a64_mix(config_.v4_threshold, kFnvBasis);
  tuner_hash = fnv1a64_mix(config_.v6_threshold, tuner_hash);
  const std::uint64_t sibdb_hash = fnv1a64_mix(serve::kSibDbVersion, kFnvBasis);
  const std::uint64_t spdl_hash =
      fnv1a64_mix(stream::kSpdlVersion, fnv1a64_mix(serve::kSibDbVersion, kFnvBasis));

  std::vector<StageId> evolve_ids(months), export_ids(months), corpus_ids(months),
      detect_ids(months), tuner_ids(months), sibdb_ids(months);
  std::vector<StageId> diff_ids;

  for (int m = 0; m < months; ++m) {
    const std::string d = ds(m);

    std::vector<std::string> evolve_outputs =
        m == 0 ? std::vector<std::string>{rib_name(0)}
               : std::vector<std::string>{updates_name(m), rib_name(m)};
    evolve_ids[m] = add_stage(
        "evolve[" + d + "]",
        m == 0 ? std::vector<StageId>{} : std::vector<StageId>{evolve_ids[m - 1]}, synth_hash,
        std::move(evolve_outputs), [this, m, months](std::string* error) {
          std::optional<bgp::Rib> rib;
          if (m == 0) {
            const auto dump = universe_.mrt_dump_at(0);
            if (!write_mrt(rib_name(0), dump, error)) return false;
            rib = bgp::Rib::from_mrt(dump);
          } else {
            {
              const obs::ScopedSpan span("evolve.read_rib", "phase");
              MonthContext& previous = month_context(m - 1);
              {
                const std::lock_guard<std::mutex> lock(previous.mutex);
                rib = std::exchange(previous.rib, std::nullopt);
              }
              if (!rib) {
                std::string parse_error;
                const auto records = mrt::read_file(abs(rib_name(m - 1)), &parse_error);
                if (!records) {
                  *error = "cannot read " + rib_name(m - 1) + ": " + parse_error;
                  return false;
                }
                rib = bgp::Rib::from_mrt(*records);
              }
            }
            const auto updates = universe_.bgp4mp_updates_at(m);
            {
              const obs::ScopedSpan span("evolve.replay", "phase");
              rib->apply_updates(updates);
            }
            const obs::ScopedSpan span("evolve.write", "phase");
            if (!write_mrt(updates_name(m), updates, error) ||
                !write_mrt(rib_name(m), rib->to_mrt(), error)) {
              return false;
            }
          }
          // The files are durable: hand the prefixes to corpus[m] and the
          // RIB to evolve[m+1].
          std::vector<Prefix> announced = rib->prefixes();
          MonthContext& context = month_context(m);
          const std::lock_guard<std::mutex> lock(context.mutex);
          context.announced = std::move(announced);
          if (m + 1 < months) context.rib = std::move(rib);
          return true;
        });

    export_ids[m] = add_stage(
        "export[" + d + "]", {evolve_ids[m]}, synth_hash, {snapshot_name(m)},
        [this, m](std::string* error) {
          auto snapshot = [&] {
            const obs::ScopedSpan span("export.render", "phase");
            return universe_.snapshot_at(m);
          }();
          const auto write_csv = [&](const std::string& tmp) {
            const obs::ScopedSpan span("export.write_csv", "phase");
            return io::write_snapshot_csv(tmp, snapshot);
          };
          if (!write_artifact(snapshot_name(m), write_csv, error)) return false;
          // The file is durable: hand the snapshot to corpus[m].
          MonthContext& context = month_context(m);
          const std::lock_guard<std::mutex> lock(context.mutex);
          context.snapshot = std::move(snapshot);
          return true;
        });

    corpus_ids[m] = add_stage(
        "corpus[" + d + "]", {evolve_ids[m], export_ids[m]}, kFnvBasis, {corpus_name(m)},
        [this, m](std::string* error) {
          const auto corpus = corpus_for(m, error);
          if (!corpus) return false;
          const auto& stats = corpus->stats();
          std::string text = "metric,value\n";
          text += "snapshot_domains," + std::to_string(stats.snapshot_domains) + "\n";
          text += "dual_stack_domains," + std::to_string(stats.dual_stack_domains) + "\n";
          text += "v4_prefixes," + std::to_string(stats.v4_prefixes) + "\n";
          text += "v6_prefixes," + std::to_string(stats.v6_prefixes) + "\n";
          text += "discarded_reserved," + std::to_string(stats.discarded_reserved) + "\n";
          text += "unmapped_addresses," + std::to_string(stats.unmapped_addresses) + "\n";
          text += "v4_hosts," + std::to_string(stats.v4_hosts) + "\n";
          text += "v6_hosts," + std::to_string(stats.v6_hosts) + "\n";
          text += "host_domain_edges," + std::to_string(stats.host_domain_edges) + "\n";
          return io::atomic_write_file(abs(corpus_name(m)), text, error);
        });

    // One thread per detect stage: the DAG runs several months at once.
    detect_ids[m] = add_stage(
        "detect[" + d + "]", {corpus_ids[m]}, detect_hash, {pairs_name(m)},
        [this, m](std::string* error) {
          const auto corpus = corpus_for(m, error);
          if (!corpus) return false;
          return write_pairs(pairs_name(m), core::detect_sibling_prefixes(*corpus, {.threads = 1}),
                             error);
        });

    // sptuner[m] writes the month's published list, which the sibdb, diff
    // and longitudinal stages read.
    tuner_ids[m] = add_stage(
        "sptuner[" + d + "]", {detect_ids[m]}, tuner_hash, {list_name(m)},
        [this, m](std::string* error) {
          const auto corpus = corpus_for(m, error);
          if (!corpus) return false;
          const auto pairs = read_pairs(pairs_name(m), error);
          if (!pairs) return false;
          const core::SpTunerMs tuner(*corpus,
                                      {config_.v4_threshold, config_.v6_threshold});
          return write_pairs(list_name(m), tuner.tune_all(*pairs).pairs, error);
        });

    // Each slot is emptied when its consumer ends, whatever its status, so
    // resident memory tracks the months in flight: a cached, failed or
    // skipped consumer never takes its slot. sptuner[m] is the corpus's
    // last consumer.
    if (m > 0) {
      states_[evolve_ids[m]].release = [this, m] {
        MonthContext& context = month_context(m - 1);
        const std::lock_guard<std::mutex> lock(context.mutex);
        context.rib.reset();
      };
    }
    states_[corpus_ids[m]].release = [this, m] {
      MonthContext& context = month_context(m);
      const std::lock_guard<std::mutex> lock(context.mutex);
      context.announced.reset();
      context.snapshot.reset();
    };
    states_[tuner_ids[m]].release = [this, m] {
      MonthContext& context = month_context(m);
      const std::lock_guard<std::mutex> lock(context.mutex);
      context.corpus.reset();
    };

    sibdb_ids[m] = add_stage(
        "sibdb[" + d + "]", {tuner_ids[m]}, sibdb_hash, {sibdb_name(m)},
        [this, m](std::string* error) {
          const auto pairs = read_pairs(list_name(m), error);
          if (!pairs) return false;
          // The relative CSV name as provenance label keeps .sibdb bytes
          // independent of the run directory (the resume test's
          // byte-identity contract).
          return write_artifact(
              sibdb_name(m),
              [&](const std::string& tmp) { return serve::write_sibdb(tmp, *pairs, list_name(m)); },
              error);
        });

    if (m > 0) {
      // The month's publishable delta log: consecutive .sibdb snapshots
      // diffed into a small .spdl patch (stream/spdl.h). sp_serve applies
      // it to a live service via RELOAD <delta>.spdl, so a rolling
      // campaign ships deltas instead of full snapshots.
      add_stage("sibdelta[" + ds(m - 1) + ".." + d + "]", {sibdb_ids[m - 1], sibdb_ids[m]},
                spdl_hash, {delta_name(m)}, [this, m](std::string* error) {
                  std::string load_error;
                  const auto base = [&] {
                    const obs::ScopedSpan span("sibdelta.load", "phase");
                    return serve::SiblingDB::load(abs(sibdb_name(m - 1)), &load_error);
                  }();
                  if (!base) {
                    *error = "cannot load " + sibdb_name(m - 1) + ": " + load_error;
                    return false;
                  }
                  const auto target = [&] {
                    const obs::ScopedSpan span("sibdelta.load", "phase");
                    return serve::SiblingDB::load(abs(sibdb_name(m)), &load_error);
                  }();
                  if (!target) {
                    *error = "cannot load " + sibdb_name(m) + ": " + load_error;
                    return false;
                  }
                  const auto delta = [&] {
                    const obs::ScopedSpan span("sibdelta.diff", "phase");
                    return stream::diff_sibdb(*base, *target, error);
                  }();
                  if (!delta) return false;
                  const auto write_spdl = [&](const std::string& tmp) {
                    const obs::ScopedSpan span("sibdelta.write", "phase");
                    return stream::write_spdl(tmp, *delta);
                  };
                  return write_artifact(delta_name(m), write_spdl, error);
                });

      diff_ids.push_back(add_stage(
          "diff[" + ds(m - 1) + ".." + d + "]", {tuner_ids[m - 1], tuner_ids[m]},
          kFnvBasis, {diff_name(m)}, [this, m](std::string* error) {
            const auto old_list = read_pairs(list_name(m - 1), error);
            if (!old_list) return false;
            const auto new_list = read_pairs(list_name(m), error);
            if (!new_list) return false;
            const auto diff = core::diff_sibling_lists(*old_list, *new_list);
            std::string text = "metric,value\n";
            text += "added," + std::to_string(diff.added.size()) + "\n";
            text += "removed," + std::to_string(diff.removed.size()) + "\n";
            text += "changed," + std::to_string(diff.changed.size()) + "\n";
            text += "unchanged," + std::to_string(diff.unchanged.size()) + "\n";
            return io::atomic_write_file(abs(diff_name(m)), text, error);
          }));
    }
  }

  std::vector<StageId> fan_in = tuner_ids;
  fan_in.insert(fan_in.end(), diff_ids.begin(), diff_ids.end());
  add_stage("longitudinal", std::move(fan_in), kFnvBasis, {"longitudinal.csv"},
            [this, months](std::string* error) {
              std::string text =
                  "date,pairs,mean_similarity,v4_prefixes,v6_prefixes,added,removed,"
                  "changed,unchanged\n";
              std::vector<core::SiblingPair> previous;
              for (int m = 0; m < months; ++m) {
                const auto pairs = read_pairs(list_name(m), error);
                if (!pairs) return false;
                double similarity_sum = 0.0;
                for (const auto& pair : *pairs) similarity_sum += pair.similarity;
                const double mean =
                    pairs->empty() ? 0.0 : similarity_sum / static_cast<double>(pairs->size());
                char mean_text[32];
                std::snprintf(mean_text, sizeof mean_text, "%.6f", mean);
                text += ds(m) + "," + std::to_string(pairs->size()) + "," + mean_text + "," +
                        std::to_string(core::unique_prefix_count(*pairs, Family::v4)) + "," +
                        std::to_string(core::unique_prefix_count(*pairs, Family::v6));
                if (m == 0) {
                  text += ",0,0,0,0\n";
                } else {
                  const auto diff = core::diff_sibling_lists(previous, *pairs);
                  text += "," + std::to_string(diff.added.size()) + "," +
                          std::to_string(diff.removed.size()) + "," +
                          std::to_string(diff.changed.size()) + "," +
                          std::to_string(diff.unchanged.size()) + "\n";
                }
                previous = std::move(*pairs);
              }
              return io::atomic_write_file(abs("longitudinal.csv"), text, error);
            });
}

CampaignReport Runner::run() {
  CampaignReport report;
  std::error_code mkdir_error;
  std::filesystem::create_directories(config_.out_dir, mkdir_error);
  if (mkdir_error) {
    report.error = "mkdir " + config_.out_dir + ": " + mkdir_error.message();
    return report;
  }
  manifest_file_ = Campaign::manifest_path(config_.out_dir);
  report.manifest_path = manifest_file_;

  if (resume_) {
    // A missing or corrupt manifest simply means nothing can be skipped.
    if (auto loaded = RunManifest::load(manifest_file_)) old_ = std::move(*loaded);
  }
  manifest_.campaign = "sibling-prefixes " + std::to_string(universe_.month_count()) +
                       "-month campaign ending " + ds(universe_.month_count() - 1);
  manifest_.config = describe_config(config_);

  build_graph();
  graph_.set_observer([this](const StageResult& result) { on_stage_result(result); });
  graph_.set_stop_flag(config_.stop_flag);

  core::WorkerPool pool(config_.threads);
  const bool graph_ok = graph_.run(pool);

  {
    const std::lock_guard<std::mutex> lock(manifest_mutex_);
    report.error = manifest_error_;
  }
  report.ok = graph_ok && report.error.empty();
  report.stages = graph_.results();
  for (const StageResult& stage : report.stages) {
    switch (stage.status) {
      case StageStatus::Done: ++report.done_count; break;
      case StageStatus::Cached: ++report.cached_count; break;
      case StageStatus::Failed: ++report.failed_count; break;
      case StageStatus::Skipped: ++report.skipped_count; break;
      case StageStatus::Pending:
      case StageStatus::Running: break;
    }
    report.peak_rss_kb = std::max(report.peak_rss_kb, stage.peak_rss_kb);
  }
  return report;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> describe_config(const CampaignConfig& config) {
  std::vector<std::pair<std::string, std::string>> kvs;
  for_each_config_key(config, [&kvs](const char* key, const auto& field) {
    kvs.emplace_back(key, format_value(field));
  });
  return kvs;
}

CampaignConfig config_from_manifest(const RunManifest& manifest, std::string out_dir,
                                    unsigned threads) {
  CampaignConfig config;
  config.out_dir = std::move(out_dir);
  config.threads = threads;
  for_each_config_key(config, [&manifest](const char* key, auto& field) {
    const std::string value = manifest.config_value(key);
    if (!value.empty()) parse_value(value, field);
  });
  return config;
}

std::vector<StaleStage> stale_stages(const RunManifest& manifest, const std::string& out_dir) {
  std::vector<StaleStage> stale;
  for (const StageRecord& stage : manifest.stages) {
    if (stage.status != "done" && stage.status != "cached") continue;
    for (const OutputRecord& output : stage.outputs) {
      if (const char* fault = output_fault(out_dir, output)) {
        stale.push_back({stage.name, output.path, fault});
      }
    }
  }
  return stale;
}

CampaignReport Campaign::run(bool resume, std::function<void(const StageResult&)> observer) {
  const auto start = std::chrono::steady_clock::now();
  CampaignReport report;
  if (config_.out_dir.empty()) {
    report.error = "out_dir must be set";
    return report;
  }
  if (config_.synth.months <= 0) {
    report.error = "campaign needs at least one month";
    return report;
  }
  // With a trace path, every stage execution (and any detect/serve span
  // beneath it) lands in one Chrome-trace file next to the manifest's
  // records. The recorder is installed for the duration of the run only;
  // a trace write failure is reported but does not fail the campaign.
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!config_.trace_path.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>();
    obs::TraceRecorder::set_active(recorder.get());
  }
  Runner runner(config_, resume, std::move(observer));
  report = runner.run();
  if (recorder) {
    obs::TraceRecorder::set_active(nullptr);
    std::string trace_error;
    if (!recorder->write(config_.trace_path, &trace_error) && report.error.empty()) {
      report.error = "trace write failed: " + trace_error;
    }
  }
  report.total_wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

}  // namespace sp::pipeline
