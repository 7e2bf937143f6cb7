// Workload `publish-scale`: one month published from files at synth
// scale 2 with 1000 orgs — the single-snapshot path of the paper's
// methodology, with a working set well beyond the caches.
//
// The universe is the project's default synthetic Internet (synth seed
// 42): its size, and with it the cost of the corpus build, varies by up
// to 3x between synth seeds, which would swamp any change. The workload
// seed instead orders the snapshot CSV's rows, so every seed is the same
// work in a different input order — and must publish byte-identical
// outputs, whose digest is recorded once for all seeds. The row order
// alone moved the op's cost by about 10% between seeds, so each op of a run draws its
// own order from the seed and the op's index, and the run's median spans
// several orders.
//
// Per op: the universe's month is generated and its MRT RIB dump and
// resolution snapshot CSV are written (set-up, timed as setup_s; the
// generation is CPU-bound and steadier than the file writes alone), then
// the timed path
// runs mrt::read_file → Rib::from_mrt → read_snapshot_csv →
// DualStackCorpus::build → exact detection (4 threads) →
// SpTunerMs::tune_all (/28, /96) → write_sibling_list →
// convert_sibling_list. Every call is a span, so the layer times plus
// publish.remainder_ms add up to the op.
#include <cstdio>

#include "bench.h"
#include "bgp/rib.h"
#include "core/corpus.h"
#include "core/detect.h"
#include "core/sibling_list_io.h"
#include "core/sptuner.h"
#include "io/snapshot_csv.h"
#include "mrt/file.h"
#include "serve/sibdb.h"
#include "synth/universe.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kUniverseSeed = 42;
constexpr int kScale = 2;
constexpr int kOrgs = 1000;

const char* const kLayerSpans[] = {"mrt.read",         "bgp.rib_build",  "io.snapshot_csv",
                                   "core.corpus_build", "core.detect",    "core.sptuner",
                                   "core.list_write",  "serve.sibdb_convert"};

struct PublishOp {
  bool ok = false;
  std::string error;
  double ms = 0.0;
  std::uint64_t candidates = 0;
  std::size_t pairs = 0;
  std::size_t changed = 0;
};

PublishOp publish(const std::string& dir, unsigned threads, Spans& spans) {
  PublishOp op;
  const Span whole(spans, "publish");
  std::string error;
  const auto records = [&] {
    const Span span(spans, "mrt.read");
    return sp::mrt::read_file(dir + "/rib.mrt", &error);
  }();
  if (!records) {
    op.error = "mrt read: " + error;
    return op;
  }
  const sp::bgp::Rib rib = [&] {
    const Span span(spans, "bgp.rib_build");
    return sp::bgp::Rib::from_mrt(*records);
  }();
  const auto snapshot = [&] {
    const Span span(spans, "io.snapshot_csv");
    return sp::io::read_snapshot_csv(dir + "/snapshot.csv");
  }();
  if (!snapshot) {
    op.error = "snapshot csv unreadable";
    return op;
  }
  const sp::core::DualStackCorpus corpus = [&] {
    const Span span(spans, "core.corpus_build");
    return sp::core::DualStackCorpus::build(*snapshot, rib);
  }();
  sp::core::DetectStats stats;
  const auto pairs = [&] {
    const Span span(spans, "core.detect");
    sp::core::DetectOptions options;
    options.threads = threads;
    options.stats = &stats;
    return sp::core::detect_sibling_prefixes(corpus, options);
  }();
  const sp::core::SpTunerResult tuned = [&] {
    const Span span(spans, "core.sptuner");
    return sp::core::SpTunerMs(corpus, {28, 96}).tune_all(pairs);
  }();
  {
    const Span span(spans, "core.list_write");
    if (!sp::core::write_sibling_list(dir + "/siblings.csv", tuned.pairs)) {
      op.error = "cannot write siblings.csv";
      return op;
    }
  }
  {
    const Span span(spans, "serve.sibdb_convert");
    if (!sp::serve::convert_sibling_list(dir + "/siblings.csv", dir + "/siblings.sibdb",
                                         &error)) {
      op.error = "convert: " + error;
      return op;
    }
  }
  op.ok = true;
  op.candidates = stats.candidates_evaluated;
  op.pairs = tuned.pairs.size();
  op.changed = tuned.changed_count;
  return op;
}

/// `snapshot` with its rows in the seeded order.
sp::dns::ResolutionSnapshot shuffled(const sp::dns::ResolutionSnapshot& snapshot,
                                     std::uint64_t seed) {
  std::vector<const sp::dns::DomainResolution*> rows;
  for (const auto& entry : snapshot.entries()) rows.push_back(&entry);
  for (std::size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[mix(seed, i, 0x726f7773ull) % i]);  // "rows"
  }
  sp::dns::ResolutionSnapshot out(snapshot.date());
  for (const auto* row : rows) out.add(*row);
  return out;
}

}  // namespace

Result run_publish(const Options& options) {
  Result result;
  // A relative directory keeps the provenance label convert_sibling_list
  // stores in the .sibdb — and so the digest — independent of the checkout.
  const std::string dir = options.work_dir;
  sp::synth::SynthConfig config;
  config.seed = kUniverseSeed;
  config.scale = kScale;
  config.organization_count = kOrgs;
  config.months = 1;
  // The universe is freed before the op starts, so it does not sit in the
  // op's peak RSS.
  const auto write_inputs = [&](int op) {
    const sp::synth::SyntheticInternet universe(config);
    return sp::mrt::write_file(dir + "/rib.mrt", universe.mrt_dump_at(0)) &&
           sp::io::write_snapshot_csv(dir + "/snapshot.csv",
                                      shuffled(universe.snapshot_at(0), mix(options.seed, op)));
  };

  Spans traced(true), untraced(false);
  std::vector<double> op_ms, setup_ms, rss_mb, traced_ms, untraced_ms;
  std::optional<std::uint64_t> digest;
  PublishOp last;
  int traced_ops = 0;
  const Clock::time_point start = Clock::now();
  const int min_ops = options.trace ? 2 : 1;
  for (int i = 0; i < min_ops || ms_since(start) < options.seconds * 1000.0; ++i) {
    const Clock::time_point setup_start = Clock::now();
    const bool written = write_inputs(i);
    setup_ms.push_back(ms_since(setup_start));
    if (!result.check(written, "cannot write publish inputs")) break;

    const bool is_traced = options.trace && i % 2 == 1;
    reset_peak_rss();
    // The op includes tearing down the corpus and RIB it built.
    const Clock::time_point op_start = Clock::now();
    PublishOp op = publish(dir, kThreads, is_traced ? traced : untraced);
    op.ms = ms_since(op_start);
    rss_mb.push_back(static_cast<double>(peak_rss_kb()) / 1024.0);
    if (!result.check(op.ok, "publish failed: " + op.error)) continue;
    traced_ops += is_traced ? 1 : 0;
    op_ms.push_back(op.ms);
    (is_traced ? traced_ms : untraced_ms).push_back(op.ms);
    last = op;

    std::string error;
    const auto db = sp::serve::SiblingDB::load(dir + "/siblings.sibdb", &error);
    result.check(db && db->size() == op.pairs, "published .sibdb does not hold the list: " + error);
    const auto files = digest_files(dir, "siblings", {".csv", ".sibdb"});
    if (result.check(files.has_value(), "published files missing")) {
      if (!digest) digest = files;
      result.check(*files == *digest, "publish outputs differ between ops of one seed");
    }
  }
  if (digest) check_digest(result, options, *digest);

  result.end_to_end["op_p50_ms"] = {median(op_ms), "ms"};
  result.end_to_end["items_per_s"] = {static_cast<double>(last.pairs) / (median(op_ms) / 1e3),
                                      "1/s"};
  result.end_to_end["setup_s"] = {median(setup_ms) / 1e3, "s"};
  result.end_to_end["peak_rss_mb"] = {median(rss_mb), "MB"};

  result.note("publish_s", median(op_ms) / 1e3, "s");
  result.note("publishes_measured", static_cast<double>(op_ms.size()), "count");
  result.note("setup_s", median(setup_ms) / 1e3, "s");
  result.note("published_pairs", static_cast<double>(last.pairs), "count");
  result.note("peak_rss_mb", median(rss_mb), "MB");

  if (traced_ops > 0) {
    const double n = traced_ops;
    double accounted = 0.0;
    for (const char* name : kLayerSpans) {
      const double ms = traced.total_ms(name) / n;
      accounted += ms;
      result.layer(std::string(name) + "_ms", ms, "ms");
    }
    const double publish_ms = traced.total_ms("publish") / n;
    result.layer("publish.remainder_ms", publish_ms - accounted, "ms");
    result.layer("core.detect_candidates", static_cast<double>(last.candidates), "count");
    result.layer("core.sptuner_changed", static_cast<double>(last.changed), "count");
    result.layer("trace.op_ms", median(traced_ms), "ms");
    result.layer("trace.overhead_ms", median(traced_ms) - median(untraced_ms), "ms");
    if (!options.trace_dir.empty()) {
      (void)traced.write_chrome_trace(options.trace_dir + "/publish-scale.json");
    }
  }
  return result;
}

}  // namespace perfbench
