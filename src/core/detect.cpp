#include "core/detect.h"

#include <chrono>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/detect_scan.h"
#include "obs/metrics.h"

namespace sp::core {

void SetCorpus::add(const Prefix& prefix, DomainId element) {
  if (finalized_) {
    throw std::logic_error("SetCorpus::add called after finalize()");
  }
  if (element >= DetectIndex::kElementLimit) {
    throw std::out_of_range("SetCorpus::add: element id at or above DetectIndex::kElementLimit");
  }
  edges_.push_back(DetectIndex::Edge{prefix, element});
}

void SetCorpus::finalize() {
  if (finalized_) return;
  index_ = DetectIndex::build(std::move(edges_));
  edges_ = {};
  finalized_ = true;
}

const DetectIndex& SetCorpus::detect_index() const {
  if (!finalized_) {
    throw std::logic_error("SetCorpus::detect_index requires finalize()");
  }
  return index_;
}

DomainSpan SetCorpus::domains_of(const Prefix& prefix) const noexcept {
  const DetectIndex::Side& side = index_.side(prefix.family());
  const auto dense = side.find(prefix);
  return dense ? side.elements_of(*dense) : DomainSpan{};
}

namespace {

std::vector<SiblingPair> detect_indexed(const DetectIndex& index, const DetectOptions& options) {
  const auto run_start = std::chrono::steady_clock::now();
  WorkerPool pool(options.threads);
  DetectStats stats;
  stats.threads_used = pool.thread_count();
  auto pairs = detail::detect_all(
      pool, index, "detect", stats,
      [&](Family from, std::uint32_t source, detail::ScanScratch& scratch,
          std::vector<SiblingPair>& out, DetectStats& local) {
        detail::scan_source(index.side(from),
                            index.side(from == Family::v4 ? Family::v6 : Family::v4), from,
                            options.metric, source, scratch, out, local);
      });

  // Registry updates once per run, never per prefix: aggregate counts and
  // one whole-run latency sample.
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("detect.runs").add();
  registry.counter("detect.pairs_emitted").add(static_cast<std::int64_t>(pairs.size()));
  registry.counter("detect.candidates_evaluated")
      .add(static_cast<std::int64_t>(stats.candidates_evaluated));
  registry.histogram("detect.run_us")
      .record(static_cast<std::uint64_t>(detail::elapsed_ms(run_start) * 1000.0));
  if (options.stats != nullptr) *options.stats = stats;
  return pairs;
}

}  // namespace

std::vector<SiblingPair> detect_sibling_prefixes(const DualStackCorpus& corpus,
                                                 const DetectOptions& options) {
  return detect_indexed(corpus.detect_index(), options);
}

std::vector<SiblingPair> detect_sibling_prefixes(const SetCorpus& corpus,
                                                 const DetectOptions& options) {
  return detect_indexed(corpus.detect_index(), options);
}

std::vector<SiblingPair> detect_sibling_prefixes_serial(const DualStackCorpus& corpus,
                                                        const DetectOptions& options) {
  return detail::detect_over(corpus.detect_index(), options);
}

std::vector<SiblingPair> detect_sibling_prefixes_serial(const SetCorpus& corpus,
                                                        const DetectOptions& options) {
  return detail::detect_over(corpus.detect_index(), options);
}

std::size_t unique_prefix_count(std::span<const SiblingPair> pairs, Family family) {
  std::unordered_set<Prefix> seen;
  for (const SiblingPair& pair : pairs) {
    seen.insert(family == Family::v4 ? pair.v4 : pair.v6);
  }
  return seen.size();
}

std::vector<double> similarity_values(std::span<const SiblingPair> pairs) {
  std::vector<double> values;
  values.reserve(pairs.size());
  for (const SiblingPair& pair : pairs) values.push_back(pair.similarity);
  return values;
}

}  // namespace sp::core
