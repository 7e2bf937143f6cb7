#include "core/detect.h"

#include <chrono>
#include <stdexcept>

#include "core/detect_scan.h"
#include "obs/metrics.h"

namespace sp::core {

namespace {
const std::vector<Prefix> kNoPrefixes;
}  // namespace

void SetCorpus::add(const Prefix& prefix, DomainId element) {
  if (finalized_) {
    throw std::logic_error("SetCorpus::add called after finalize()");
  }
  auto& sets = prefix.family() == Family::v4 ? v4_sets_ : v6_sets_;
  sets[prefix].push_back(element);
  auto& by_element =
      prefix.family() == Family::v4 ? v4_prefixes_by_element_ : v6_prefixes_by_element_;
  if (by_element.size() <= element) by_element.resize(element + 1);
  by_element[element].push_back(prefix);
}

void SetCorpus::finalize() {
  if (finalized_) return;
  for (auto* sets : {&v4_sets_, &v6_sets_}) {
    for (auto& [prefix, set] : *sets) normalize(set);
  }
  for (auto* by_element : {&v4_prefixes_by_element_, &v6_prefixes_by_element_}) {
    for (auto& prefixes : *by_element) {
      std::sort(prefixes.begin(), prefixes.end());
      prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
    }
  }
  index_ = DetectIndex::build(v4_sets_, v6_sets_);
  finalized_ = true;
}

const DetectIndex& SetCorpus::detect_index() const {
  if (!finalized_) {
    throw std::logic_error("SetCorpus::detect_index requires finalize()");
  }
  return index_;
}

const std::vector<Prefix>& SetCorpus::prefixes_of(DomainId element,
                                                  Family family) const noexcept {
  const auto& by_element =
      family == Family::v4 ? v4_prefixes_by_element_ : v6_prefixes_by_element_;
  if (element >= by_element.size()) return kNoPrefixes;
  return by_element[element];
}

const DomainSet* SetCorpus::domains_of(const Prefix& prefix) const noexcept {
  const auto& sets = prefix.family() == Family::v4 ? v4_sets_ : v6_sets_;
  const auto it = sets.find(prefix);
  return it == sets.end() ? nullptr : &it->second;
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
  return detail::detect_over(corpus, options);
}

std::vector<SiblingPair> detect_sibling_prefixes_serial(const SetCorpus& corpus,
                                                        const DetectOptions& options) {
  return detail::detect_over(corpus, options);
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
