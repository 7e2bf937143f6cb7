#include "serve/service.h"

#include <utility>

// sp-lint-file: atomics-ok(statistics counters; see the rationale in
// service.h — relaxed is exact when quiesced and nothing orders on them)

namespace sp::serve {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

}  // namespace

SiblingService::SiblingService(unsigned threads)
    : pool_(threads),
      query_us_(obs::MetricsRegistry::global().histogram("serve.query_us")),
      batch_us_(obs::MetricsRegistry::global().histogram("serve.batch_us")) {}

bool SiblingService::load(const std::string& path, std::string* error) {
  auto db = SiblingDB::load(path, error);
  if (!db) return false;
  // Build the replacement off to the side; readers keep serving the old
  // snapshot until the single pointer swap below.
  auto snapshot = std::make_shared<Snapshot>(std::move(*db), path);
  std::shared_ptr<const Snapshot> outgoing;  // freed after the lock drops
  {
    std::lock_guard lock(current_mutex_);
    // Numbered at publication, not at build start: concurrent loads then
    // go live in generation order whichever build finishes first.
    snapshot->generation = ++published_;
    snapshot->tally = std::make_shared<GenerationTally>(snapshot->generation);
    if (current_) retired_.push_back(current_->tally);
    // Fold the oldest final tallies into the aggregate beyond the cap; a
    // pinned front waits for a later load, keeping the list contiguous.
    while (retired_.size() > kRetiredGenerationCap && retired_.front().use_count() == 1) {
      const GenerationStats folded = retired_.front()->stats();
      compacted_.queries += folded.queries;
      compacted_.hits += folded.hits;
      ++compacted_count_;
      retired_.pop_front();
    }
    outgoing = std::exchange(current_, std::move(snapshot));
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool SiblingService::reload(std::string* error) {
  const auto snap = snapshot();
  if (!snap) {
    if (error != nullptr) *error = "nothing loaded yet; use load(path) first";
    return false;
  }
  return load(snap->path, error);
}

std::shared_ptr<const Snapshot> SiblingService::snapshot() const {
  std::lock_guard lock(current_mutex_);
  return current_;
}

void SiblingService::count_query(bool hit, std::chrono::steady_clock::time_point start) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t ns = elapsed_ns(start);
  query_ns_.fetch_add(ns, std::memory_order_relaxed);
  query_us_.record(ns / 1000);
}

std::optional<SiblingAnswer> SiblingService::query(const IPAddress& address) {
  const auto start = std::chrono::steady_clock::now();
  const auto snap = snapshot();
  std::optional<SiblingAnswer> answer;
  if (snap) {
    answer = snap->engine.query(address);
    snap->count(1, answer.has_value() ? 1 : 0);
  }
  count_query(answer.has_value(), start);
  return answer;
}

std::optional<SiblingAnswer> SiblingService::query(const Prefix& prefix) {
  const auto start = std::chrono::steady_clock::now();
  const auto snap = snapshot();
  std::optional<SiblingAnswer> answer;
  if (snap) {
    answer = snap->engine.query(prefix);
    snap->count(1, answer.has_value() ? 1 : 0);
  }
  count_query(answer.has_value(), start);
  return answer;
}

BatchResult SiblingService::query_many(std::span<const IPAddress> addresses) {
  const auto start = std::chrono::steady_clock::now();
  BatchResult result;
  result.snapshot = snapshot();  // pin: the whole batch answers from here
  if (result.snapshot) {
    std::lock_guard lock(pool_mutex_);
    result.answers = result.snapshot->engine.query_many(addresses, &pool_);
  } else {
    result.answers.assign(addresses.size(), std::nullopt);
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_queries_.fetch_add(addresses.size(), std::memory_order_relaxed);
  std::uint64_t hit_count = 0;
  for (const auto& answer : result.answers) hit_count += answer.has_value() ? 1 : 0;
  batch_hits_.fetch_add(hit_count, std::memory_order_relaxed);
  batch_ns_.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
  if (result.snapshot) result.snapshot->count(addresses.size(), hit_count);
  return result;
}

ServiceStats SiblingService::stats() const {
  ServiceStats out;
  out.queries = queries_.load(std::memory_order_relaxed);
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.batch_queries = batch_queries_.load(std::memory_order_relaxed);
  out.batch_hits = batch_hits_.load(std::memory_order_relaxed);
  out.reloads = reloads_.load(std::memory_order_relaxed);
  out.query_ms_total = static_cast<double>(query_ns_.load(std::memory_order_relaxed)) / 1e6;
  out.batch_ms_total = static_cast<double>(batch_ns_.load(std::memory_order_relaxed)) / 1e6;

  const auto query_hist = obs::HistogramSnapshot::of(query_us_);
  out.query_p50_us = query_hist.quantile(0.50);
  out.query_p90_us = query_hist.quantile(0.90);
  out.query_p99_us = query_hist.quantile(0.99);
  out.query_max_us = query_hist.max;
  const auto batch_hist = obs::HistogramSnapshot::of(batch_us_);
  out.batch_p50_us = batch_hist.quantile(0.50);
  out.batch_p90_us = batch_hist.quantile(0.90);
  out.batch_p99_us = batch_hist.quantile(0.99);
  out.batch_max_us = batch_hist.max;

  std::lock_guard lock(current_mutex_);
  out.generations.reserve(retired_.size() + 1);
  for (const auto& tally : retired_) out.generations.push_back(tally->stats());
  if (current_) {
    out.generation = current_->generation;
    out.generations.push_back(current_->tally->stats());
  }
  out.compacted = compacted_;
  out.compacted_generations = compacted_count_;
  return out;
}

}  // namespace sp::serve
