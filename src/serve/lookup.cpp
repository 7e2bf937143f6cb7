#include "serve/lookup.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/trace.h"

namespace sp::serve {

namespace {

/// Addresses claimed per atomic fetch in query_many; batches are cheap per
/// item, so chunks are larger than detection's.
constexpr std::size_t kBatchChunk = 256;

}  // namespace

LookupEngine::LookupEngine(const SiblingDB& db)
    : db_(&db),
      batch_us_(obs::MetricsRegistry::global().histogram("serve.batch_us")),
      batch_queries_(obs::MetricsRegistry::global().counter("serve.batch_queries")) {
  // One trie node per distinct stored prefix, holding its representative
  // record: the highest-similarity one, first in file on ties.
  const auto consider = [&](const Prefix& prefix, std::uint32_t record, std::size_t& distinct) {
    if (std::uint32_t* best = trie_.find(prefix)) {
      if (db.similarity(record) > db.similarity(*best)) *best = record;
      return;
    }
    trie_.insert(prefix, record);
    ++distinct;
  };
  for (std::size_t i = 0; i < db.size(); ++i) {
    const auto record = static_cast<std::uint32_t>(i);
    consider(db.v4_prefix(i), record, v4_count_);
    consider(db.v6_prefix(i), record, v6_count_);
  }
}

SiblingAnswer LookupEngine::answer_from(std::uint32_t record, Family query_family) const {
  SiblingAnswer answer;
  const bool from_v4 = query_family == Family::v4;
  answer.matched = from_v4 ? db_->v4_prefix(record) : db_->v6_prefix(record);
  answer.sibling = from_v4 ? db_->v6_prefix(record) : db_->v4_prefix(record);
  answer.similarity = db_->similarity(record);
  answer.shared_domains = db_->shared_domains(record);
  answer.v4_domain_count = db_->v4_domain_count(record);
  answer.v6_domain_count = db_->v6_domain_count(record);
  return answer;
}

std::optional<SiblingAnswer> LookupEngine::query(const IPAddress& address) const {
  return query(Prefix::host(address));
}

std::optional<SiblingAnswer> LookupEngine::query(const Prefix& prefix) const {
  const auto hit = trie_.longest_match(prefix);
  if (!hit) return std::nullopt;
  return answer_from(*hit->second, prefix.family());
}

std::vector<std::optional<SiblingAnswer>> LookupEngine::query_many(
    std::span<const IPAddress> addresses, core::WorkerPool* pool) const {
  const obs::ScopedSpan span("serve.query_many", "serve");
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::optional<SiblingAnswer>> answers(addresses.size());
  if (pool == nullptr || pool->thread_count() <= 1 || addresses.size() <= kBatchChunk) {
    for (std::size_t i = 0; i < addresses.size(); ++i) answers[i] = query(addresses[i]);
  } else {
    std::atomic<std::size_t> next{0};
    pool->run([&](unsigned worker) {
      const obs::ScopedSpan shard_span("serve.batch.shard" + std::to_string(worker),
                                       "serve");
      for (;;) {
        // sp-lint: atomics-ok(work-stealing chunk cursor; claims need no
        // ordering, only uniqueness — the pool join publishes results)
        const std::size_t begin = next.fetch_add(kBatchChunk, std::memory_order_relaxed);
        if (begin >= addresses.size()) return;
        const std::size_t end = std::min(addresses.size(), begin + kBatchChunk);
        for (std::size_t i = begin; i < end; ++i) answers[i] = query(addresses[i]);
      }
    });
  }
  batch_queries_.add(static_cast<std::int64_t>(addresses.size()));
  batch_us_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return answers;
}

}  // namespace sp::serve
