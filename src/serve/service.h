// SiblingService — concurrent lookup service over hot-swappable snapshots.
//
// A production consumer keeps answering queries while a newer published
// list is rolled out. The service holds the current snapshot behind an
// atomically swappable std::shared_ptr<const Snapshot> with RCU
// semantics:
//
//   * readers grab the shared_ptr under a briefly-held pointer lock
//     (copy only — never blocking on a reload's mmap or index build),
//     pin the snapshot for the duration of one query or one whole
//     batch, and drop the reference when done;
//   * load() builds the new snapshot entirely off to the side (mmap +
//     index build), then numbers it and swaps the pointer in one
//     assignment under the same lock, so generations go live in
//     increasing order even when concurrent loads finish out of order;
//     the old snapshot is freed by whichever side drops the last
//     reference, so in-flight queries drain on the data they started
//     with and no answer is ever torn across two snapshots.
//
// The slot is a mutex-guarded shared_ptr rather than
// std::atomic<std::shared_ptr>: the critical section is a pointer copy,
// and the mutex is visible to ThreadSanitizer, which verifies the
// hot-reload race test (libstdc++'s lock-free _Sp_atomic spinlock is
// not modeled by TSan and reports false races).
//
// Every batch is answered from exactly one snapshot (BatchResult pins
// it), which is what the hot-reload race test asserts under TSan.
//
// Counters (queries, hits, misses, batches, reloads, latency sums, and
// each generation's tally) are relaxed atomics: cheap on the hot path,
// exact totals when quiesced. A generation's tally is shared between its
// snapshot and the service, so it outlives the snapshot: retiring a
// generation keeps a few dozen bytes, never the snapshot itself.
//
// sp-lint-file: atomics-ok(independent statistics counters; relaxed is
// sound because nothing orders against them and exact totals are only
// read quiesced — see the file header above)
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/worker_pool.h"
#include "obs/metrics.h"
#include "serve/lookup.h"
#include "serve/sibdb.h"

namespace sp::serve {

/// Serving tally of one snapshot generation (current or retired).
struct GenerationStats {
  std::uint64_t generation = 0;
  std::uint64_t queries = 0;  // single queries + batch members
  std::uint64_t hits = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    return queries == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(queries);
  }
};

/// The live counters behind one generation's GenerationStats, shared by
/// its snapshot (which counts into it) and the service (which reports
/// it after the snapshot is gone).
struct GenerationTally {
  explicit GenerationTally(std::uint64_t gen) : generation(gen) {}

  [[nodiscard]] GenerationStats stats() const noexcept {
    return {generation, queries.load(std::memory_order_relaxed),
            hits.load(std::memory_order_relaxed)};
  }

  const std::uint64_t generation;
  std::atomic<std::uint64_t> queries{0};  // single queries + batch members
  std::atomic<std::uint64_t> hits{0};
};

/// An immutable loaded database + its lookup index. The engine holds a
/// pointer into `db`, so the two live and die together. SiblingService
/// sets `generation` and `tally` when it publishes the snapshot; after
/// that nothing in it changes but the tally's counters.
struct Snapshot {
  Snapshot(SiblingDB loaded, std::string source_path)
      : db(std::move(loaded)), engine(db), path(std::move(source_path)) {}

  void count(std::uint64_t queries, std::uint64_t hits) const noexcept {
    tally->queries.fetch_add(queries, std::memory_order_relaxed);
    tally->hits.fetch_add(hits, std::memory_order_relaxed);
  }

  SiblingDB db;
  LookupEngine engine;
  std::string path;
  std::uint64_t generation = 0;  // increasing in publication order
  std::shared_ptr<GenerationTally> tally;
};

/// Retired generations kept individually before compaction folds the
/// oldest into the cumulative bucket (ServiceStats::compacted). 64 spans
/// two months of hourly reloads; beyond that only the aggregate is
/// interesting, and an unbounded list would leak under reload churn.
inline constexpr std::size_t kRetiredGenerationCap = 64;

/// Point-in-time service counters.
struct ServiceStats {
  std::uint64_t queries = 0;  // single queries (batch members not included)
  std::uint64_t hits = 0;     // covered single queries
  std::uint64_t misses = 0;   // uncovered single queries (or no snapshot)
  std::uint64_t batches = 0;
  std::uint64_t batch_queries = 0;  // addresses across all batches
  std::uint64_t batch_hits = 0;
  std::uint64_t reloads = 0;  // successful load() calls
  double query_ms_total = 0.0;
  double batch_ms_total = 0.0;
  std::uint64_t generation = 0;  // 0 = nothing loaded yet

  // Latency distribution of single queries, estimated from the
  // serve.query_us log₂ histogram (obs/metrics.h); max is exact.
  double query_p50_us = 0.0;
  double query_p90_us = 0.0;
  double query_p99_us = 0.0;
  std::uint64_t query_max_us = 0;
  // Same for whole batches (serve.batch_us).
  double batch_p50_us = 0.0;
  double batch_p90_us = 0.0;
  double batch_p99_us = 0.0;
  std::uint64_t batch_max_us = 0;

  /// Hit rate per snapshot generation this service has served, oldest
  /// first and contiguous; the last entry is the live generation.
  /// kRetiredGenerationCap retired entries plus the live one once older
  /// retirees are folded into `compacted` — more only while the oldest
  /// retired snapshot is still pinned by an in-flight query.
  std::vector<GenerationStats> generations;

  /// Cumulative tally of every retired generation older than the
  /// `generations` window (generation field is 0 — it is an aggregate).
  /// Invariant: compacted + generations sums to everything ever served.
  GenerationStats compacted;
  std::uint64_t compacted_generations = 0;  // how many were folded in
};

/// A batch answered from exactly one pinned snapshot.
struct BatchResult {
  std::shared_ptr<const Snapshot> snapshot;  // nullptr when nothing is loaded
  std::vector<std::optional<SiblingAnswer>> answers;
};

class SiblingService {
 public:
  /// `threads` sizes the batch worker pool (0 = hardware concurrency).
  explicit SiblingService(unsigned threads = 0);

  SiblingService(const SiblingService&) = delete;
  SiblingService& operator=(const SiblingService&) = delete;

  /// Loads `path` and atomically swaps it in. On failure the current
  /// snapshot stays live and `error` (when non-null) gets the reason.
  [[nodiscard]] bool load(const std::string& path, std::string* error = nullptr);

  /// Re-loads the file backing the current snapshot (the bare RELOAD of
  /// the serve CLI: the publisher replaced the .sibdb in place — e.g. a
  /// new campaign run — and the path is already known). Fails without
  /// touching the current snapshot when nothing is loaded yet or the
  /// file no longer validates.
  [[nodiscard]] bool reload(std::string* error = nullptr);

  /// The currently served snapshot (nullptr before the first load).
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const;

  /// Single-address lookup against the current snapshot.
  [[nodiscard]] std::optional<SiblingAnswer> query(const IPAddress& address);

  /// Prefix lookup (longest-prefix match) against the current snapshot.
  [[nodiscard]] std::optional<SiblingAnswer> query(const Prefix& prefix);

  /// Batched lookup pinned to one snapshot for the whole batch; sharded
  /// over the service's worker pool. Thread-safe: concurrent batches are
  /// serialized on the pool, concurrent load() needs no coordination.
  [[nodiscard]] BatchResult query_many(std::span<const IPAddress> addresses);

  [[nodiscard]] ServiceStats stats() const;

 private:
  void count_query(bool hit, std::chrono::steady_clock::time_point start);

  core::WorkerPool pool_;
  // lock-order: 10 serve.service.pool_mutex (WorkerPool::run is not
  // reentrant; held across the batch, so core.worker_pool.mutex nests
  // inside it)
  std::mutex pool_mutex_;
  // lock-order: 20 serve.service.current_mutex (guards the pointer
  // copy/swap, the generation numbering and the retired tallies only;
  // leaf — nothing is acquired under it)
  mutable std::mutex current_mutex_;
  std::shared_ptr<const Snapshot> current_;
  std::uint64_t published_ = 0;  // generations published so far

  std::atomic<std::uint64_t> queries_{0}, hits_{0}, misses_{0};
  std::atomic<std::uint64_t> batches_{0}, batch_queries_{0}, batch_hits_{0};
  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> query_ns_{0}, batch_ns_{0};

  // Tallies of the generations this service replaced, oldest first. A
  // batch that pinned a snapshot before the swap keeps counting into its
  // tally after it, so a tally is final only once its snapshot is gone
  // (use_count()==1: only this list still holds it, and nothing can pin
  // a retired snapshot again). Beyond kRetiredGenerationCap, final
  // tallies fold front-first into compacted_.
  std::deque<std::shared_ptr<const GenerationTally>> retired_;
  GenerationStats compacted_;          // aggregate of folded retirees
  std::uint64_t compacted_count_ = 0;  // generations folded so far

  // Latency histograms in the process-wide registry (shared across
  // services by name — the registry is the fleet view; the per-service
  // exact counters above stay per-instance).
  obs::Histogram query_us_;  // serve.query_us, single queries
  obs::Histogram batch_us_;  // serve.batch_us, whole batches (LookupEngine records)
};

}  // namespace sp::serve
