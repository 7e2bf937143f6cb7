// sp::obs metrics — low-overhead counters, gauges and latency histograms
// for the detection, serving and pipeline hot paths.
//
// Design, hot path first:
//
//   * Counters and gauges are sharded: each metric owns kShards
//     cache-line-padded relaxed atomics, and a thread increments the
//     shard picked by a cheap thread-local index. Increment is one
//     uncontended `fetch_add(relaxed)` — no lock, no false sharing —
//     and the true value is the sum over shards, computed only on
//     scrape. Gauges are sum-of-deltas (add/sub from any thread), which
//     is exactly what a queue-depth gauge needs.
//   * Histograms use fixed log₂ bucketing: value v lands in bucket
//     bit_width(v) (bucket 0 holds v == 0), so a 64-bucket array covers
//     the full uint64 range with one `bit_width` + one relaxed
//     `fetch_add`. Sum and max ride along (max via a CAS loop that runs
//     only while the maximum is still growing). Quantiles are estimated
//     on scrape by linear interpolation inside the covering bucket —
//     log₂ buckets bound the relative error of a quantile by 2×, which
//     is plenty for p50/p90/p99 over microsecond latencies.
//   * Registration (name → metric cell) takes a mutex, but happens once
//     per metric at component construction, never per operation. Cells
//     live in a std::deque so handles stay valid as the registry grows.
//
// Handles (Counter/Gauge/Histogram) are trivially copyable pointers into
// registry-owned storage; they must not outlive their registry. The
// process-wide registry from MetricsRegistry::global() lives forever, so
// handles from it are always safe.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sp::obs {

/// Shards per counter/gauge; a small power of two — enough to keep a
/// handful of worker threads off each other's cache lines without
/// bloating every metric.
inline constexpr std::size_t kShards = 8;

/// log₂ buckets: bucket b (b >= 1) counts values in [2^(b-1), 2^b);
/// bucket 0 counts zeros. 64 buckets cover all of uint64.
inline constexpr std::size_t kHistogramBuckets = 64;

namespace detail {

struct alignas(64) PaddedAtomic {
  std::atomic<std::int64_t> value{0};
};

/// The shard this thread writes; assigned round-robin at first use so
/// distinct threads spread over distinct cache lines.
[[nodiscard]] std::size_t shard_index() noexcept;

struct CounterCell {
  std::string name;
  bool is_gauge = false;  // scrape() reports gauges separately
  std::array<PaddedAtomic, kShards> shards;

  void add(std::int64_t delta) noexcept {
    shards[shard_index()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const noexcept {
    std::int64_t total = 0;
    for (const auto& shard : shards) total += shard.value.load(std::memory_order_relaxed);
    return total;
  }
};

struct HistogramCell {
  std::string name;
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max{0};

  static constexpr std::size_t bucket_of(std::uint64_t value) noexcept {
    // bit_width(0) == 0; bit_width can reach 64, so the top bucket is
    // clamped and covers [2^62, 2^64).
    const auto width = static_cast<std::size_t>(std::bit_width(value));
    return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
  }

  void record(std::uint64_t value) noexcept {
    buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    sum.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = max.load(std::memory_order_relaxed);
    while (value > seen &&
           !max.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }
};

}  // namespace detail

/// Monotonic event count. Handle; copy freely, registry must outlive it.
class Counter {
 public:
  Counter() = default;
  void add(std::int64_t delta = 1) const noexcept {
    if (cell_ != nullptr) cell_->add(delta);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return cell_ != nullptr ? cell_->sum() : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// A level that moves both ways (queue depth, in-flight tasks). The value
/// is the sum of all adds; pair every add with a sub.
class Gauge {
 public:
  Gauge() = default;
  void add(std::int64_t delta = 1) const noexcept {
    if (cell_ != nullptr) cell_->add(delta);
  }
  void sub(std::int64_t delta = 1) const noexcept { add(-delta); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return cell_ != nullptr ? cell_->sum() : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Fixed-bucket log₂ histogram of non-negative integer samples
/// (microseconds, bytes, batch sizes...).
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t value) const noexcept {
    if (cell_ != nullptr) cell_->record(value);
  }

 private:
  friend class MetricsRegistry;
  friend struct HistogramSnapshot;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// Point-in-time copy of one histogram, with quantile estimation.
struct HistogramSnapshot {
  std::string name;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  /// Quantile estimate for p in [0, 1]: linear interpolation inside the
  /// log₂ bucket containing the p·count-th sample, clamped to the
  /// observed max. Returns 0 for an empty histogram.
  [[nodiscard]] double quantile(double p) const noexcept;
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Snapshot of a bare handle — the quantile path used by callers that
  /// keep their own handles (SiblingService STATS) without a full scrape.
  [[nodiscard]] static HistogramSnapshot of(const Histogram& histogram);
};

/// Everything the registry knew at one instant.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;  // name → value
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// JSON object: {"counters":{...},"gauges":{...},"histograms":{name:
  /// {"count":..,"sum":..,"max":..,"p50":..,"p90":..,"p99":..,
  /// "buckets":{"<upper>":count,...}}}}. Embedded by the benchmark
  /// binaries into their --json output.
  [[nodiscard]] std::string to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates; the same name always returns a handle to the same
  /// cell, so independent components share metrics by naming convention.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot scrape() const;

  /// The process-wide registry every subsystem defaults to. Never
  /// destroyed (intentionally leaked), so handles are safe in static
  /// destructors and detached threads.
  [[nodiscard]] static MetricsRegistry& global();

 private:
  detail::CounterCell* cell(std::string_view name, bool is_gauge);

  // lock-order: 50 obs.metrics.registry_mutex (registration and scrape
  // only, never on a record path; leaf)
  mutable std::mutex mutex_;
  std::deque<detail::CounterCell> counter_cells_;     // stable addresses
  std::deque<detail::HistogramCell> histogram_cells_;
  std::unordered_map<std::string, detail::CounterCell*> counters_by_name_;
  std::unordered_map<std::string, detail::HistogramCell*> histograms_by_name_;
};

}  // namespace sp::obs
