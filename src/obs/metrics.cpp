#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace sp::obs {

namespace detail {

std::size_t shard_index() noexcept {
  // Round-robin assignment at first use per thread: consecutive worker
  // threads land on distinct shards, unlike hashing std::thread::id,
  // which clusters for stack-allocated thread objects.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

}  // namespace detail

double HistogramSnapshot::quantile(double p) const noexcept {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // The p-quantile sits at rank ceil(p * count), at least 1.
  const double target_rank = std::max(1.0, p * static_cast<double>(count));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) < target_rank) continue;
    // Interpolate inside bucket b: [2^(b-1), 2^b) for b >= 1, {0} for 0.
    if (b == 0) return 0.0;
    const double lower = static_cast<double>(std::uint64_t{1} << (b - 1));
    const double width = lower;  // 2^b - 2^(b-1)
    const double fraction =
        (target_rank - before) / static_cast<double>(buckets[b]);
    return std::min(lower + width * fraction, static_cast<double>(max));
  }
  return static_cast<double>(max);
}

HistogramSnapshot HistogramSnapshot::of(const Histogram& histogram) {
  HistogramSnapshot out;
  const detail::HistogramCell* cell = histogram.cell_;
  if (cell == nullptr) return out;
  out.name = cell->name;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    out.buckets[b] = cell->buckets[b].load(std::memory_order_relaxed);
    out.count += out.buckets[b];
  }
  out.sum = cell->sum.load(std::memory_order_relaxed);
  out.max = cell->max.load(std::memory_order_relaxed);
  return out;
}

namespace {

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.3f", value);
  out += buffer;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ',';
    append_json_string(out, counters[i].first);
    out += ':' + std::to_string(counters[i].second);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out += ',';
    append_json_string(out, gauges[i].first);
    out += ':' + std::to_string(gauges[i].second);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    if (i > 0) out += ',';
    append_json_string(out, h.name);
    out += ":{\"count\":" + std::to_string(h.count) + ",\"sum\":" + std::to_string(h.sum) +
           ",\"max\":" + std::to_string(h.max) + ",\"p50\":";
    append_number(out, h.quantile(0.50));
    out += ",\"p90\":";
    append_number(out, h.quantile(0.90));
    out += ",\"p99\":";
    append_number(out, h.quantile(0.99));
    out += ",\"buckets\":{";
    bool first = true;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) out += ',';
      first = false;
      // Key: exclusive upper bound of the bucket (0 bucket keyed "0").
      const std::uint64_t upper = b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
      out += '"' + std::to_string(upper) + "\":" + std::to_string(h.buckets[b]);
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

detail::CounterCell* MetricsRegistry::cell(std::string_view name, bool is_gauge) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_by_name_.find(std::string(name));
  if (it != counters_by_name_.end()) return it->second;
  detail::CounterCell& made = counter_cells_.emplace_back();
  made.name = name;
  made.is_gauge = is_gauge;
  counters_by_name_.emplace(made.name, &made);
  return &made;
}

Counter MetricsRegistry::counter(std::string_view name) {
  return Counter(cell(name, /*is_gauge=*/false));
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  return Gauge(cell(name, /*is_gauge=*/true));
}

Histogram MetricsRegistry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_by_name_.find(std::string(name));
  if (it != histograms_by_name_.end()) return Histogram(it->second);
  detail::HistogramCell& made = histogram_cells_.emplace_back();
  made.name = name;
  histograms_by_name_.emplace(made.name, &made);
  return Histogram(&made);
}

MetricsSnapshot MetricsRegistry::scrape() const {
  MetricsSnapshot out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const detail::CounterCell& cell : counter_cells_) {
    (cell.is_gauge ? out.gauges : out.counters).emplace_back(cell.name, cell.sum());
  }
  for (const detail::HistogramCell& cell : histogram_cells_) {
    HistogramSnapshot snapshot;
    snapshot.name = cell.name;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      snapshot.buckets[b] = cell.buckets[b].load(std::memory_order_relaxed);
      snapshot.count += snapshot.buckets[b];
    }
    snapshot.sum = cell.sum.load(std::memory_order_relaxed);
    snapshot.max = cell.max.load(std::memory_order_relaxed);
    out.histograms.push_back(std::move(snapshot));
  }
  const auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: handles stay valid through static destruction.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

}  // namespace sp::obs
