// Shared plumbing of the benchmark runner: clocks and order statistics,
// the seeded generator every workload derives its inputs from, output
// digests, per-process peak-RSS accounting, the benchmark's own span
// recorder, and the Result every workload fills in.
//
// Layers are measured from outside: workloads wrap their calls into the
// project's public functions in Span scopes here; nothing in ../src is
// instrumented for the benchmark.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return ms_between(start, Clock::now());
}

/// Linear-interpolated quantile of `values` (q in [0,1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// SplitMix64: the benchmark's seeded input generator.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0,
                                std::uint64_t d = 0);
[[nodiscard]] inline double unit(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0,
                                 std::uint64_t d = 0) {
  return static_cast<double>(mix(a, b, c, d) >> 11) * 0x1.0p-53;
}

/// FNV-1a64, the digest of published artifacts.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                  std::uint64_t hash = kFnvBasis);
/// Folds the file's name (not its directory) and bytes into `hash`;
/// nullopt when the file cannot be read.
[[nodiscard]] std::optional<std::uint64_t> digest_file(const std::string& path,
                                                       std::uint64_t hash);
/// Digest of every regular file in `dir` whose name starts with `prefix`
/// and ends with one of `suffixes`, in name order.
[[nodiscard]] std::optional<std::uint64_t> digest_files(const std::string& dir,
                                                        const std::string& prefix,
                                                        const std::vector<std::string>& suffixes);
[[nodiscard]] std::string hex16(std::uint64_t value);

/// VmHWM / VmRSS of process `pid` (0 = this process), in KB; 0 if unknown.
[[nodiscard]] long peak_rss_kb(pid_t pid = 0);
[[nodiscard]] long current_rss_kb(pid_t pid = 0);
/// Resets the VmHWM of `pid` (0 = this process) to its current RSS, so the
/// next peak_rss_kb() covers only what follows.
void reset_peak_rss(pid_t pid = 0);

void remove_tree(const std::string& path);
[[nodiscard]] bool make_dirs(const std::string& path);

/// The benchmark's in-memory span recorder. Spans nest by scope on the
/// recording thread; the whole set is written as a Chrome trace when the
/// run ends. A disabled recorder keeps nothing and costs one branch.
class Spans {
 public:
  struct Record {
    std::string name;
    int parent = -1;
    Clock::time_point start, end;
  };

  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  int open(std::string name);
  void close(int id);

  /// Summed duration of every span with this name, in ms.
  [[nodiscard]] double total_ms(const std::string& name) const;
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(Spans& spans, std::string name)
      : spans_(spans), id_(spans.enabled() ? spans.open(std::move(name)) : -1) {}
  ~Span() {
    if (id_ >= 0) spans_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
  int id_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. `end_to_end` and `layers` feed the final JSON
/// line (untraced and traced runs respectively); `report` holds the
/// workload's own named figures for the human-readable lines above it.
struct Result {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layers;
  std::vector<std::pair<std::string, Metric>> report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Counts one checked operation; a false `ok` is a failure with `what`.
  bool check(bool ok, const std::string& what);
  void layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
  void note(const std::string& name, double value, const std::string& unit) {
    report.emplace_back(name, Metric{value, unit});
  }
};

/// Worker threads of every multi-threaded call the workloads make (DAG
/// workers, detection, the data campaign of the serve workloads).
inline constexpr unsigned kThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;       // scratch directory of this run, under the checkout
  std::string trace_dir;      // where the traced run's span file goes
  std::string serve_bin;      // the sp_serve executable under test
  std::string expect_digest;  // the workload's recorded artifact digest
};

Result run_campaign(const Options& options);
Result run_publish(const Options& options);
Result run_serve_reload(const Options& options);

/// Compares `digest` against the recorded one and prints it for
/// recording; counts as one output check, failed when nothing is recorded.
void check_digest(Result& result, const Options& options, std::uint64_t digest);

}  // namespace perfbench
