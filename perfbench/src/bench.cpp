#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(position));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double weight = position - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * weight;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d) {
  const auto splitmix = [](std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  };
  return splitmix(splitmix(splitmix(splitmix(a) ^ b) ^ c) ^ d);
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t hash) {
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::optional<std::uint64_t> digest_file(const std::string& path, std::uint64_t hash) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  const std::string name = std::filesystem::path(path).filename().string();
  hash = fnv1a({reinterpret_cast<const std::uint8_t*>(name.data()), name.size()}, hash);
  return fnv1a(bytes, hash);
}

std::optional<std::uint64_t> digest_files(const std::string& dir, const std::string& prefix,
                                          const std::vector<std::string>& suffixes) {
  std::vector<std::string> names;
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator(dir, error)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    for (const std::string& suffix : suffixes) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        names.push_back(name);
        break;
      }
    }
  }
  if (error || names.empty()) return std::nullopt;
  std::sort(names.begin(), names.end());
  std::uint64_t hash = kFnvBasis;
  for (const std::string& name : names) {
    const auto next = digest_file(dir + "/" + name, hash);
    if (!next) return std::nullopt;
    hash = *next;
  }
  return hash;
}

std::string hex16(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(value));
  return text;
}

namespace {

std::string proc_path(pid_t pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

long status_kb(pid_t pid, const char* key) {
  std::ifstream status(proc_path(pid, "status"));
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) return std::strtol(line.c_str() + prefix.size(), nullptr, 10);
  }
  return 0;
}

}  // namespace

long peak_rss_kb(pid_t pid) { return status_kb(pid, "VmHWM"); }
long current_rss_kb(pid_t pid) { return status_kb(pid, "VmRSS"); }

void reset_peak_rss(pid_t pid) {
  std::ofstream clear(proc_path(pid, "clear_refs"));
  clear << "5";
}

void remove_tree(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
}

bool make_dirs(const std::string& path) {
  std::error_code error;
  std::filesystem::create_directories(path, error);
  return std::filesystem::is_directory(path, error);
}

int Spans::open(std::string name) {
  const int id = static_cast<int>(records_.size());
  records_.push_back({std::move(name), stack_.empty() ? -1 : stack_.back(), Clock::now(), {}});
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  records_[static_cast<std::size_t>(id)].end = Clock::now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double Spans::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const Record& record : records_) {
    if (record.name == name) total += ms_between(record.start, record.end);
  }
  return total;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char line[160];
    std::snprintf(line, sizeof line, "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                  std::chrono::duration<double, std::micro>(r.start - epoch_).count(),
                  std::chrono::duration<double, std::micro>(r.end - r.start).count());
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << r.name << "\",\"cat\":\"perfbench\","
        << line << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

bool Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
  return ok;
}

void check_digest(Result& result, const Options& options, std::uint64_t digest) {
  std::printf("digest %s seed=%llu %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), hex16(digest).c_str());
  if (!result.check(!options.expect_digest.empty(), "no recorded artifact digest")) return;
  result.check(hex16(digest) == options.expect_digest,
               "artifact digest " + hex16(digest) + " != recorded " + options.expect_digest);
}

}  // namespace perfbench
