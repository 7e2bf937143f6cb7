// sp_loadgen — closed-loop load generator for the sp_serve TCP front-end.
//
//   sp_loadgen --host 127.0.0.1 --port 9000 [options]
//
// Options (defaults in brackets):
//   --connections N   concurrent connections [4]
//   --pipeline N      QUERY frames in flight per connection [8]
//   --batch N         keys per QUERY frame [256]
//   --seed N          key-stream seed [1]
//   --v6-share F      fraction of v6 keys [0.25]
//   --v4-space P      v4 key space, e.g. 20.0.0.0/8 [0.0.0.0/0]
//   --v6-space P      v6 key space, e.g. 2600::/12 [::/0]
//   --requests N      frames per connection (deterministic byte streams;
//                     0 = run for --duration instead) [0]
//   --duration MS     wall-clock run length in duration mode [5000]
//   --json            emit the full report as one JSON object instead of
//                     the text summary
//
// The key stream is a pure function of (seed, connection, frame, slot),
// so two runs with the same seed and --requests send byte-identical
// request streams — the per-connection FNV-1a64 hashes in the report
// (and the net_loadgen determinism test) pin this.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/loadgen.h"

using namespace sp;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: sp_loadgen --host H --port P [--connections N] [--pipeline N]\n"
               "                  [--batch N] [--seed N] [--v6-share F] [--v4-space P]\n"
               "                  [--v6-space P] [--requests N] [--duration MS] [--json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  net::LoadGenConfig config;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--host") {
      const char* value = next();
      if (value == nullptr) return usage();
      config.host = value;
    } else if (arg == "--port") {
      const char* value = next();
      if (value == nullptr) return usage();
      config.port = static_cast<std::uint16_t>(std::strtoul(value, nullptr, 10));
    } else if (arg == "--connections") {
      const char* value = next();
      if (value == nullptr) return usage();
      config.connections = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else if (arg == "--pipeline") {
      const char* value = next();
      if (value == nullptr) return usage();
      config.pipeline = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else if (arg == "--batch") {
      const char* value = next();
      if (value == nullptr) return usage();
      config.batch = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else if (arg == "--seed") {
      const char* value = next();
      if (value == nullptr) return usage();
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--v6-share") {
      const char* value = next();
      if (value == nullptr) return usage();
      config.v6_share = std::strtod(value, nullptr);
    } else if (arg == "--v4-space" || arg == "--v6-space") {
      const char* value = next();
      if (value == nullptr) return usage();
      const auto prefix = Prefix::from_string(value);
      if (!prefix) {
        std::fprintf(stderr, "cannot parse %s '%s'\n", arg.c_str(), value);
        return 2;
      }
      (arg == "--v4-space" ? config.v4_space : config.v6_space) = *prefix;
    } else if (arg == "--requests") {
      const char* value = next();
      if (value == nullptr) return usage();
      config.requests = std::strtoull(value, nullptr, 10);
    } else if (arg == "--duration") {
      const char* value = next();
      if (value == nullptr) return usage();
      config.duration = std::chrono::milliseconds(std::strtoll(value, nullptr, 10));
    } else {
      return usage();
    }
  }
  if (config.port == 0) {
    std::fprintf(stderr, "--port is required\n");
    return usage();
  }
  if ((config.v4_space.family() != Family::v4) || (config.v6_space.family() != Family::v6)) {
    std::fprintf(stderr, "--v4-space must be IPv4 and --v6-space IPv6\n");
    return 2;
  }

  const net::LoadGenReport report = net::run_loadgen(config);
  if (json) {
    std::printf("%s\n", report.to_json(config).c_str());
  } else {
    std::printf("qps=%.0f keys=%llu hits=%llu frames=%llu elapsed_s=%.3f "
                "p50_us=%.1f p90_us=%.1f p99_us=%.1f max_us=%llu\n",
                report.qps, static_cast<unsigned long long>(report.keys_answered),
                static_cast<unsigned long long>(report.hits),
                static_cast<unsigned long long>(report.frames_received), report.elapsed_s,
                report.p50_us, report.p90_us, report.p99_us,
                static_cast<unsigned long long>(report.max_us));
  }
  if (!report.ok) {
    std::fprintf(stderr, "loadgen failed: %s\n", report.error.c_str());
    return 1;
  }
  return 0;
}
