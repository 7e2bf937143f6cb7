// sp_soak — seeded soak & chaos driver for the serve path (src/chaos).
//
//   sp_soak --dir /tmp/soak --seconds 30 --seed 7
//   sp_soak --dir /tmp/soak --minutes 30 --fd-limit 512 --max-rss-kb 524288
//   sp_soak --dir /tmp/soak --seconds 60 --connect 127.0.0.1:4647
//
// Default mode owns an in-process sp::net::Server and checks the full
// invariant set (liveness, corrupt-swap rejection, probe answers against
// the oracle of their generation, per-generation query conservation,
// byte-correct final sweep, RSS/p99 bounds). --connect
// points the same seeded schedule at an already-listening sp_serve
// (started with --listen); process-local checks are skipped, and the
// target must be able to read --dir (the reload fixtures live there).
//
// Exit status: 0 when every invariant held, 1 otherwise. The event
// schedule is a pure function of --seed, so a failing run replays.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "chaos/soak.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --dir DIR [--seconds N | --minutes N] [--seed S]\n"
               "          [--workers N] [--threads N] [--pairs N] [--fd-limit N]\n"
               "          [--max-rss-kb N] [--max-p99-us X] [--connect HOST:PORT] [--json]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sp::chaos::SoakConfig config;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--dir") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      config.workdir = v;
    } else if (arg == "--seconds") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      config.duration = std::chrono::seconds(std::strtoll(v, nullptr, 10));
    } else if (arg == "--minutes") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      config.duration = std::chrono::minutes(std::strtoll(v, nullptr, 10));
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--workers") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      config.server_workers = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--threads") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      config.query_threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--pairs") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      config.pair_count = std::strtoull(v, nullptr, 10);
    } else if (arg == "--fd-limit") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      config.fd_soft_limit = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-rss-kb") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      config.max_rss_kb = std::strtol(v, nullptr, 10);
    } else if (arg == "--max-p99-us") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      config.max_p99_us = std::strtod(v, nullptr);
    } else if (arg == "--connect") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      const std::string target = v;
      const auto colon = target.rfind(':');
      if (colon == std::string::npos) return usage(argv[0]);
      config.connect_host = target.substr(0, colon);
      config.connect_port =
          static_cast<std::uint16_t>(std::strtoul(target.c_str() + colon + 1, nullptr, 10));
    } else if (arg == "--json") {
      json = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (config.workdir.empty()) return usage(argv[0]);

  const sp::chaos::SoakReport report = sp::chaos::run_soak(config);
  if (json) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("soak %s: %llu events (%llu bursts, %llu reloads, %llu delta, "
                "%llu corrupt rejected, %llu faults), %llu client queries, "
                "probes %llu keys / %llu mismatches, sweep %llu keys / %llu mismatches, "
                "p99 %.1fus, peak RSS %ld kB\n",
                report.ok ? "OK" : "FAILED",
                static_cast<unsigned long long>(report.events),
                static_cast<unsigned long long>(report.query_events),
                static_cast<unsigned long long>(report.valid_reloads),
                static_cast<unsigned long long>(report.delta_reloads),
                static_cast<unsigned long long>(report.corrupt_reloads),
                static_cast<unsigned long long>(report.fault_events),
                static_cast<unsigned long long>(report.client_queries),
                static_cast<unsigned long long>(report.probe_keys_checked),
                static_cast<unsigned long long>(report.probe_mismatches),
                static_cast<unsigned long long>(report.sweep_keys),
                static_cast<unsigned long long>(report.sweep_mismatches),
                report.p99_us, report.peak_rss_kb);
    for (const auto& violation : report.violations)
      std::printf("  violation: %s\n", violation.c_str());
  }
  return report.ok ? 0 : 1;
}
