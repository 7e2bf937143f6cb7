// sp::net load generator — the measurement half of the TCP front-end
// (the ROADMAP's "millions of users becomes a measured number").
//
// Closed-loop and seeded-deterministic: every connection keeps exactly
// `pipeline` QUERY frames in flight and sends the next one only when a
// response arrives, so the offered load self-regulates to what the
// server sustains. Every key is a pure function of
// (seed, connection, frame, slot) via sp::synth::mix — with a fixed
// `requests` count the byte stream each connection writes is identical
// across runs (the per-connection FNV-1a64 hashes in the report and the
// net_loadgen determinism test pin this). In duration mode the stream
// prefix is still deterministic; only its length varies with timing.
//
// Client-side latency is recorded per QUERY frame round trip into an
// obs histogram owned by the run (a private MetricsRegistry, so
// back-to-back runs in one process start from zero), and the report's
// p50/p90/p99 come from that histogram's log₂ quantile estimate.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "netbase/prefix.h"

namespace sp::net {

struct LoadGenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  unsigned connections = 4;
  unsigned pipeline = 8;  // QUERY frames in flight per connection
  unsigned batch = 256;   // keys per QUERY frame (<= kMaxBatch)
  std::uint64_t seed = 1;
  /// Key mix: fraction of keys drawn from the v6 space (by seeded hash,
  /// so the mix is exact in expectation and deterministic in sequence).
  double v6_share = 0.25;
  /// Keys are uniform addresses inside these spaces (host bits seeded).
  Prefix v4_space = Prefix();  // 0.0.0.0/0
  Prefix v6_space = Prefix::of(IPAddress(IPv6Address()), 0);  // ::/0
  /// Frames per connection; 0 = run for `duration` instead (the byte
  /// stream is then a timing-dependent prefix of the seeded stream).
  std::uint64_t requests = 0;
  std::chrono::milliseconds duration{5000};
};

struct LoadGenReport {
  bool ok = false;
  std::string error;  // first connection failure, when !ok

  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t keys_sent = 0;
  std::uint64_t keys_answered = 0;
  std::uint64_t hits = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  double elapsed_s = 0.0;
  double qps = 0.0;  // keys_answered / elapsed_s — the headline number

  // Client-side per-frame round-trip latency (µs), from the run's
  // private obs histogram.
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t max_us = 0;

  /// FNV-1a64 over each connection's full request byte stream, index =
  /// connection id. Equal across runs for equal (seed, config) with a
  /// fixed `requests` count.
  std::vector<std::uint64_t> request_stream_hash;

  /// The report as a JSON object (`sp_loadgen --json`'s output).
  [[nodiscard]] std::string to_json(const LoadGenConfig& config) const;
};

/// Runs the closed loop against host:port. Blocks until done.
[[nodiscard]] LoadGenReport run_loadgen(const LoadGenConfig& config);

}  // namespace sp::net
