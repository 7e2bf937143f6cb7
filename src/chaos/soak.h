// Soak driver — a seeded, invariant-checked endurance run of the serve
// path under chaos (scenario.h events played by faults.h actors).
//
// In-process mode (the default) the driver owns everything: it builds a
// fixture universe in `workdir` (two valid .sibdb snapshots A and B, the
// .spdl delta A→B, and one corrupt variant per CorruptKind × format,
// each verified rejected at build time), starts a real sp::net::Server
// over TCP, runs closed-loop query threads plus one fault thread walking
// the seeded schedule, and at the deadline quiesces and audits:
//
//   * the server stayed reachable the whole run (a reconnect failing
//     continuously for >5s is a violation);
//   * every corrupt RELOAD was rejected AND the previous snapshot kept
//     answering (probed on the same pipelined control connection);
//   * every probe answer from a generation the soak installed equals the
//     answer of that generation's fixture (A or B): the fault thread
//     records the generation each RELOAD will publish before sending it,
//     and answers from any other generation (an external server's
//     start-up snapshot) go unchecked;
//   * per-generation query tallies are conserved exactly:
//     Σ generations.queries + compacted.queries == ServerStats.queries;
//   * a final full-drain sweep over every fixture key is byte-equal to a
//     fresh LookupEngine oracle over the same snapshot;
//   * peak RSS (obs::peak_rss_kb) and the server's frame p99 stay within
//     the configured bounds.
//
// External mode (`connect_host` set) points the same schedule at an
// already-listening sp_serve; the process-local checks (conservation,
// RSS, fd limits) are skipped and liveness/corrupt-rejection/probe
// answers/sweep/p99 remain. The workdir must be readable by the target
// server.
//
// Determinism: the event sequence is a pure function of `seed`
// (scenario.h); timing-dependent interleaving varies between runs, the
// traffic does not.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace sp::chaos {

struct SoakConfig {
  std::uint64_t seed = 1;
  std::chrono::seconds duration{20};
  /// Fixture + reload-artifact directory; created if missing.
  std::string workdir;
  unsigned server_workers = 2;  // in-process server event loops
  unsigned query_threads = 2;   // closed-loop query load threads
  std::size_t pair_count = 512; // fixture snapshot size
  /// Small on purpose so slow_reader actually crosses it and exercises
  /// the backpressure pause/resume path.
  std::size_t high_water = 1u << 14;
  std::chrono::milliseconds accept_backoff{100};
  /// Lower RLIMIT_NOFILE (soft) for the run so connection floods reach
  /// real EMFILE; restored on exit. 0 = leave the limit alone.
  /// In-process mode only.
  std::uint64_t fd_soft_limit = 0;
  long max_rss_kb = 0;    // 0 = unbounded
  double max_p99_us = 0;  // 0 = unbounded; server frame p99 via STATS
  /// External mode: host of a live sp_serve --listen (empty = in-process).
  std::string connect_host;
  std::uint16_t connect_port = 0;
};

struct SoakReport {
  bool ok = false;
  std::vector<std::string> violations;

  std::uint64_t events = 0;  // schedule positions played
  std::uint64_t query_events = 0;
  std::uint64_t valid_reloads = 0;
  std::uint64_t delta_reloads = 0;
  std::uint64_t corrupt_reloads = 0;  // all must have been rejected
  std::uint64_t mismatched_delta_reloads = 0;  // base-hash mismatch, rejected
  std::uint64_t fault_events = 0;  // slow readers, mid-frame cuts, floods
  std::uint64_t connect_failures = 0;

  std::uint64_t client_queries = 0;  // keys sent by probes + actors
  /// Probe answers compared with the oracle of the generation that gave
  /// them, and how many differed (each a violation's worth; one is listed).
  std::uint64_t probe_keys_checked = 0;
  std::uint64_t probe_mismatches = 0;
  std::uint64_t server_queries = 0;  // ServerStats.queries at the end (in-process)
  std::uint64_t generation_query_sum = 0;  // Σ generations + compacted (in-process)
  std::uint64_t accept_errors = 0;         // in-process
  std::uint64_t final_generation = 0;

  std::uint64_t sweep_keys = 0;
  std::uint64_t sweep_mismatches = 0;

  double p99_us = 0.0;
  long peak_rss_kb = 0;

  [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] SoakReport run_soak(const SoakConfig& config);

}  // namespace sp::chaos
