#include "chaos/soak.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <span>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "chaos/corrupt.h"
#include "chaos/faults.h"
#include "chaos/scenario.h"
#include "core/detect.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "netbase/ip.h"
#include "obs/metrics.h"
#include "obs/rss.h"
#include "serve/lookup.h"
#include "serve/service.h"
#include "serve/sibdb.h"
#include "stream/reload.h"
#include "stream/spdl.h"
#include "synth/determinism.h"

namespace sp::chaos {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixture universe: two valid snapshots sharing one ascending key set, the
// delta between them, and the corrupt variants every loader must reject.

struct Fixtures {
  std::string a_path;      // base snapshot
  std::string b_path;      // target snapshot (~25% of similarities changed)
  std::string delta_path;  // .spdl patching A into B's bytes
  std::vector<std::string> corrupt_sibdb;  // one per CorruptKind
  std::vector<std::string> corrupt_spdl;
  std::vector<Prefix> keys;  // query universe: exact keys, hosts, misses
};

std::vector<core::SiblingPair> make_pairs(std::uint64_t seed, std::size_t count,
                                          bool variant_b) {
  std::vector<core::SiblingPair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::SiblingPair pair;
    pair.v4 = Prefix::of(IPAddress(IPv4Address::from_octets(
                             10, static_cast<std::uint8_t>(i >> 8),
                             static_cast<std::uint8_t>(i & 0xff), 0)),
                         24);
    pair.v6 = Prefix::of(
        IPAddress(IPv6Address::from_groups(
            {0x2001, 0xdb8, static_cast<std::uint16_t>(i), 0, 0, 0, 0, 0})),
        48);
    pair.similarity = 0.25 + 0.75 * synth::unit(seed, 0xF0, i);
    pair.shared_domains = static_cast<std::uint32_t>(1 + synth::pick(40, seed, 0xF1, i));
    pair.v4_domain_count = pair.shared_domains +
                           static_cast<std::uint32_t>(synth::pick(10, seed, 0xF2, i));
    pair.v6_domain_count = pair.shared_domains +
                           static_cast<std::uint32_t>(synth::pick(10, seed, 0xF3, i));
    // Variant B: same key set, ~25% of the records re-scored — an
    // upsert-only delta, so the .spdl applies whenever A is being served.
    if (variant_b && synth::pick(4, seed, 0xF4, i) == 0) {
      pair.similarity = 0.25 + 0.75 * synth::unit(seed, 0xF5, i);
      pair.shared_domains = static_cast<std::uint32_t>(1 + synth::pick(40, seed, 0xF6, i));
    }
    pairs.push_back(pair);
  }
  std::sort(pairs.begin(), pairs.end());  // .sibdb and diff_sibdb expect ascending keys
  return pairs;
}

bool write_bytes(const std::string& path, std::span<const std::uint8_t> bytes,
                 std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    *error = "writing " + path + " failed";
    return false;
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> read_bytes(const std::string& path,
                                                    std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "reading " + path + " failed";
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return bytes;
}

/// Builds every fixture file and proves each corrupt variant is rejected
/// by its loader — the soak's corrupt-swap invariant is only meaningful
/// if these inputs are genuinely invalid.
std::optional<Fixtures> build_fixtures(const SoakConfig& config, std::string* error) {
  Fixtures fix;
  std::error_code ec;
  std::filesystem::create_directories(config.workdir, ec);
  if (ec) {
    *error = "creating workdir " + config.workdir + ": " + ec.message();
    return std::nullopt;
  }
  fix.a_path = config.workdir + "/a.sibdb";
  fix.b_path = config.workdir + "/b.sibdb";
  fix.delta_path = config.workdir + "/delta_ab.spdl";

  const auto pairs_a = make_pairs(config.seed, config.pair_count, false);
  const auto pairs_b = make_pairs(config.seed, config.pair_count, true);
  if (!serve::write_sibdb(fix.a_path, pairs_a, "soak fixture A") ||
      !serve::write_sibdb(fix.b_path, pairs_b, "soak fixture B")) {
    *error = "writing fixture snapshots failed";
    return std::nullopt;
  }
  auto db_a = serve::SiblingDB::load(fix.a_path, error);
  auto db_b = serve::SiblingDB::load(fix.b_path, error);
  if (!db_a || !db_b) return std::nullopt;
  auto delta = stream::diff_sibdb(*db_a, *db_b, error);
  if (!delta) return std::nullopt;
  if (!stream::write_spdl(fix.delta_path, *delta)) {
    *error = "writing " + fix.delta_path + " failed";
    return std::nullopt;
  }

  auto spdl_bytes = read_bytes(fix.delta_path, error);
  if (!spdl_bytes) return std::nullopt;
  const auto sibdb_bytes = db_a->raw_bytes();
  for (const CorruptKind kind : kAllCorruptKinds) {
    const std::string tag(to_string(kind));
    const std::string sibdb_path = config.workdir + "/corrupt_" + tag + ".sibdb";
    const std::string spdl_path = config.workdir + "/corrupt_" + tag + ".spdl";
    const auto bad_sibdb = corrupt_image(sibdb_bytes, kind, config.seed);
    const auto bad_spdl = corrupt_image(*spdl_bytes, kind, config.seed);
    if (!write_bytes(sibdb_path, bad_sibdb, error)) return std::nullopt;
    if (!write_bytes(spdl_path, bad_spdl, error)) return std::nullopt;
    std::string reject;
    if (serve::SiblingDB::load(sibdb_path, &reject)) {
      *error = "corrupt variant " + tag + " was ACCEPTED by SiblingDB::load";
      return std::nullopt;
    }
    if (stream::decode_spdl(bad_spdl, &reject)) {
      *error = "corrupt variant " + tag + " was ACCEPTED by decode_spdl";
      return std::nullopt;
    }
    fix.corrupt_sibdb.push_back(sibdb_path);
    fix.corrupt_spdl.push_back(spdl_path);
  }

  // Query universe: every stored prefix (exact LPM hits), host addresses
  // inside a sample of them, and keys no fixture covers (misses).
  for (std::size_t i = 0; i < db_a->size(); ++i) {
    fix.keys.push_back(db_a->v4_prefix(i));
    fix.keys.push_back(db_a->v6_prefix(i));
    if (i % 7 == 0) {
      fix.keys.push_back(Prefix::host(IPAddress(IPv4Address::from_octets(
          10, static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i & 0xff), 1))));
    }
  }
  fix.keys.push_back(Prefix::must_parse("192.0.2.0/24"));
  fix.keys.push_back(Prefix::must_parse("203.0.113.7/32"));
  fix.keys.push_back(Prefix::must_parse("2001:db9::/32"));
  fix.keys.push_back(Prefix::must_parse("2620:fe::9/128"));
  return fix;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// The answers one fixture snapshot must give: its loaded file and a
/// lookup engine over it. Built in place and never moved, since the
/// engine points into the loaded file.
struct Oracle {
  Oracle(std::string fixture, serve::SiblingDB loaded)
      : name(std::move(fixture)), db(std::move(loaded)), engine(db) {}

  /// The answer to `key` as a QUERY frame carries it: a full-length key
  /// is an address query, any other a prefix query.
  [[nodiscard]] std::optional<serve::SiblingAnswer> answer(const Prefix& key) const {
    return key.length() == key.max_length() ? engine.query(key.address()) : engine.query(key);
  }

  std::string name;
  serve::SiblingDB db;
  serve::LookupEngine engine;
};

// ---------------------------------------------------------------------------

class Soak {
 public:
  explicit Soak(const SoakConfig& config) : config_(config) {}

  SoakReport run();

 private:
  [[nodiscard]] bool in_process() const noexcept { return config_.connect_host.empty(); }

  void violation(std::string what) {
    std::lock_guard<std::mutex> lock(report_mutex_);
    if (violations_.size() < 64) violations_.push_back(std::move(what));
  }

  void merge(const FaultOutcome& outcome) {
    client_queries_.fetch_add(outcome.queries_sent);
    connect_failures_.fetch_add(outcome.connect_failures);
    if (!outcome.ok) violation(outcome.error);
  }

  /// Before a RELOAD that, if accepted, publishes `oracle`'s snapshot as
  /// the next generation (fault thread only). The soak is the target's only
  /// reloader, so generations count its accepted RELOADs; while the live
  /// generation is unknown nothing is recorded.
  void expect_next_generation(const Oracle& oracle) {
    if (last_generation_ == 0) return;
    const std::lock_guard<std::mutex> lock(served_mutex_);
    served_[last_generation_ + 1] = &oracle;
  }
  /// The oracle of the snapshot that `generation` serves; null for a
  /// generation the soak did not install (an external server's start-up
  /// snapshot).
  [[nodiscard]] const Oracle* oracle_of(std::uint64_t generation) {
    const std::lock_guard<std::mutex> lock(served_mutex_);
    const auto after = served_.upper_bound(generation);
    return after == served_.begin() ? nullptr : std::prev(after)->second;
  }

  void probe_loop(unsigned id);
  void fault_loop();

  // Control-connection helpers (fault thread only). The control client
  // is pipelined in-order like any connection, so a probe issued right
  // after a reload response observes the post-reload snapshot.
  [[nodiscard]] bool ensure_control();
  [[nodiscard]] std::optional<net::ReloadResponse> control_reload(const std::string& path);
  [[nodiscard]] std::optional<net::QueryResponse> control_probe(std::uint64_t salt);
  void do_valid_reload(const std::string& path, bool to_b);
  void do_delta_reload(std::uint64_t index);
  void do_corrupt_reload(const ChaosEvent& event, std::uint64_t index);

  void final_sweep(SoakReport& report);
  [[nodiscard]] std::optional<net::StatsPayload> fetch_stats();

  SoakConfig config_;
  FaultTarget target_;
  Fixtures fix_;
  std::optional<Oracle> oracle_a_;
  std::optional<Oracle> oracle_b_;
  std::atomic<bool> stop_{false};
  // lock-order: 70 chaos.soak.report_mutex (guards the violation list
  // only; leaf — nothing is acquired under it)
  std::mutex report_mutex_;
  std::vector<std::string> violations_;
  // lock-order: 71 chaos.soak.served_mutex (guards served_ only; leaf —
  // nothing is acquired under it)
  std::mutex served_mutex_;
  /// First generation of each snapshot the soak installed → its oracle; a
  /// generation is served by the entry at or below it.
  std::map<std::uint64_t, const Oracle*> served_;

  std::atomic<std::uint64_t> client_queries_{0};
  std::atomic<std::uint64_t> connect_failures_{0};
  std::atomic<std::uint64_t> probe_keys_checked_{0};
  std::atomic<std::uint64_t> probe_mismatches_{0};

  // Fault-thread-only state (single walker; read by run() after join).
  std::optional<net::Client> control_;
  std::uint64_t last_generation_ = 0;
  bool serving_b_ = false;
  std::uint64_t events_ = 0;
  std::uint64_t query_events_ = 0;
  std::uint64_t valid_reloads_ = 0;
  std::uint64_t delta_reloads_ = 0;
  std::uint64_t mismatched_delta_reloads_ = 0;
  std::uint64_t corrupt_reloads_ = 0;
  std::uint64_t fault_events_ = 0;
};

bool Soak::ensure_control() {
  if (control_ && control_->connected()) return true;
  const auto deadline = steady_clock::now() + std::chrono::seconds(5);
  while (steady_clock::now() < deadline && !stop_.load()) {
    std::string error;
    control_ = net::Client::connect(target_.host, target_.port, &error, milliseconds(1000));
    if (control_) return true;
    connect_failures_.fetch_add(1);
    std::this_thread::sleep_for(milliseconds(20));
  }
  if (!stop_.load()) violation("control connection: server unreachable for 5s");
  return false;
}

std::optional<net::ReloadResponse> Soak::control_reload(const std::string& path) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!ensure_control()) return std::nullopt;
    std::vector<std::uint8_t> wire;
    net::encode_reload_request(wire, net::ReloadRequest{path});
    std::string error;
    if (!control_->send_bytes(wire, &error)) {
      control_.reset();
      continue;
    }
    auto frame = control_->read_frame(&error, milliseconds(5000));
    if (!frame) {
      control_.reset();
      continue;
    }
    if (frame->type != static_cast<std::uint8_t>(net::FrameType::kReloadResponse)) {
      violation("RELOAD answered with frame type " + std::to_string(frame->type));
      return std::nullopt;
    }
    auto response = net::parse_reload_response(frame->body, &error);
    if (!response) {
      violation("unparseable RELOAD response: " + error);
      return std::nullopt;
    }
    return response;
  }
  if (!stop_.load()) violation("RELOAD of " + path + ": control connection kept dying");
  return std::nullopt;
}

std::optional<net::QueryResponse> Soak::control_probe(std::uint64_t salt) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!ensure_control()) return std::nullopt;
    net::QueryRequest request;
    request.request_id = static_cast<std::uint32_t>(synth::mix(config_.seed, 0xA0, salt));
    request.keys.push_back(fix_.keys[synth::pick(fix_.keys.size(), config_.seed, 0xA1, salt)]);
    std::vector<std::uint8_t> wire;
    net::encode_query_request(wire, request);
    std::string error;
    if (!control_->send_bytes(wire, &error)) {
      control_.reset();
      continue;
    }
    client_queries_.fetch_add(1);
    auto frame = control_->read_frame(&error, milliseconds(5000));
    if (!frame) {
      control_.reset();
      continue;
    }
    if (frame->type != static_cast<std::uint8_t>(net::FrameType::kQueryResponse)) {
      violation("probe answered with frame type " + std::to_string(frame->type));
      return std::nullopt;
    }
    auto response = net::parse_query_response(frame->body, &error);
    if (!response) {
      violation("unparseable probe response: " + error);
      return std::nullopt;
    }
    if (response->request_id != request.request_id) {
      violation("probe response id mismatch on control connection");
      return std::nullopt;
    }
    return response;
  }
  return std::nullopt;
}

void Soak::do_valid_reload(const std::string& path, bool to_b) {
  expect_next_generation(to_b ? *oracle_b_ : *oracle_a_);
  auto response = control_reload(path);
  if (!response) return;
  if (!response->ok) {
    violation("valid RELOAD of " + path + " rejected: " + response->error);
    return;
  }
  if (response->generation <= last_generation_) {
    violation("RELOAD of " + path + " did not advance the generation");
    return;
  }
  last_generation_ = response->generation;
  serving_b_ = to_b;
  ++valid_reloads_;
}

void Soak::do_delta_reload(std::uint64_t index) {
  if (!serving_b_) expect_next_generation(*oracle_b_);
  auto response = control_reload(fix_.delta_path);
  if (!response) return;
  if (serving_b_) {
    // The delta's base hash binds to snapshot A; applying it onto B must
    // be rejected and the serving snapshot must survive untouched.
    if (response->ok) {
      violation("delta RELOAD applied against the wrong base snapshot");
      return;
    }
    ++mismatched_delta_reloads_;
    auto probe = control_probe(index);
    if (probe && probe->generation != last_generation_)
      violation("generation changed after rejected delta RELOAD");
    return;
  }
  if (!response->ok) {
    violation("delta RELOAD against base A rejected: " + response->error);
    return;
  }
  if (response->generation <= last_generation_) {
    violation("delta RELOAD did not advance the generation");
    return;
  }
  last_generation_ = response->generation;
  serving_b_ = true;  // the applied delta reproduces B's bytes
  ++delta_reloads_;
}

void Soak::do_corrupt_reload(const ChaosEvent& event, std::uint64_t index) {
  const std::size_t which = static_cast<std::size_t>(event.corrupt);
  const std::string& path =
      event.corrupt_spdl ? fix_.corrupt_spdl[which] : fix_.corrupt_sibdb[which];
  auto response = control_reload(path);
  if (!response) return;
  if (response->ok) {
    violation("corrupt RELOAD (" + path + ") was ACCEPTED");
    return;
  }
  ++corrupt_reloads_;
  // The old snapshot must still answer, at the same generation, on the
  // very same pipelined connection that issued the rejected swap.
  auto probe = control_probe(index);
  if (!probe) return;
  if (probe->generation != last_generation_)
    violation("generation changed after rejected corrupt RELOAD of " + path);
}

void Soak::fault_loop() {
  // Learn the live generation, then pin a known snapshot so the
  // delta-reload base tracking starts from ground truth (external
  // servers arrive with arbitrary state).
  auto probe = control_probe(0);
  if (probe) last_generation_ = probe->generation;
  do_valid_reload(fix_.a_path, false);

  const std::size_t flood_cap =
      config_.fd_soft_limit != 0
          ? std::max<std::size_t>(8, static_cast<std::size_t>(config_.fd_soft_limit) / 4)
          : 64;
  std::uint64_t index = 0;
  while (!stop_.load()) {
    const ChaosEvent event = event_at(config_.seed, index);
    switch (event.kind) {
      case EventKind::QueryBurst:
        merge(query_burst(target_, event, fix_.keys));
        ++query_events_;
        break;
      case EventKind::ValidReload:
        do_valid_reload(serving_b_ ? fix_.a_path : fix_.b_path, !serving_b_);
        break;
      case EventKind::DeltaReload:
        do_delta_reload(index);
        break;
      case EventKind::CorruptReload:
        do_corrupt_reload(event, index);
        break;
      case EventKind::SlowReader:
        merge(slow_reader(target_, event, fix_.keys));
        ++fault_events_;
        break;
      case EventKind::MidFrameDisconnect:
        merge(mid_frame_disconnect(target_, event));
        ++fault_events_;
        break;
      case EventKind::ConnectionFlood:
        merge(connection_flood(target_, event, flood_cap));
        ++fault_events_;
        break;
    }
    ++index;
  }
  events_ = index;
  if (control_) control_->close();
}

void Soak::probe_loop(unsigned id) {
  std::optional<net::Client> client;
  auto last_ok = steady_clock::now();
  bool reported_unreachable = false;
  std::uint64_t iter = 0;
  while (!stop_.load()) {
    if (!client || !client->connected()) {
      std::string error;
      client = net::Client::connect(target_.host, target_.port, &error, milliseconds(1000));
      if (!client) {
        connect_failures_.fetch_add(1);
        if (!reported_unreachable &&
            steady_clock::now() - last_ok > std::chrono::seconds(5)) {
          violation("probe " + std::to_string(id) + ": server unreachable for >5s");
          reported_unreachable = true;  // once per outage, not per retry
        }
        std::this_thread::sleep_for(milliseconds(10));
        continue;
      }
    }
    net::QueryRequest request;
    request.request_id = static_cast<std::uint32_t>(synth::mix(config_.seed, id, iter));
    const std::size_t count = 4 + synth::pick(12, config_.seed, id, iter, 1);
    for (std::size_t k = 0; k < count; ++k) {
      request.keys.push_back(
          fix_.keys[synth::pick(fix_.keys.size(), config_.seed, id, iter, 2 + k)]);
    }
    std::vector<std::uint8_t> wire;
    net::encode_query_request(wire, request);
    std::string error;
    if (!client->send_bytes(wire, &error)) {
      client.reset();  // transient (eviction, shutdown race) — reconnect
      continue;
    }
    client_queries_.fetch_add(request.keys.size());
    auto frame = client->read_frame(&error, milliseconds(5000));
    if (!frame) {
      if (!stop_.load()) violation("probe " + std::to_string(id) + " query timed out/" + error);
      client.reset();
      continue;
    }
    auto response = net::parse_query_response(frame->body, &error);
    if (!response || response->request_id != request.request_id ||
        response->answers.size() != request.keys.size()) {
      violation("probe " + std::to_string(id) + ": malformed or mismatched response");
      client.reset();
      continue;
    }
    if (const Oracle* oracle = oracle_of(response->generation)) {
      for (std::size_t k = 0; k < request.keys.size(); ++k) {
        if (response->answers[k] == oracle->answer(request.keys[k])) continue;
        if (probe_mismatches_.fetch_add(1) == 0) {
          violation("probe " + std::to_string(id) + ": " + request.keys[k].to_string() +
                    " at generation " + std::to_string(response->generation) +
                    " answered unlike fixture " + oracle->name);
        }
      }
      probe_keys_checked_.fetch_add(request.keys.size());
    }
    last_ok = steady_clock::now();
    reported_unreachable = false;
    ++iter;
  }
  if (client) client->close();
}

std::optional<net::StatsPayload> Soak::fetch_stats() {
  std::string error;
  auto client = net::Client::connect(target_.host, target_.port, &error, milliseconds(2000));
  if (!client) return std::nullopt;
  std::vector<std::uint8_t> wire;
  net::encode_stats_request(wire);
  if (!client->send_bytes(wire, &error)) return std::nullopt;
  auto frame = client->read_frame(&error, milliseconds(5000));
  if (!frame || frame->type != static_cast<std::uint8_t>(net::FrameType::kStatsResponse))
    return std::nullopt;
  return net::parse_stats_response(frame->body, &error);
}

void Soak::final_sweep(SoakReport& report) {
  // Quiesced byte-correctness: every fixture key answered over TCP must
  // equal an independently loaded oracle's answer.
  std::string error;
  auto client = net::Client::connect(target_.host, target_.port, &error, milliseconds(2000));
  if (!client) {
    violation("sweep connect failed: " + error);
    return;
  }
  const std::size_t batch = 256;
  for (std::size_t start = 0; start < fix_.keys.size(); start += batch) {
    net::QueryRequest request;
    request.request_id = static_cast<std::uint32_t>(0x51EE9000 + start);
    const std::size_t end = std::min(fix_.keys.size(), start + batch);
    request.keys.assign(fix_.keys.begin() + static_cast<std::ptrdiff_t>(start),
                        fix_.keys.begin() + static_cast<std::ptrdiff_t>(end));
    std::vector<std::uint8_t> wire;
    net::encode_query_request(wire, request);
    if (!client->send_bytes(wire, &error)) {
      violation("sweep send failed: " + error);
      return;
    }
    auto frame = client->read_frame(&error, milliseconds(5000));
    if (!frame) {
      violation("sweep response missing: " + error);
      return;
    }
    auto response = net::parse_query_response(frame->body, &error);
    if (!response || response->answers.size() != request.keys.size()) {
      violation("sweep response malformed");
      return;
    }
    for (std::size_t i = 0; i < request.keys.size(); ++i) {
      const Prefix& key = request.keys[i];
      ++report.sweep_keys;
      if (response->answers[i] != oracle_a_->answer(key)) {
        if (report.sweep_mismatches == 0)
          violation("sweep mismatch at key " + key.to_string());
        ++report.sweep_mismatches;
      }
    }
  }
}

SoakReport Soak::run() {
  SoakReport report;
  std::string error;
  auto fixtures = build_fixtures(config_, &error);
  if (!fixtures) {
    report.violations.push_back(error);
    return report;
  }
  fix_ = std::move(*fixtures);
  // The oracles load the fixture files afresh, independent of the server.
  auto db_a = serve::SiblingDB::load(fix_.a_path, &error);
  auto db_b = db_a ? serve::SiblingDB::load(fix_.b_path, &error) : std::nullopt;
  if (!db_a || !db_b) {
    report.violations.push_back("oracle load failed: " + error);
    return report;
  }
  oracle_a_.emplace("A", std::move(*db_a));
  oracle_b_.emplace("B", std::move(*db_b));

  // In-process serving stack. A private registry keeps net.* metrics
  // (and their quantiles) scoped to this run.
  obs::MetricsRegistry registry;
  std::optional<serve::SiblingService> service;
  std::optional<net::Server> server;
  if (in_process()) {
    service.emplace(2);
    if (!service->load(fix_.a_path, &error)) {
      report.violations.push_back("initial load: " + error);
      return report;
    }
    const std::uint64_t first_generation = service->stats().generation;
    {
      const std::lock_guard<std::mutex> lock(served_mutex_);
      served_[first_generation] = &*oracle_a_;
    }
    net::ServerConfig server_config;
    server_config.workers = config_.server_workers;
    server_config.high_water = config_.high_water;
    server_config.accept_backoff = config_.accept_backoff;
    server_config.registry = &registry;
    server.emplace(*service, server_config);
    if (!server->start(&error)) {
      report.violations.push_back("server start: " + error);
      return report;
    }
    target_ = FaultTarget{"127.0.0.1", server->port()};
  } else {
    target_ = FaultTarget{config_.connect_host, config_.connect_port};
  }

  // Optional fd pressure: shrink the soft RLIMIT_NOFILE so connection
  // floods reach genuine EMFILE; restored before the final sweep.
  rlimit saved_nofile{};
  bool limited = false;
  if (in_process() && config_.fd_soft_limit != 0 &&
      ::getrlimit(RLIMIT_NOFILE, &saved_nofile) == 0) {
    rlimit lowered = saved_nofile;
    lowered.rlim_cur = std::min<rlim_t>(config_.fd_soft_limit, saved_nofile.rlim_max);
    limited = ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }

  std::vector<std::thread> threads;
  threads.reserve(config_.query_threads + 1);
  for (unsigned id = 0; id < config_.query_threads; ++id)
    threads.emplace_back([this, id] { probe_loop(id); });
  threads.emplace_back([this] { fault_loop(); });

  std::this_thread::sleep_for(config_.duration);
  stop_.store(true);
  for (auto& thread : threads) thread.join();
  if (limited) ::setrlimit(RLIMIT_NOFILE, &saved_nofile);

  // Re-pin snapshot A so the sweep oracle and the server agree, then run
  // the quiesced byte-correctness sweep.
  {
    stop_.store(false);  // allow the control helpers their retry window
    auto response = control_reload(fix_.a_path);
    stop_.store(true);
    if (!response || !response->ok) {
      violation("final RELOAD of " + fix_.a_path + " failed");
    } else {
      report.final_generation = response->generation;
    }
    if (control_) control_->close();
    control_.reset();
  }
  final_sweep(report);

  if (auto stats = fetch_stats()) {
    report.p99_us = stats->frame_p99_us;
    if (config_.max_p99_us > 0 && stats->frame_p99_us > config_.max_p99_us) {
      violation("frame p99 " + std::to_string(stats->frame_p99_us) + "us exceeds bound " +
                std::to_string(config_.max_p99_us) + "us");
    }
  } else {
    violation("STATS fetch after soak failed");
  }

  if (in_process()) {
    // Quiesce: all clients are gone, but a worker may still be draining
    // frames received before an abort. Wait for the exact counter to
    // settle before auditing conservation.
    std::uint64_t last = server->stats().queries;
    for (int i = 0; i < 60; ++i) {
      std::this_thread::sleep_for(milliseconds(50));
      const std::uint64_t now = server->stats().queries;
      if (now == last) break;
      last = now;
    }
    const net::ServerStats server_stats = server->stats();
    const serve::ServiceStats service_stats = service->stats();
    std::uint64_t generation_sum = service_stats.compacted.queries;
    for (const auto& generation : service_stats.generations)
      generation_sum += generation.queries;
    report.server_queries = server_stats.queries;
    report.generation_query_sum = generation_sum;
    report.accept_errors = server_stats.accept_errors;
    if (generation_sum != server_stats.queries) {
      violation("per-generation tallies not conserved: sum " +
                std::to_string(generation_sum) + " != served " +
                std::to_string(server_stats.queries));
    }
    report.peak_rss_kb = obs::peak_rss_kb();
    if (config_.max_rss_kb > 0 && report.peak_rss_kb > config_.max_rss_kb) {
      violation("peak RSS " + std::to_string(report.peak_rss_kb) + "kB exceeds bound " +
                std::to_string(config_.max_rss_kb) + "kB");
    }
    server->stop();
  }

  report.events = events_;
  report.query_events = query_events_;
  report.valid_reloads = valid_reloads_;
  report.delta_reloads = delta_reloads_;
  report.mismatched_delta_reloads = mismatched_delta_reloads_;
  report.corrupt_reloads = corrupt_reloads_;
  report.fault_events = fault_events_;
  report.client_queries = client_queries_.load();
  report.connect_failures = connect_failures_.load();
  report.probe_keys_checked = probe_keys_checked_.load();
  report.probe_mismatches = probe_mismatches_.load();
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    report.violations.insert(report.violations.end(), violations_.begin(), violations_.end());
  }
  report.ok = report.violations.empty();
  return report;
}

}  // namespace

std::string SoakReport::to_json() const {
  std::ostringstream out;
  out << "{\"ok\":" << (ok ? "true" : "false") << ",\"events\":" << events
      << ",\"query_events\":" << query_events << ",\"valid_reloads\":" << valid_reloads
      << ",\"delta_reloads\":" << delta_reloads
      << ",\"mismatched_delta_reloads\":" << mismatched_delta_reloads
      << ",\"corrupt_reloads\":" << corrupt_reloads << ",\"fault_events\":" << fault_events
      << ",\"connect_failures\":" << connect_failures
      << ",\"client_queries\":" << client_queries
      << ",\"probe_keys_checked\":" << probe_keys_checked
      << ",\"probe_mismatches\":" << probe_mismatches << ",\"server_queries\":" << server_queries
      << ",\"generation_query_sum\":" << generation_query_sum
      << ",\"accept_errors\":" << accept_errors
      << ",\"final_generation\":" << final_generation << ",\"sweep_keys\":" << sweep_keys
      << ",\"sweep_mismatches\":" << sweep_mismatches << ",\"p99_us\":" << p99_us
      << ",\"peak_rss_kb\":" << peak_rss_kb << ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i != 0) out << ',';
    out << '"' << json_escape(violations[i]) << '"';
  }
  out << "]}";
  return out.str();
}

SoakReport run_soak(const SoakConfig& config) { return Soak(config).run(); }

}  // namespace sp::chaos
