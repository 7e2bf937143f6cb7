// Behavioral tests for the sp::net epoll server: slow-reader
// backpressure (reads pause at the high-water mark and the server's
// buffered output stays bounded), mid-frame disconnects, idle-timeout
// eviction, and — run under TSan by scripts/tier1.sh stage 2 — RELOAD
// racing concurrent QUERY pipelines over several connections while the
// per-generation hit tallies stay conserved (no count is lost when a
// snapshot retires mid-batch).
#include "net/server.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chaos/corrupt.h"
#include "net/client.h"
#include "net/protocol.h"
#include "serve/sibdb.h"
#include "serve/service.h"
#include "stream/spdl.h"

namespace sp::net {
namespace {

Prefix p(const char* text) { return Prefix::must_parse(text); }

std::string write_fixture_db(const std::string& name) {
  std::vector<core::SiblingPair> pairs(1);
  pairs[0].v4 = p("20.1.0.0/16");
  pairs[0].v6 = p("2620:100::/32");
  pairs[0].similarity = 0.9;
  pairs[0].shared_domains = 2;
  pairs[0].v4_domain_count = 3;
  pairs[0].v6_domain_count = 4;
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(serve::write_sibdb(path, pairs));
  return path;
}

/// Polls `condition` every millisecond for up to `budget`.
template <typename Condition>
bool eventually(Condition condition,
                std::chrono::milliseconds budget = std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return condition();
}

TEST(NetServer, SlowReaderHitsHighWaterAndRecovers) {
  const std::string db = write_fixture_db("net_server_slow.sibdb");
  serve::SiblingService service(1);
  std::string error;
  ASSERT_TRUE(service.load(db, &error)) << error;

  obs::MetricsRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.high_water = 4096;  // tiny, so a handful of batches crosses it
  config.registry = &registry;
  Server server(service, config);
  ASSERT_TRUE(server.start(&error)) << error;

  auto client = Client::connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(client.has_value()) << error;

  // Pipeline QUERY frames whose responses expand ~15x and total far past
  // anything the kernel's socket buffers can absorb (~28 MB), and read
  // nothing: the server must pause reads instead of buffering the
  // pipeline's worth of responses in userspace. A writer thread pumps
  // the requests — by design the send cannot complete while the server
  // is wedged behind this slow reader.
  constexpr unsigned kFrames = 300;
  constexpr unsigned kBatch = 2048;
  std::vector<std::uint8_t> wire;
  for (unsigned id = 0; id < kFrames; ++id) {
    QueryRequest request;
    request.request_id = id;
    request.keys.assign(kBatch, p("20.1.2.3/32"));
    encode_query_request(wire, request);
  }
  std::atomic<bool> send_failed{false};
  std::thread writer([&] {
    std::string send_error;
    if (!client->send_bytes(wire, &send_error)) send_failed.store(true);
  });

  // Wait for the wedge: reads paused and the ingest counter flat across
  // a 50 ms window while most of the request stream is still unread.
  std::uint64_t ingested = 0;
  bool stalled = false;
  for (int round = 0; round < 200 && !stalled; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const ServerStats now = server.stats();
    stalled = now.reads_paused >= 1 && now.bytes_in == ingested && ingested > 0;
    ingested = now.bytes_in;
  }
  ASSERT_TRUE(stalled) << "server never paused reads";
  EXPECT_LT(ingested, wire.size());  // memory bounded: ingest stopped mid-stream

  // Now drain: reads must resume and every response arrive in order.
  for (unsigned id = 0; id < kFrames; ++id) {
    const auto frame = client->read_frame(&error, std::chrono::milliseconds(20000));
    ASSERT_TRUE(frame.has_value()) << "frame " << id << ": " << error;
    const auto response = parse_query_response(frame->body, &error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->request_id, id);
    EXPECT_EQ(response->answers.size(), kBatch);
  }
  writer.join();
  EXPECT_FALSE(send_failed.load());
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.reads_paused, 1u);
  EXPECT_EQ(stats.queries, std::uint64_t{kFrames} * kBatch);
  server.stop();
}

TEST(NetServer, MidFrameDisconnectCleansUp) {
  const std::string db = write_fixture_db("net_server_disconnect.sibdb");
  serve::SiblingService service(1);
  std::string error;
  ASSERT_TRUE(service.load(db, &error)) << error;

  ServerConfig config;
  config.workers = 2;
  obs::MetricsRegistry registry;
  config.registry = &registry;
  Server server(service, config);
  ASSERT_TRUE(server.start(&error)) << error;

  {
    auto client = Client::connect("127.0.0.1", server.port(), &error);
    ASSERT_TRUE(client.has_value()) << error;
    // A complete header promising 100 body bytes, then only 3 of them.
    QueryRequest request;
    request.request_id = 1;
    request.keys.assign(16, p("20.1.2.3/32"));
    std::vector<std::uint8_t> wire;
    encode_query_request(wire, request);
    ASSERT_TRUE(client->send_bytes({wire.data(), kHeaderSize + 3}, &error)) << error;
    ASSERT_TRUE(eventually([&] { return server.stats().connections_active == 1; }));
    client->close();  // disconnect mid-frame
  }
  ASSERT_TRUE(eventually([&] { return server.stats().connections_active == 0; }))
      << "connection was not reaped";
  const ServerStats stats = server.stats();
  // A truncated frame on a dead peer is not a protocol error, and no
  // response was ever owed.
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.frames_in, 0u);

  // The server keeps serving new connections afterwards.
  auto again = Client::connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  std::vector<std::uint8_t> stats_request;
  encode_stats_request(stats_request);
  ASSERT_TRUE(again->send_bytes(stats_request, &error)) << error;
  EXPECT_TRUE(again->read_frame(&error).has_value()) << error;
  server.stop();
}

TEST(NetServer, IdleConnectionsAreEvicted) {
  const std::string db = write_fixture_db("net_server_idle.sibdb");
  serve::SiblingService service(1);
  std::string error;
  ASSERT_TRUE(service.load(db, &error)) << error;

  ServerConfig config;
  config.workers = 1;
  config.idle_timeout = std::chrono::milliseconds(100);
  obs::MetricsRegistry registry;
  config.registry = &registry;
  Server server(service, config);
  ASSERT_TRUE(server.start(&error)) << error;

  auto client = Client::connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(client.has_value()) << error;
  ASSERT_TRUE(eventually([&] { return server.stats().connections_active == 1; }));

  // Say nothing; the sweep must evict us and the socket report EOF.
  const auto frame = client->read_frame(&error, std::chrono::milliseconds(5000));
  EXPECT_FALSE(frame.has_value());
  EXPECT_TRUE(client->eof());
  ASSERT_TRUE(eventually([&] { return server.stats().idle_evictions >= 1; }));
  EXPECT_EQ(server.stats().connections_active, 0u);
  server.stop();
}

// The race the whole RCU design exists for: four connections pipelining
// QUERY batches while RELOADs swap snapshots underneath them. Asserts
// (under TSan in tier1 stage 2) that no answer is torn and that the
// per-generation tallies are conserved: everything the clients were
// answered is accounted to exactly one generation — in-flight batches
// that pinned a snapshot across its retirement keep counting into it,
// not into the void. Each batch mixes hits and misses of both families,
// and the server's net.frames.query, net.queries and hit count must
// equal what the clients sent and saw.
TEST(NetServer, ReloadUnderLoadConservesGenerationTallies) {
  const std::string db = write_fixture_db("net_server_race.sibdb");
  serve::SiblingService service(2);
  std::string error;
  ASSERT_TRUE(service.load(db, &error)) << error;

  ServerConfig config;
  config.workers = 4;
  obs::MetricsRegistry registry;
  config.registry = &registry;
  Server server(service, config);
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr unsigned kClients = 4;
  constexpr unsigned kFramesPerClient = 40;
  constexpr unsigned kPipeline = 4;
  constexpr unsigned kBatch = 32;
  // Key i of every batch is kKeys[i % 4]; kMatched[i % 4] is its answer.
  const Prefix kKeys[] = {p("20.1.2.3/32"), p("2620:100::1/128"), p("30.0.0.1/32"),
                          p("2001:db8::1/128")};
  const std::optional<Prefix> kMatched[] = {p("20.1.0.0/16"), p("2620:100::/32"),
                                            std::nullopt, std::nullopt};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (unsigned who = 0; who < kClients; ++who) {
    clients.emplace_back([&, who] {
      std::string client_error;
      auto client = Client::connect("127.0.0.1", server.port(), &client_error);
      if (!client) {
        failed.store(true);
        return;
      }
      unsigned sent = 0;
      unsigned received = 0;
      while (received < kFramesPerClient) {
        while (sent < kFramesPerClient && sent - received < kPipeline) {
          QueryRequest request;
          request.request_id = who * 1000 + sent;
          for (unsigned i = 0; i < kBatch; ++i) request.keys.push_back(kKeys[i % 4]);
          std::vector<std::uint8_t> wire;
          encode_query_request(wire, request);
          if (!client->send_bytes(wire, &client_error)) {
            failed.store(true);
            return;
          }
          ++sent;
        }
        const auto frame = client->read_frame(&client_error, std::chrono::milliseconds(10000));
        if (!frame) {
          failed.store(true);
          return;
        }
        const auto response = parse_query_response(frame->body, &client_error);
        if (!response || response->generation == 0 ||
            response->answers.size() != kBatch) {
          failed.store(true);
          return;
        }
        for (unsigned i = 0; i < kBatch; ++i) {
          // Never torn: every answer comes whole from some snapshot.
          const auto& answer = response->answers[i];
          const std::optional<Prefix> matched =
              answer ? std::optional<Prefix>(answer->matched) : std::nullopt;
          if (matched != kMatched[i % 4]) {
            failed.store(true);
            return;
          }
          if (answer) hits.fetch_add(1);
        }
        answered.fetch_add(response->answers.size());
        ++received;
      }
    });
  }

  // Churn generations while the clients hammer: bare RELOADs on a fifth
  // connection, racing the snapshot swap against pinned batches.
  std::thread reloader([&] {
    std::string reload_error;
    auto client = Client::connect("127.0.0.1", server.port(), &reload_error);
    if (!client) {
      failed.store(true);
      return;
    }
    for (unsigned round = 0; round < 25; ++round) {
      std::vector<std::uint8_t> wire;
      encode_reload_request(wire, ReloadRequest{});
      if (!client->send_bytes(wire, &reload_error)) {
        failed.store(true);
        return;
      }
      const auto frame = client->read_frame(&reload_error, std::chrono::milliseconds(10000));
      if (!frame) {
        failed.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (auto& thread : clients) thread.join();
  reloader.join();
  ASSERT_FALSE(failed.load());

  const std::uint64_t frames = kClients * kFramesPerClient;
  const std::uint64_t expected = frames * kBatch;
  const std::uint64_t expected_hits = expected / 2;
  EXPECT_EQ(answered.load(), expected);
  EXPECT_EQ(hits.load(), expected_hits);

  // Conservation: every answered key is tallied in exactly one
  // generation (live, retired, or compacted) — the lazy retirement in
  // SiblingService::load() means a batch that crossed a swap still
  // lands in the generation it was answered from.
  const serve::ServiceStats stats = service.stats();
  std::uint64_t tallied = stats.compacted.queries;
  std::uint64_t tallied_hits = stats.compacted.hits;
  for (const serve::GenerationStats& generation : stats.generations) {
    tallied += generation.queries;
    tallied_hits += generation.hits;
  }
  EXPECT_EQ(tallied, expected);
  EXPECT_EQ(tallied_hits, expected_hits);
  EXPECT_GE(stats.generations.size(), 2u);  // the churn actually happened
  server.stop();

  const ServerStats server_stats = server.stats();
  EXPECT_EQ(server_stats.queries, expected);
  EXPECT_EQ(server_stats.hits, expected_hits);
  EXPECT_EQ(server_stats.reloads_ok, 25u);
  const obs::MetricsSnapshot metrics = registry.scrape();
  const auto counter = [&](const std::string& name) -> std::int64_t {
    for (const auto& [counter_name, value] : metrics.counters) {
      if (counter_name == name) return value;
    }
    return -1;
  };
  EXPECT_EQ(counter("net.frames.query"), static_cast<std::int64_t>(frames));
  EXPECT_EQ(counter("net.queries"), static_cast<std::int64_t>(expected));
}

// A peer that wedges the server's output buffer and then vanishes with
// an RST must not take the process down: flush_output sends with
// MSG_NOSIGNAL, so a write into the reset connection yields
// EPIPE/ECONNRESET (connection shed) instead of a fatal SIGPIPE. The
// server must keep answering on the next connection. (The stdio side of
// the same hazard — sp_serve's stdout dying mid-pipe — is covered by
// the dead-pipe check in scripts/tier1.sh, where the default SIGPIPE
// disposition genuinely kills an unhardened binary.)
TEST(NetServer, PeerResetWithWedgedOutputServerKeepsServing) {
  const std::string db = write_fixture_db("net_server_rst.sibdb");
  serve::SiblingService service(1);
  std::string error;
  ASSERT_TRUE(service.load(db, &error)) << error;

  obs::MetricsRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.high_water = 4096;
  config.registry = &registry;
  Server server(service, config);
  ASSERT_TRUE(server.start(&error)) << error;

  for (int round = 0; round < 3; ++round) {
    auto wedger = Client::connect("127.0.0.1", server.port(), &error);
    ASSERT_TRUE(wedger.has_value()) << error;
    // Pipeline enough batched queries that the responses overflow both
    // the kernel socket buffers and the high-water mark, then never
    // read a byte: the server parks output for this connection.
    std::vector<std::uint8_t> wire;
    for (unsigned frame = 0; frame < 64; ++frame) {
      QueryRequest request;
      request.request_id = frame;
      request.keys.assign(512, p("20.1.2.3/32"));
      encode_query_request(wire, request);
    }
    ASSERT_TRUE(wedger->send_bytes(wire, &error)) << error;
    ASSERT_TRUE(eventually([&] { return server.stats().reads_paused > 0; }));

    // RST the wedged connection: SO_LINGER with zero timeout discards
    // the queued data and resets instead of FIN-ing.
    const linger hard{1, 0};
    ASSERT_EQ(::setsockopt(wedger->fd(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard)), 0);
    wedger->close();

    // The process survived the write-into-reset; a fresh connection
    // still gets correct answers.
    auto probe = Client::connect("127.0.0.1", server.port(), &error);
    ASSERT_TRUE(probe.has_value()) << error;
    QueryRequest request;
    request.request_id = 9000 + round;
    request.keys.push_back(p("20.1.2.3/32"));
    std::vector<std::uint8_t> probe_wire;
    encode_query_request(probe_wire, request);
    ASSERT_TRUE(probe->send_bytes(probe_wire, &error)) << error;
    const auto frame = probe->read_frame(&error);
    ASSERT_TRUE(frame.has_value()) << error;
    const auto response = parse_query_response(frame->body, &error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->request_id, request.request_id);
    ASSERT_EQ(response->answers.size(), 1u);
    ASSERT_TRUE(response->answers[0].has_value());
    EXPECT_EQ(response->answers[0]->matched, p("20.1.0.0/16"));
  }
  server.stop();
}

// Drives accept4 into EMFILE by exhausting the process fd limit, then
// verifies the acceptor backs off instead of spinning (bounded
// net.accept_errors growth while exhausted — a hot level-triggered loop
// racks up thousands per second), and that accepting resumes once
// descriptors free up.
TEST(NetServer, EmfileAcceptBackoffAndRecovery) {
  const std::string db = write_fixture_db("net_server_emfile.sibdb");
  serve::SiblingService service(1);
  std::string error;
  ASSERT_TRUE(service.load(db, &error)) << error;

  obs::MetricsRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.accept_backoff = std::chrono::milliseconds(50);
  config.registry = &registry;
  Server server(service, config);
  ASSERT_TRUE(server.start(&error)) << error;

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = 128;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  // Open client sockets until the process (server included — same fd
  // table) runs dry. Completed handshakes the server cannot accept sit
  // in the listen backlog and poke the level-triggered epoll.
  std::vector<int> hogs;
  for (int i = 0; i < 256; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    hogs.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    (void)::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  ASSERT_TRUE(eventually([&] { return server.stats().accept_errors > 0; }));

  // Bounded, not spinning: with a 50ms backoff an exhausted 300ms
  // window admits ~6 retries; allow a generous margin. A hot accept
  // loop would add tens of thousands here.
  const std::uint64_t before = server.stats().accept_errors;
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t during = server.stats().accept_errors - before;
  EXPECT_LE(during, 30u);

  for (const int fd : hogs) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  // Descriptors are back; within a backoff period the acceptor re-arms
  // and fresh connections are served again.
  ASSERT_TRUE(eventually([&] {
    std::string probe_error;
    auto probe = Client::connect("127.0.0.1", server.port(), &probe_error,
                                 std::chrono::milliseconds(500));
    if (!probe) return false;
    QueryRequest request;
    request.request_id = 77;
    request.keys.push_back(p("20.1.2.3/32"));
    std::vector<std::uint8_t> wire;
    encode_query_request(wire, request);
    if (!probe->send_bytes(wire, &probe_error)) return false;
    const auto frame = probe->read_frame(&probe_error, std::chrono::milliseconds(2000));
    return frame.has_value();
  }));
  server.stop();
  EXPECT_GE(server.stats().accept_errors, 1u);
}

// RELOAD pointing at corrupt artifacts — a torn .sibdb and a damaged
// .spdl delta, the soak harness's corrupt fixtures — must be rejected
// over TCP while the prior generation keeps answering on the very same
// pipelined connection.
TEST(NetServer, CorruptReloadOverTcpKeepsPriorGenerationServing) {
  const std::string db = write_fixture_db("net_server_corrupt_base.sibdb");
  serve::SiblingService service(1);
  std::string error;
  ASSERT_TRUE(service.load(db, &error)) << error;

  obs::MetricsRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.registry = &registry;
  Server server(service, config);
  ASSERT_TRUE(server.start(&error)) << error;

  auto client = Client::connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(client.has_value()) << error;

  const auto query_generation = [&]() -> std::uint64_t {
    QueryRequest request;
    request.request_id = 1;
    request.keys.push_back(p("20.1.2.3/32"));
    std::vector<std::uint8_t> wire;
    encode_query_request(wire, request);
    EXPECT_TRUE(client->send_bytes(wire, &error)) << error;
    const auto frame = client->read_frame(&error);
    EXPECT_TRUE(frame.has_value()) << error;
    if (!frame) return 0;
    const auto response = parse_query_response(frame->body, &error);
    EXPECT_TRUE(response.has_value()) << error;
    if (!response) return 0;
    EXPECT_TRUE(response->answers.at(0).has_value());
    return response->generation;
  };
  const std::uint64_t baseline = query_generation();
  ASSERT_GT(baseline, 0u);

  // Corrupt variants of the snapshot we are serving and of a valid
  // delta log against it, produced by the chaos corruption kinds the
  // fuzz corpora are seeded from.
  const auto base_bytes = [&] {
    auto loaded = serve::SiblingDB::load(db, &error);
    EXPECT_TRUE(loaded.has_value()) << error;
    return std::vector<std::uint8_t>(loaded->raw_bytes().begin(), loaded->raw_bytes().end());
  }();
  auto base_db = serve::SiblingDB::load(db, &error);
  ASSERT_TRUE(base_db.has_value()) << error;
  const auto delta = stream::diff_sibdb(*base_db, *base_db, &error);
  ASSERT_TRUE(delta.has_value()) << error;
  const auto delta_bytes = stream::encode_spdl(*delta);

  unsigned rejected = 0;
  for (const chaos::CorruptKind kind : chaos::kAllCorruptKinds) {
    const std::string tag(chaos::to_string(kind));
    for (const bool spdl : {false, true}) {
      const auto bad = chaos::corrupt_image(spdl ? delta_bytes : base_bytes, kind, 42);
      const std::string path = ::testing::TempDir() + "/net_corrupt_" + tag +
                               (spdl ? ".spdl" : ".sibdb");
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bad.data()),
                static_cast<std::streamsize>(bad.size()));
      ASSERT_TRUE(out.good());
      out.close();

      std::vector<std::uint8_t> wire;
      encode_reload_request(wire, ReloadRequest{path});
      ASSERT_TRUE(client->send_bytes(wire, &error)) << error;
      const auto frame = client->read_frame(&error);
      ASSERT_TRUE(frame.has_value()) << error;
      const auto response = parse_reload_response(frame->body, &error);
      ASSERT_TRUE(response.has_value()) << error;
      EXPECT_FALSE(response->ok) << "corrupt " << tag << (spdl ? " .spdl" : " .sibdb")
                                 << " was accepted";
      ++rejected;

      // Same connection, next frame: the old snapshot still answers at
      // the unchanged generation.
      EXPECT_EQ(query_generation(), baseline);
    }
  }
  EXPECT_EQ(rejected, 2 * chaos::kAllCorruptKinds.size());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.reloads_failed, rejected);
  EXPECT_EQ(stats.reloads_ok, 0u);
  server.stop();
}

}  // namespace
}  // namespace sp::net
