// Determinism tests for the sp::net load generator: with a fixed seed
// and a fixed --requests count, two runs send byte-identical request
// streams (pinned by the per-connection FNV-1a64 hashes in the report)
// and land identical per-verb counters on the server — the property
// the tier1.sh loopback smoke relies on to be reproducible. Also pins
// the shape of the `--json` report.
#include "net/loadgen.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/server.h"
#include "serve/sibdb.h"
#include "serve/service.h"

namespace sp::net {
namespace {

Prefix p(const char* text) { return Prefix::must_parse(text); }

std::string write_fixture_db(const std::string& name) {
  std::vector<core::SiblingPair> pairs(1);
  pairs[0].v4 = p("20.0.0.0/8");
  pairs[0].v6 = p("2620::/16");
  pairs[0].similarity = 0.8;
  pairs[0].shared_domains = 2;
  pairs[0].v4_domain_count = 3;
  pairs[0].v6_domain_count = 4;
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(serve::write_sibdb(path, pairs));
  return path;
}

std::int64_t counter_value(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [counter_name, value] : snapshot.counters) {
    if (counter_name == name) return value;
  }
  return -1;
}

/// One complete run against a throwaway server with its own registry;
/// returns the report plus the server-side per-verb counters, so runs
/// are comparable without any shared mutable state between them.
struct RunOutcome {
  LoadGenReport report;
  std::int64_t query_frames = 0;
  std::int64_t queries = 0;
  std::int64_t hits = 0;
};

RunOutcome run_against_fresh_server(const std::string& db, LoadGenConfig config) {
  serve::SiblingService service(1);
  std::string error;
  EXPECT_TRUE(service.load(db, &error)) << error;
  obs::MetricsRegistry registry;
  ServerConfig server_config;
  server_config.workers = 2;
  server_config.registry = &registry;
  Server server(service, server_config);
  EXPECT_TRUE(server.start(&error)) << error;
  config.port = server.port();
  RunOutcome outcome;
  outcome.report = run_loadgen(config);
  outcome.hits = static_cast<std::int64_t>(server.stats().hits);
  server.stop();
  const obs::MetricsSnapshot snapshot = registry.scrape();
  outcome.query_frames = counter_value(snapshot, "net.frames.query");
  outcome.queries = counter_value(snapshot, "net.queries");
  return outcome;
}

TEST(NetLoadGen, SameSeedSendsIdenticalStreams) {
  const std::string db = write_fixture_db("net_loadgen_same.sibdb");
  LoadGenConfig config;
  config.connections = 3;
  config.pipeline = 4;
  config.batch = 16;
  config.seed = 42;
  config.requests = 30;
  // Half the keys land inside the served pair's spaces, so the hit
  // tallies exercised below are neither 0 nor 100%.
  config.v4_space = p("16.0.0.0/4");   // covers 20.0.0.0/8
  config.v6_space = p("2600::/12");    // covers 2620::/16
  config.v6_share = 0.25;

  const RunOutcome first = run_against_fresh_server(db, config);
  const RunOutcome second = run_against_fresh_server(db, config);
  ASSERT_TRUE(first.report.ok) << first.report.error;
  ASSERT_TRUE(second.report.ok) << second.report.error;

  // The whole point: byte-identical request streams, per connection.
  ASSERT_EQ(first.report.request_stream_hash.size(), config.connections);
  EXPECT_EQ(first.report.request_stream_hash, second.report.request_stream_hash);

  // Closed loop with a fixed --requests count: exact frame/key totals.
  const std::uint64_t frames = std::uint64_t{config.connections} * config.requests;
  EXPECT_EQ(first.report.frames_sent, frames);
  EXPECT_EQ(first.report.frames_received, frames);
  EXPECT_EQ(first.report.keys_sent, frames * config.batch);
  EXPECT_EQ(first.report.keys_answered, frames * config.batch);
  EXPECT_EQ(first.report.keys_sent, second.report.keys_sent);
  EXPECT_EQ(first.report.bytes_sent, second.report.bytes_sent);
  EXPECT_EQ(first.report.hits, second.report.hits);
  EXPECT_GT(first.report.hits, 0u);
  EXPECT_LT(first.report.hits, first.report.keys_answered);

  // And the server agrees, run over run, per verb.
  EXPECT_EQ(first.query_frames, static_cast<std::int64_t>(frames));
  EXPECT_EQ(first.query_frames, second.query_frames);
  EXPECT_EQ(first.queries, static_cast<std::int64_t>(frames * config.batch));
  EXPECT_EQ(first.queries, second.queries);
  EXPECT_EQ(first.hits, second.hits);
  EXPECT_EQ(first.hits, static_cast<std::int64_t>(first.report.hits));
}

TEST(NetLoadGen, DifferentSeedsDiverge) {
  const std::string db = write_fixture_db("net_loadgen_diverge.sibdb");
  LoadGenConfig config;
  config.connections = 2;
  config.pipeline = 2;
  config.batch = 8;
  config.requests = 10;
  config.seed = 1;
  const RunOutcome first = run_against_fresh_server(db, config);
  config.seed = 2;
  const RunOutcome second = run_against_fresh_server(db, config);
  ASSERT_TRUE(first.report.ok) << first.report.error;
  ASSERT_TRUE(second.report.ok) << second.report.error;
  // Same shape (frame and key counts are seed-independent)…
  EXPECT_EQ(first.report.frames_received, second.report.frames_received);
  EXPECT_EQ(first.report.keys_sent, second.report.keys_sent);
  // …but different keys: the streams must not collide.
  EXPECT_NE(first.report.request_stream_hash, second.report.request_stream_hash);
}

TEST(NetLoadGen, ReportJsonCarriesConfigAndHashes) {
  const std::string db = write_fixture_db("net_loadgen_json.sibdb");
  LoadGenConfig config;
  config.connections = 2;
  config.pipeline = 2;
  config.batch = 4;
  config.requests = 5;
  config.seed = 7;
  const RunOutcome outcome = run_against_fresh_server(db, config);
  ASSERT_TRUE(outcome.report.ok) << outcome.report.error;
  const std::string json = outcome.report.to_json(config);
  EXPECT_NE(json.find("\"bench\":\"net_loadgen\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"seed\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"batch\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"request_stream_hash\":["), std::string::npos) << json;
  // Two connections → two 16-hex-digit stream hashes in the array.
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                static_cast<unsigned long long>(outcome.report.request_stream_hash.at(0)));
  EXPECT_NE(json.find(hash_hex), std::string::npos) << json;
}

TEST(NetLoadGen, RefusesUnreachableServer) {
  LoadGenConfig config;
  config.host = "127.0.0.1";
  config.port = 1;  // nothing listens here
  config.connections = 1;
  config.requests = 1;
  const LoadGenReport report = run_loadgen(config);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.error.empty());
}

}  // namespace
}  // namespace sp::net
