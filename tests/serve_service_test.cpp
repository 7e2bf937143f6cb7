// Tests for SiblingService: counters, reload semantics, and the RCU
// hot-reload race — one thread batching queries while another swaps
// snapshots. Run under TSan by scripts/tier1.sh stage 2.
//
// sp-lint-file: atomics-ok(test flags and counters only gate loop exits
// or are read after joins; no cross-thread data is published through
// them)
#include "serve/service.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace sp::serve {
namespace {

Prefix p(const char* text) { return Prefix::must_parse(text); }

core::SiblingPair make_pair(const char* v4, const char* v6, double similarity) {
  core::SiblingPair pair;
  pair.v4 = p(v4);
  pair.v6 = p(v6);
  pair.similarity = similarity;
  pair.shared_domains = 1;
  pair.v4_domain_count = 1;
  pair.v6_domain_count = 1;
  return pair;
}

// A snapshot whose every record carries `similarity`, so any answer
// reveals which snapshot produced it.
std::string write_tagged_db(const std::string& name, double similarity) {
  std::vector<core::SiblingPair> pairs = {
      make_pair("20.1.0.0/16", "2620:100::/32", similarity),
      make_pair("20.1.2.0/24", "2620:100:1::/48", similarity),
      make_pair("198.51.100.0/24", "2001:db8:51::/48", similarity),
  };
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(write_sibdb(path, pairs));
  return path;
}

TEST(ServeService, EmptyServiceMissesEverything) {
  SiblingService service(1);
  EXPECT_EQ(service.snapshot(), nullptr);
  EXPECT_FALSE(service.query(IPAddress(*IPv4Address::from_string("20.1.2.3"))).has_value());
  const auto batch =
      service.query_many(std::vector<IPAddress>{IPAddress(*IPv4Address::from_string("20.1.2.3"))});
  EXPECT_EQ(batch.snapshot, nullptr);
  ASSERT_EQ(batch.answers.size(), 1u);
  EXPECT_FALSE(batch.answers[0].has_value());
  const auto stats = service.stats();
  EXPECT_EQ(stats.generation, 0u);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ServeService, LoadFailureKeepsCurrentSnapshot) {
  SiblingService service(1);
  const std::string path = write_tagged_db("sp_service_keep.sibdb", 0.5);
  ASSERT_TRUE(service.load(path));
  const auto before = service.snapshot();
  ASSERT_NE(before, nullptr);

  std::string error;
  EXPECT_FALSE(service.load(::testing::TempDir() + "/sp_service_missing.sibdb", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(service.snapshot(), before);  // old snapshot still serving
  EXPECT_EQ(service.stats().reloads, 1u);
}

TEST(ServeService, CountersTrackQueriesAndBatches) {
  SiblingService service(1);
  ASSERT_TRUE(service.load(write_tagged_db("sp_service_counters.sibdb", 0.5)));

  EXPECT_TRUE(service.query(IPAddress(*IPv4Address::from_string("20.1.2.3"))).has_value());
  EXPECT_FALSE(service.query(IPAddress(*IPv4Address::from_string("21.0.0.1"))).has_value());
  EXPECT_TRUE(service.query(p("20.1.0.0/16")).has_value());

  std::vector<IPAddress> batch = {
      IPAddress(*IPv4Address::from_string("20.1.2.3")),
      IPAddress(*IPv4Address::from_string("21.0.0.1")),
      *IPAddress::from_string("2620:100:1::5"),
  };
  const auto result = service.query_many(batch);
  ASSERT_NE(result.snapshot, nullptr);
  ASSERT_EQ(result.answers.size(), 3u);
  EXPECT_TRUE(result.answers[0].has_value());
  EXPECT_FALSE(result.answers[1].has_value());
  EXPECT_TRUE(result.answers[2].has_value());

  const auto stats = service.stats();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batch_queries, 3u);
  EXPECT_EQ(stats.batch_hits, 2u);
}

TEST(ServeService, StatsReportLatencyQuantilesFromHistograms) {
  SiblingService service(1);
  ASSERT_TRUE(service.load(write_tagged_db("sp_service_quantiles.sibdb", 0.5)));
  for (int i = 0; i < 50; ++i) {
    (void)service.query(IPAddress(*IPv4Address::from_string("20.1.2.3")));
  }
  const std::vector<IPAddress> batch(16, IPAddress(*IPv4Address::from_string("20.1.2.3")));
  for (int i = 0; i < 10; ++i) (void)service.query_many(batch);

  // The quantiles come from the process-wide serve.query_us /
  // serve.batch_us log₂ histograms (shared across service instances in
  // this binary), so assertions stay on invariants: samples exist and
  // p50 <= p90 <= p99 <= max.
  const auto stats = service.stats();
  EXPECT_GT(stats.query_max_us + 1, 0u);  // max recorded (possibly 0 on a fast box)
  EXPECT_LE(stats.query_p50_us, stats.query_p90_us);
  EXPECT_LE(stats.query_p90_us, stats.query_p99_us);
  EXPECT_LE(stats.query_p99_us, static_cast<double>(stats.query_max_us));
  EXPECT_LE(stats.batch_p50_us, stats.batch_p90_us);
  EXPECT_LE(stats.batch_p90_us, stats.batch_p99_us);
  EXPECT_LE(stats.batch_p99_us, static_cast<double>(stats.batch_max_us));
  const auto snapshot =
      obs::HistogramSnapshot::of(obs::MetricsRegistry::global().histogram("serve.query_us"));
  EXPECT_GE(snapshot.count, 50u);
}

TEST(ServeService, StatsReportPerGenerationHitRates) {
  SiblingService service(1);
  const std::string a = write_tagged_db("sp_service_genstats_a.sibdb", 0.25);
  const std::string b = write_tagged_db("sp_service_genstats_b.sibdb", 0.75);

  ASSERT_TRUE(service.load(a));
  // Generation 1: 2 hits, 1 miss (single) + a batch of 1 hit, 1 miss.
  (void)service.query(IPAddress(*IPv4Address::from_string("20.1.2.3")));
  (void)service.query(IPAddress(*IPv4Address::from_string("20.1.0.9")));
  (void)service.query(IPAddress(*IPv4Address::from_string("21.0.0.1")));
  (void)service.query_many(std::vector<IPAddress>{
      IPAddress(*IPv4Address::from_string("20.1.2.3")),
      IPAddress(*IPv4Address::from_string("21.0.0.1"))});

  ASSERT_TRUE(service.load(b));
  // Generation 2: 1 hit.
  (void)service.query(IPAddress(*IPv4Address::from_string("20.1.2.3")));

  const auto stats = service.stats();
  ASSERT_EQ(stats.generations.size(), 2u);  // retired gen 1, live gen 2
  const GenerationStats& gen1 = stats.generations[0];
  EXPECT_EQ(gen1.generation, 1u);
  EXPECT_EQ(gen1.queries, 5u);  // 3 singles + 2 batch members
  EXPECT_EQ(gen1.hits, 3u);
  EXPECT_DOUBLE_EQ(gen1.hit_rate(), 3.0 / 5.0);
  const GenerationStats& gen2 = stats.generations[1];
  EXPECT_EQ(gen2.generation, 2u);
  EXPECT_EQ(gen2.queries, 1u);
  EXPECT_EQ(gen2.hits, 1u);
  EXPECT_DOUBLE_EQ(gen2.hit_rate(), 1.0);

  // Before any load there are no generations to report.
  EXPECT_TRUE(SiblingService(1).stats().generations.empty());
}

// Reload churn must not grow memory: at most kRetiredGenerationCap
// retired generations are kept individually, older tallies fold into
// the cumulative `compacted` bucket, and nothing served ever drops out
// of the totals.
TEST(ServeService, ReloadChurnBoundsRetiredGenerations) {
  SiblingService service(1);
  const std::string path = write_tagged_db("sp_service_churn.sibdb", 0.5);
  const IPAddress covered(*IPv4Address::from_string("20.1.2.3"));

  constexpr std::uint64_t kReloads = 1000;
  for (std::uint64_t i = 0; i < kReloads; ++i) {
    ASSERT_TRUE(service.load(path));
    EXPECT_TRUE(service.query(covered).has_value());  // one hit per generation
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.reloads, kReloads);
  EXPECT_EQ(stats.generation, kReloads);

  // Bounded: the cap's worth of individual retirees plus the live one.
  ASSERT_EQ(stats.generations.size(), kRetiredGenerationCap + 1);
  // The window holds the newest generations, contiguous up to the live one.
  for (std::size_t i = 0; i < stats.generations.size(); ++i) {
    EXPECT_EQ(stats.generations[i].generation,
              kReloads - stats.generations.size() + 1 + i);
  }

  // Everything older was folded into the aggregate bucket...
  EXPECT_EQ(stats.compacted_generations, kReloads - 1 - kRetiredGenerationCap);
  EXPECT_EQ(stats.compacted.generation, 0u);  // an aggregate, not a generation

  // ...and the invariant holds: compacted + generations covers every
  // query this service ever served.
  std::uint64_t queries = stats.compacted.queries;
  std::uint64_t hits = stats.compacted.hits;
  for (const GenerationStats& gen : stats.generations) {
    queries += gen.queries;
    hits += gen.hits;
  }
  EXPECT_EQ(queries, kReloads);
  EXPECT_EQ(hits, kReloads);
}

// Retirement keeps a generation's tally, never its snapshot: an unpinned
// retiree is freed by the load() that replaces it, a pinned one lives
// exactly as long as its pin and keeps counting into its own generation,
// and a pinned oldest tally is not folded until its snapshot is gone.
TEST(ServeService, RetiredSnapshotIsFreedOnceUnpinned) {
  SiblingService service(1);
  const std::string path = write_tagged_db("sp_service_retire.sibdb", 0.5);
  const IPAddress covered(*IPv4Address::from_string("20.1.2.3"));

  ASSERT_TRUE(service.load(path));
  const std::weak_ptr<const Snapshot> gen1 = service.snapshot();
  EXPECT_TRUE(service.query(covered).has_value());
  ASSERT_TRUE(service.load(path));
  EXPECT_TRUE(gen1.expired());  // nothing pinned it: freed at the swap

  // Pin generation 2 as a batch would (net::Server's QUERY frames pin,
  // look up and count), and let a swap happen mid-batch.
  std::shared_ptr<const Snapshot> pinned = service.snapshot();
  ASSERT_EQ(pinned->generation, 2u);
  const std::weak_ptr<const Snapshot> gen2 = pinned;
  ASSERT_TRUE(service.load(path));
  const auto late = pinned->engine.query(covered);
  ASSERT_TRUE(late.has_value());
  pinned->count(1, 1);
  EXPECT_FALSE(gen2.expired());

  // While pinned, generation 2 is the oldest tally the cap cannot fold.
  for (std::size_t i = 0; i < kRetiredGenerationCap + 2; ++i) ASSERT_TRUE(service.load(path));
  auto stats = service.stats();
  const std::uint64_t live = 3 + kRetiredGenerationCap + 2;
  EXPECT_EQ(stats.generation, live);
  EXPECT_EQ(stats.compacted_generations, 1u);  // generation 1 only
  ASSERT_EQ(stats.generations.size(), live - 1);
  EXPECT_EQ(stats.generations.front().generation, 2u);
  EXPECT_EQ(stats.generations.front().queries, 1u);  // the late count landed
  EXPECT_EQ(stats.generations.front().hits, 1u);

  pinned.reset();
  EXPECT_TRUE(gen2.expired());  // freed with its last pin, not at a load
  ASSERT_TRUE(service.load(path));
  stats = service.stats();
  ASSERT_EQ(stats.generations.size(), kRetiredGenerationCap + 1);
  EXPECT_EQ(stats.generations.front().generation, stats.generation - kRetiredGenerationCap);
  EXPECT_EQ(stats.compacted_generations, stats.generation - 1 - kRetiredGenerationCap);

  // Conserved: one single query on generation 1, one late count on 2.
  std::uint64_t queries = stats.compacted.queries;
  std::uint64_t hits = stats.compacted.hits;
  for (const GenerationStats& gen : stats.generations) {
    queries += gen.queries;
    hits += gen.hits;
  }
  EXPECT_EQ(queries, stats.queries + 1);
  EXPECT_EQ(hits, stats.hits + 1);
  EXPECT_EQ(queries, 2u);
  EXPECT_EQ(hits, 2u);
}

TEST(ServeService, ReloadBumpsGeneration) {
  SiblingService service(1);
  const std::string a = write_tagged_db("sp_service_gen_a.sibdb", 0.25);
  const std::string b = write_tagged_db("sp_service_gen_b.sibdb", 0.75);
  ASSERT_TRUE(service.load(a));
  EXPECT_EQ(service.snapshot()->generation, 1u);
  const auto hit_a = service.query(IPAddress(*IPv4Address::from_string("20.1.2.3")));
  ASSERT_TRUE(hit_a.has_value());
  EXPECT_EQ(hit_a->similarity, 0.25);

  ASSERT_TRUE(service.load(b));
  EXPECT_EQ(service.snapshot()->generation, 2u);
  EXPECT_EQ(service.snapshot()->path, b);
  const auto hit_b = service.query(IPAddress(*IPv4Address::from_string("20.1.2.3")));
  ASSERT_TRUE(hit_b.has_value());
  EXPECT_EQ(hit_b->similarity, 0.75);
  EXPECT_EQ(service.stats().reloads, 2u);
}

// The bare-RELOAD path: the publisher (sp_pipeline) replaced the .sibdb
// in place; reload() re-reads the current snapshot's own file.
TEST(ServeService, ReloadRereadsTheCurrentSnapshotsFile) {
  SiblingService service(1);
  std::string error;
  EXPECT_FALSE(service.reload(&error));  // nothing loaded yet
  EXPECT_FALSE(error.empty());

  const std::string path = write_tagged_db("sp_service_inplace.sibdb", 0.25);
  ASSERT_TRUE(service.load(path));
  const auto before = service.query(IPAddress(*IPv4Address::from_string("20.1.2.3")));
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->similarity, 0.25);

  // Replace the file in place (same path, new content), then bare-reload.
  EXPECT_EQ(write_tagged_db("sp_service_inplace.sibdb", 0.75), path);
  ASSERT_TRUE(service.reload(&error)) << error;
  EXPECT_EQ(service.snapshot()->path, path);
  EXPECT_EQ(service.snapshot()->generation, 2u);
  const auto after = service.query(IPAddress(*IPv4Address::from_string("20.1.2.3")));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->similarity, 0.75);

  // A failed reload (file gone) keeps the current snapshot serving.
  ASSERT_EQ(std::remove(path.c_str()), 0);
  EXPECT_FALSE(service.reload(&error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(service.snapshot()->generation, 2u);
  EXPECT_TRUE(service.query(IPAddress(*IPv4Address::from_string("20.1.2.3"))).has_value());
}

// The hot-reload race the RCU design exists for: a reader thread issuing
// query_many in a tight loop while a writer thread swaps snapshots
// repeatedly. TSan must see no race, and every batch must be internally
// consistent — all answers from exactly the snapshot the batch pinned,
// never torn across two generations.
TEST(ServeService, HotReloadUnderLoadNeverTearsABatch) {
  SiblingService service(2);
  const std::string a = write_tagged_db("sp_service_race_a.sibdb", 0.25);
  const std::string b = write_tagged_db("sp_service_race_b.sibdb", 0.75);
  ASSERT_TRUE(service.load(a));

  // All probes hit, so every answer carries the snapshot tag.
  std::vector<IPAddress> probes;
  for (int i = 0; i < 32; ++i) {
    probes.emplace_back(*IPv4Address::from_string("20.1.2." + std::to_string(i)));
    probes.emplace_back(*IPAddress::from_string("2620:100:1::" + std::to_string(i + 1)));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches_checked{0};
  std::atomic<bool> torn{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed) ||
           batches_checked.load(std::memory_order_relaxed) == 0) {
      const auto result = service.query_many(probes);
      if (result.snapshot == nullptr) continue;
      // The tag every answer must carry, per the pinned snapshot.
      const double expected = result.snapshot->db.similarity(0);
      for (std::size_t i = 0; i < result.answers.size(); ++i) {
        if (!result.answers[i].has_value() || result.answers[i]->similarity != expected) {
          torn.store(true);
          return;
        }
      }
      batches_checked.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::thread writer([&] {
    for (int swap = 0; swap < 60; ++swap) {
      ASSERT_TRUE(service.load(swap % 2 == 0 ? b : a));
    }
    stop.store(true, std::memory_order_relaxed);
  });

  writer.join();
  reader.join();
  EXPECT_FALSE(torn.load());
  EXPECT_GT(batches_checked.load(), 0u);
  EXPECT_EQ(service.stats().reloads, 61u);
  EXPECT_EQ(service.snapshot()->generation, 61u);
}

// Concurrent load() calls (RELOADs on different sp_serve --listen
// workers) must publish generations in increasing order: the live
// generation never goes backwards, whichever build finishes first.
TEST(ServeService, ConcurrentLoadsPublishGenerationsInOrder) {
  SiblingService service(1);
  const std::string a = write_tagged_db("sp_service_order_a.sibdb", 0.25);
  const std::string b = write_tagged_db("sp_service_order_b.sibdb", 0.75);
  ASSERT_TRUE(service.load(a));

  constexpr int kLoadsPerWriter = 40;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> decreases{0};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t generation = service.snapshot()->generation;
      if (generation < last) decreases.fetch_add(1, std::memory_order_relaxed);
      last = generation;
    }
  });
  std::vector<std::thread> writers;
  for (const std::string* path : {&a, &b}) {
    writers.emplace_back([&service, path] {
      for (int i = 0; i < kLoadsPerWriter; ++i) ASSERT_TRUE(service.load(*path));
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(decreases.load(), 0u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.reloads, 1u + 2 * kLoadsPerWriter);
  EXPECT_EQ(stats.generation, stats.reloads);
  ASSERT_FALSE(stats.generations.empty());
  for (std::size_t i = 1; i < stats.generations.size(); ++i) {
    EXPECT_LT(stats.generations[i - 1].generation, stats.generations[i].generation);
  }
  EXPECT_EQ(stats.generations.back().generation, stats.generation);
}

}  // namespace
}  // namespace sp::serve
