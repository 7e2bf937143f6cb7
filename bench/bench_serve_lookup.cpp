// Microbenchmarks for the sp::serve lookup path (google-benchmark).
//
// Measures, over one synthetic published list:
//   * single-address and batched queries/second against a loaded snapshot
//     (batched both inline and sharded over a worker pool);
//   * the CSV-reparse-per-query baseline — what a consumer pays today if
//     it re-reads the published list for every question asked of it;
//   * snapshot load cost: mmap'ing a .sibdb vs re-parsing the CSV.
//
// A console tool: perfbench's `serve-reload` workload is the benchmark
// of record for the serve path (perfbench/README.md).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/sibling_list_io.h"
#include "core/worker_pool.h"
#include "serve/lookup.h"
#include "serve/sibdb.h"

namespace {

using namespace sp;

constexpr std::size_t kPairCount = 4096;

core::SiblingPair random_pair(std::mt19937& rng) {
  std::uniform_int_distribution<std::uint32_t> word;
  std::uniform_int_distribution<unsigned> v4_len(12, 24);
  std::uniform_int_distribution<unsigned> v6_len(32, 48);
  std::uniform_real_distribution<double> sim(0.0, 1.0);

  core::SiblingPair pair;
  pair.v4 = Prefix::of(IPAddress(IPv4Address(0x14000000u | (word(rng) & 0x03FFFFFFu))),
                       v4_len(rng));
  IPv6Address::Bytes bytes{};
  bytes[0] = 0x26;
  bytes[1] = 0x20;
  for (int b = 2; b < 6; ++b) bytes[static_cast<std::size_t>(b)] =
      static_cast<std::uint8_t>(word(rng));
  pair.v6 = Prefix::of(IPAddress(IPv6Address(bytes)), v6_len(rng));
  pair.similarity = sim(rng);
  pair.shared_domains = 1 + (word(rng) % 64);
  pair.v4_domain_count = pair.shared_domains + 1;
  pair.v6_domain_count = pair.shared_domains + 2;
  return pair;
}

struct Dataset {
  std::string csv_path;
  std::string db_path;
  serve::SiblingDB db;
  serve::LookupEngine engine;
  std::vector<IPAddress> probes;  // v4-heavy mix, clustered for ~50% hits

  explicit Dataset(serve::SiblingDB loaded) : db(std::move(loaded)), engine(db) {}
};

const Dataset& dataset() {
  static const Dataset* instance = [] {
    std::mt19937 rng(1234);
    std::vector<core::SiblingPair> pairs;
    pairs.reserve(kPairCount);
    for (std::size_t i = 0; i < kPairCount; ++i) pairs.push_back(random_pair(rng));

    const std::string csv_path = "/tmp/sp_bench_serve.csv";
    const std::string db_path = "/tmp/sp_bench_serve.sibdb";
    if (!core::write_sibling_list(csv_path, pairs)) std::abort();
    if (!serve::convert_sibling_list(csv_path, db_path)) std::abort();
    auto db = serve::SiblingDB::load(db_path);
    if (!db) std::abort();

    auto* made = new Dataset(std::move(*db));
    made->csv_path = csv_path;
    made->db_path = db_path;
    std::uniform_int_distribution<std::uint32_t> word;
    for (int i = 0; i < 8192; ++i) {
      // Half inside the 20.0/6 cluster, half anywhere.
      const std::uint32_t bits = i % 2 == 0
                                     ? 0x14000000u | (word(rng) & 0x03FFFFFFu)
                                     : word(rng);
      made->probes.emplace_back(IPv4Address(bits));
    }
    return made;
  }();
  return *instance;
}

void BM_ServeQuerySingle(benchmark::State& state) {
  const Dataset& data = dataset();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(data.engine.query(data.probes[i++ % data.probes.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeQuerySingle);

// Batched lookups; arg is the worker count (0 = inline, no pool).
void BM_ServeQueryBatch(benchmark::State& state) {
  const Dataset& data = dataset();
  std::optional<core::WorkerPool> pool;
  if (state.range(0) > 0) pool.emplace(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        data.engine.query_many(data.probes, pool ? &*pool : nullptr));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(data.probes.size()));
}
BENCHMARK(BM_ServeQueryBatch)->Arg(0)->Arg(2)->Arg(4);

// The baseline the .sibdb format exists to retire: answer each query by
// re-reading the published CSV and linearly scanning it.
void BM_CsvReparsePerQuery(benchmark::State& state) {
  const Dataset& data = dataset();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto pairs = core::read_sibling_list(data.csv_path);
    if (!pairs) std::abort();
    const IPAddress& probe = data.probes[i++ % data.probes.size()];
    const core::SiblingPair* best = nullptr;
    for (const auto& pair : *pairs) {
      if (!pair.v4.contains(probe)) continue;
      if (best == nullptr || pair.v4.length() > best->v4.length()) best = &pair;
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CsvReparsePerQuery);

void BM_SibDbLoad(benchmark::State& state) {
  const Dataset& data = dataset();
  for (auto _ : state) {
    auto db = serve::SiblingDB::load(data.db_path);
    if (!db) std::abort();
    benchmark::DoNotOptimize(db->size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(data.db.size()));
}
BENCHMARK(BM_SibDbLoad);

void BM_CsvLoad(benchmark::State& state) {
  const Dataset& data = dataset();
  for (auto _ : state) {
    const auto pairs = core::read_sibling_list(data.csv_path);
    if (!pairs) std::abort();
    benchmark::DoNotOptimize(pairs->size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(data.db.size()));
}
BENCHMARK(BM_CsvLoad);

// Full snapshot activation: load + index build, the cost of one hot reload.
void BM_SnapshotActivate(benchmark::State& state) {
  const Dataset& data = dataset();
  for (auto _ : state) {
    auto db = serve::SiblingDB::load(data.db_path);
    if (!db) std::abort();
    const serve::LookupEngine engine(*db);
    benchmark::DoNotOptimize(engine.v4_prefix_count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotActivate);

}  // namespace

BENCHMARK_MAIN();
