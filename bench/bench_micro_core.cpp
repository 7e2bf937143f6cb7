// Microbenchmarks (google-benchmark) for the performance-critical kernels:
// Patricia trie operations, similarity kernels, the MRT codec, corpus
// construction, detection and SP-Tuner.
#include <benchmark/benchmark.h>

#include <random>

#include "bench_common.h"
#include "mrt/codec.h"
#include "he/happy_eyeballs.h"
#include "netbase/prefix_set.h"
#include "rpki/rov.h"
#include "trie/flat_lpm.h"
#include "trie/prefix_trie.h"

namespace {

using namespace sp;

std::vector<Prefix> random_prefixes(std::size_t count, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::uint32_t> word;
  std::uniform_int_distribution<int> len(8, 28);
  std::vector<Prefix> prefixes;
  prefixes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    prefixes.push_back(
        Prefix::of(IPAddress(IPv4Address(word(rng))), static_cast<unsigned>(len(rng))));
  }
  return prefixes;
}

void BM_TrieInsert(benchmark::State& state) {
  const auto prefixes = random_prefixes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    PrefixTrie<int> trie;
    for (const auto& prefix : prefixes) trie.insert(prefix, 1);
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrieInsert)->Arg(1000)->Arg(10000);

void BM_TrieLongestMatch(benchmark::State& state) {
  const auto prefixes = random_prefixes(static_cast<std::size_t>(state.range(0)), 2);
  PrefixTrie<int> trie;
  for (const auto& prefix : prefixes) trie.insert(prefix, 1);
  std::mt19937 rng(3);
  std::uniform_int_distribution<std::uint32_t> word;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.longest_match(IPAddress(IPv4Address(word(rng)))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieLongestMatch)->Arg(1000)->Arg(10000);

void BM_JaccardKernel(benchmark::State& state) {
  std::mt19937 rng(4);
  std::uniform_int_distribution<core::DomainId> id(0, 100000);
  core::DomainSet a;
  core::DomainSet b;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back(id(rng));
    b.push_back(id(rng));
  }
  core::normalize(a);
  core::normalize(b);
  for (auto _ : state) benchmark::DoNotOptimize(core::jaccard(a, b));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JaccardKernel)->Arg(16)->Arg(256)->Arg(4096);

void BM_MrtDumpRoundTrip(benchmark::State& state) {
  const auto dump = spbench::universe().mrt_dump();
  for (auto _ : state) {
    const auto bytes = mrt::encode_dump(dump);
    benchmark::DoNotOptimize(mrt::decode_dump(bytes));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(dump.size()));
}
BENCHMARK(BM_MrtDumpRoundTrip);

void BM_CorpusBuild(benchmark::State& state) {
  const auto snapshot = spbench::universe().snapshot_at(spbench::last_month());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::DualStackCorpus::build(snapshot, spbench::universe().rib()));
  }
}
BENCHMARK(BM_CorpusBuild);

void BM_DetectSiblingsSerial(benchmark::State& state) {
  const auto& corpus = spbench::corpus_at(spbench::last_month());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detect_sibling_prefixes_serial(corpus));
  }
}
BENCHMARK(BM_DetectSiblingsSerial);

// The sharded driver at 1/2/4/8 workers; byte-identical output to the
// serial baseline above, so time-per-iteration is directly comparable
// (each iteration also starts its worker pool, as every caller does).
void BM_DetectSiblings(benchmark::State& state) {
  const auto& corpus = spbench::corpus_at(spbench::last_month());
  core::DetectStats stats;
  const core::DetectOptions options{.threads = static_cast<unsigned>(state.range(0)),
                                    .stats = &stats};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detect_sibling_prefixes(corpus, options));
  }
  state.counters["prefixes"] = static_cast<double>(stats.prefixes_scanned);
  state.counters["candidates"] = static_cast<double>(stats.candidates_evaluated);
  state.counters["emitted"] = static_cast<double>(stats.pairs_emitted);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(stats.prefixes_scanned));
}
BENCHMARK(BM_DetectSiblings)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SpTunerTuneAll(benchmark::State& state) {
  const auto& corpus = spbench::corpus_at(spbench::last_month());
  const auto& pairs = spbench::default_pairs_at(spbench::last_month());
  const core::SpTunerMs tuner(corpus, {.v4_threshold = 28, .v6_threshold = 96});
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.tune_all(pairs));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(pairs.size()));
}
BENCHMARK(BM_SpTunerTuneAll);

void BM_RovValidate(benchmark::State& state) {
  rpki::Validator validator;
  for (const auto& roa : spbench::universe().roas_at(spbench::last_month())) {
    (void)validator.add_roa(roa);
  }
  const auto& pairs = spbench::default_pairs_at(spbench::last_month());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& pair = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(validator.validate(pair.v4, 65001));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RovValidate);

void BM_PrefixSetAddSubtract(benchmark::State& state) {
  std::mt19937 rng(11);
  std::uniform_int_distribution<std::uint32_t> word;
  std::uniform_int_distribution<int> len(16, 28);
  std::vector<Prefix> prefixes;
  for (int i = 0; i < 1000; ++i) {
    prefixes.push_back(Prefix::of(IPAddress(IPv4Address(0x14000000u | (word(rng) & 0xFFFFFF))),
                                  static_cast<unsigned>(len(rng))));
  }
  for (auto _ : state) {
    PrefixSet set;
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      if (i % 5 == 4) {
        set.subtract(prefixes[i]);
      } else {
        set.add(prefixes[i]);
      }
    }
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(prefixes.size()));
}
BENCHMARK(BM_PrefixSetAddSubtract);

void BM_FlatLpmLookup(benchmark::State& state) {
  FlatLpm4<std::uint32_t> flat;
  for (const auto& org : spbench::universe().orgs()) {
    for (const auto& prefix : org.v4_prefixes) flat.insert(prefix, org.v4_asn);
  }
  std::mt19937 rng(12);
  std::uniform_int_distribution<std::uint32_t> word;
  for (auto _ : state) {
    benchmark::DoNotOptimize(flat.lookup(IPv4Address(word(rng))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatLpmLookup);

void BM_HappyEyeballsRace(benchmark::State& state) {
  const std::vector<he::Endpoint> v6 = {
      {IPAddress::must_parse("2620:100::1"), 40.0, false, he::FailureMode::Silent},
      {IPAddress::must_parse("2620:100::2"), 35.0, true, he::FailureMode::Silent}};
  const std::vector<he::Endpoint> v4 = {
      {IPAddress::must_parse("20.1.0.1"), 25.0, true, he::FailureMode::Silent}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(he::race(v6, v4));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HappyEyeballsRace);

}  // namespace

BENCHMARK_MAIN();
