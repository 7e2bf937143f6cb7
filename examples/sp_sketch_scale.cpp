// Detection at scale: the sketch engine vs the exact engine on a scaled
// synthetic universe.
//
// The synth `scale` knob multiplies domain and monitoring-site counts and
// switches hypergiant CDNs to replicated edge deployments — the regime
// the paper's full-universe runs live in, where the exact engine's
// candidate sets explode. The sketch engine (bottom-k signatures + LSH
// banding, sp::sketch) prunes candidates while provably reproducing the
// exact output byte for byte.
//
// Run: ./build/examples/sp_sketch_scale [--scale N] [--threads T]
//      [--orgs N] [--months N] [--skip-exact] [--quiet]
//
// Exit code 0 when the sketch and exact pair lists are identical (or
// --skip-exact was given), 1 on a mismatch — which makes this binary the
// tier-1 scale smoke check.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/detect.h"
#include "sketch/detect_sketch.h"
#include "synth/universe.h"

using namespace sp;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  synth::SynthConfig config;
  unsigned threads = 1;
  bool run_exact = true;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> int {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return std::atoi(argv[++i]);
    };
    if (arg == "--scale") {
      config.scale = next();
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(next());
    } else if (arg == "--orgs") {
      config.organization_count = next();
    } else if (arg == "--months") {
      config.months = next();
    } else if (arg == "--skip-exact") {
      run_exact = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scale N] [--threads T] [--orgs N] [--months N]"
                   " [--skip-exact] [--quiet]\n",
                   argv[0]);
      return 2;
    }
  }

  auto start = std::chrono::steady_clock::now();
  const synth::SyntheticInternet universe(config);
  const auto snapshot = universe.snapshot_at(universe.month_count() - 1);
  const auto corpus = core::DualStackCorpus::build(snapshot, universe.rib());
  const double build_ms = ms_since(start);
  if (!quiet) {
    std::printf("universe: scale %d, %zu orgs, %zu domains (%.0f ms to build)\n",
                config.scale, universe.orgs().size(), universe.domains().size(), build_ms);
  }

  start = std::chrono::steady_clock::now();
  core::DetectStats stats;
  const auto sketched =
      sketch::detect_sibling_prefixes(corpus, {.threads = threads, .stats = &stats});
  const double sketch_ms = ms_since(start);
  if (!quiet) {
    std::printf("sketch:   %zu pairs in %.0f ms (%.0f ms signatures, "
                "%llu/%llu sources fell back, %llu LSH candidates, "
                "%llu estimates skipped, %llu survivors verified)\n",
                sketched.size(), sketch_ms, stats.signature_build_ms,
                static_cast<unsigned long long>(stats.sources_fallback),
                static_cast<unsigned long long>(stats.prefixes_scanned),
                static_cast<unsigned long long>(stats.lsh_candidates),
                static_cast<unsigned long long>(stats.estimates_skipped),
                static_cast<unsigned long long>(stats.survivors_verified));
    std::printf("          directions %.0f + %.0f ms, merge %.0f ms\n",
                stats.v4_direction_ms, stats.v6_direction_ms, stats.merge_ms);
  }

  if (!run_exact) return 0;

  start = std::chrono::steady_clock::now();
  core::DetectStats exact_stats;
  const auto exact =
      core::detect_sibling_prefixes(corpus, {.threads = threads, .stats = &exact_stats});
  const double exact_ms = ms_since(start);
  if (!quiet) {
    std::printf("exact:    %zu pairs in %.0f ms (%llu candidates evaluated) — "
                "sketch speedup %.1fx\n",
                exact.size(), exact_ms,
                static_cast<unsigned long long>(exact_stats.candidates_evaluated),
                sketch_ms > 0.0 ? exact_ms / sketch_ms : 0.0);
  }

  if (sketched.size() != exact.size()) {
    std::fprintf(stderr, "MISMATCH: %zu sketch pairs vs %zu exact pairs\n", sketched.size(),
                 exact.size());
    return 1;
  }
  for (std::size_t i = 0; i < exact.size(); ++i) {
    if (sketched[i].v4 != exact[i].v4 || sketched[i].v6 != exact[i].v6 ||
        std::memcmp(&sketched[i].similarity, &exact[i].similarity, sizeof(double)) != 0) {
      std::fprintf(stderr, "MISMATCH at pair %zu\n", i);
      return 1;
    }
  }
  if (!quiet) std::printf("identity: sketch output is byte-identical to exact\n");
  return 0;
}
