// Ablation: seed robustness of the reproduction.
//
// Every figure bench runs on seed 42. If the paper's shapes only appeared
// under one seed the reproduction would be an artifact of the generator,
// not of the pipeline. This bench regenerates the headline metrics under
// several independent seeds and shows they are stable.
#include "bench_common.h"

#include "core/sptuner.h"
#include "synth/universe.h"

int main() {
  using namespace spbench;
  header("Ablation", "seed robustness of the headline metrics");

  sp::analysis::TextTable table({"seed", "pairs", "default perfect", "tuned /28-/96 perfect",
                                 "same-org share", "SP-Tuner lift (pp)"});
  double min_lift = 1.0;
  for (const std::uint64_t seed : {42ull, 7ull, 1234ull, 987654321ull}) {
    sp::synth::SynthConfig config;
    config.seed = seed;
    config.organization_count = 1200;  // smaller per-seed universes
    config.months = 13;
    config.monitoring_v4_prefixes = 30;
    config.monitoring_v6_prefixes = 12;
    const sp::synth::SyntheticInternet universe(config);
    const auto corpus = sp::core::DualStackCorpus::build(
        universe.snapshot_at(universe.month_count() - 1), universe.rib());
    const auto pairs = sp::core::detect_sibling_prefixes(corpus);
    const sp::core::SpTunerMs tuner(corpus, {.v4_threshold = 28, .v6_threshold = 96});
    const auto tuned = tuner.tune_all(pairs, 0);

    std::size_t same = 0;
    std::size_t classified = 0;
    for (const auto& pair : pairs) {
      const auto v4_route = universe.rib().lookup(pair.v4);
      const auto v6_route = universe.rib().lookup(pair.v6);
      if (!v4_route || !v6_route) continue;
      ++classified;
      if (universe.as_orgs().same_org(v4_route->origin_as, v6_route->origin_as)) ++same;
    }

    const double default_perfect = perfect_share(pairs);
    const double tuned_perfect = perfect_share(tuned.pairs);
    min_lift = std::min(min_lift, tuned_perfect - default_perfect);
    table.add_row({std::to_string(seed), std::to_string(pairs.size()), pct(default_perfect),
                   pct(tuned_perfect),
                   pct(static_cast<double>(same) / static_cast<double>(classified)),
                   num((tuned_perfect - default_perfect) * 100.0, 1)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper:    SP-Tuner lift 52%% -> 82%% (+30pp); >half of pairs same-org\n");
  std::printf("measured: lift is at least %.1fpp under every seed — the shape is a\n"
              "property of the pipeline, not of one random draw.\n",
              min_lift * 100.0);
  return 0;
}
