// Rolling detection at campaign shape: the stream engine chained across
// synthetic months vs a from-scratch exact run per month.
//
// Month 0 initializes a StreamDetector; every later month is applied as
// a CorpusDelta against the previous month's corpus. After each month
// the incremental pair list is memcmp-compared (prefixes, bit-level
// similarity doubles, counts) against core::detect_sibling_prefixes over
// that month's corpus — the stream engine's byte-identity contract,
// exercised end-to-end on synth data. tier1.sh runs this as the stream
// smoke, and with --scale 2 (replicated CDN edges) as the exact-engine
// scale smoke.
//
// A whole month's delta dirties most sources, so its apply re-scans
// everything. Before it, a few of the month's PrefixDeltas are applied
// one at a time: each dirties a few sources, so the dirty-set re-scan
// and the sorted-list merge run, and after each the pairs are compared
// with the serial oracle (core::detail::detect_over) over the detector's
// own index. The run fails if no slice took that incremental path. The
// slices and the oracle runs are left out of the printed timings.
//
// Run: ./build/examples/sp_stream_smoke [--months N] [--threads T]
//      [--orgs N] [--scale N] [--quiet]
//
// Exit code 0 when every month matched, 1 on a mismatch, 2 on usage.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/corpus_delta.h"
#include "core/detect.h"
#include "stream/stream_detector.h"
#include "synth/universe.h"

using namespace sp;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Byte-level pair list comparison; prints the first divergence.
bool identical(const std::vector<core::SiblingPair>& stream,
               const std::vector<core::SiblingPair>& exact, int month) {
  if (stream.size() != exact.size()) {
    std::fprintf(stderr, "MISMATCH month %d: %zu stream pairs vs %zu exact pairs\n", month,
                 stream.size(), exact.size());
    return false;
  }
  for (std::size_t i = 0; i < exact.size(); ++i) {
    if (stream[i].v4 != exact[i].v4 || stream[i].v6 != exact[i].v6 ||
        std::memcmp(&stream[i].similarity, &exact[i].similarity, sizeof(double)) != 0 ||
        stream[i].shared_domains != exact[i].shared_domains ||
        stream[i].v4_domain_count != exact[i].v4_domain_count ||
        stream[i].v6_domain_count != exact[i].v6_domain_count) {
      std::fprintf(stderr, "MISMATCH month %d at pair %zu\n", month, i);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  synth::SynthConfig config;
  config.months = 6;
  stream::StreamOptions options;
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
    if (arg == "--months") {
      config.months = next();
    } else if (arg == "--threads") {
      options.threads = static_cast<unsigned>(next());
    } else if (arg == "--orgs") {
      config.organization_count = next();
    } else if (arg == "--scale") {
      config.scale = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--months N] [--threads T] [--orgs N] [--scale N]"
                   " [--quiet]\n",
                   argv[0]);
      return 2;
    }
  }

  auto start = std::chrono::steady_clock::now();
  const synth::SyntheticInternet universe(config);
  if (!quiet) {
    std::printf("universe: %d months, %zu orgs (%.0f ms to build)\n", universe.month_count(),
                universe.orgs().size(), ms_since(start));
  }

  stream::StreamDetector detector(options);
  double stream_total_ms = 0.0;
  double exact_total_ms = 0.0;
  std::size_t slices_total = 0;
  std::size_t incremental_total = 0;
  for (int month = 0; month < universe.month_count(); ++month) {
    const auto corpus =
        core::DualStackCorpus::build(universe.snapshot_at(month), universe.rib());

    // Single-prefix slices of the month's delta, checked one at a time:
    // the first and the middle entry of each side.
    std::size_t slices = 0;
    std::size_t incremental = 0;
    std::size_t slice_dirty_max = 0;
    if (month > 0) {
      const auto delta = core::CorpusDelta::between(detector.index(), corpus.detect_index());
      for (const Family family : {Family::v4, Family::v6}) {
        const auto& entries = delta.side(family);
        for (std::size_t i = 0; i < std::min<std::size_t>(2, entries.size()); ++i) {
          core::CorpusDelta slice;
          (family == Family::v4 ? slice.v4 : slice.v6).push_back(entries[i * entries.size() / 2]);
          detector.apply(slice);
          ++slices;
          const stream::StreamApplyStats& stats = detector.last_stats();
          if (!stats.full_rescan) ++incremental;
          slice_dirty_max = std::max(slice_dirty_max, stats.dirty_v4 + stats.dirty_v6);
          const auto oracle =
              core::detail::detect_over(detector.index(), {.metric = options.metric});
          if (!identical(detector.pairs(), oracle, month)) return 1;
        }
      }
    }
    slices_total += slices;
    incremental_total += incremental;

    start = std::chrono::steady_clock::now();
    if (month == 0) {
      detector.init(corpus.detect_index());
    } else {
      detector.apply(core::CorpusDelta::between(detector.index(), corpus.detect_index()));
    }
    const double stream_ms = ms_since(start);
    stream_total_ms += stream_ms;

    start = std::chrono::steady_clock::now();
    const auto exact = core::detect_sibling_prefixes(corpus, {.threads = options.threads});
    const double exact_ms = ms_since(start);
    exact_total_ms += exact_ms;

    if (!identical(detector.pairs(), exact, month)) return 1;
    if (!quiet) {
      const stream::StreamApplyStats& stats = detector.last_stats();
      std::printf("month %d: %zu pairs, %zu/%zu dirty sources%s, "
                  "stream %.0f ms vs exact %.0f ms; %zu slices, %zu incremental, "
                  "<= %zu dirty\n",
                  month, detector.pairs().size(), stats.dirty_v4 + stats.dirty_v6,
                  stats.sources_total,
                  stats.full_rescan ? " (full)" : "",
                  stream_ms, exact_ms, slices, incremental, slice_dirty_max);
    }
  }
  if (slices_total > 0 && incremental_total == 0) {
    std::fprintf(stderr, "no single-prefix slice took the incremental path\n");
    return 1;
  }
  if (!quiet) {
    std::printf("identity: every month byte-identical; stream %.0f ms vs exact %.0f ms "
                "(%.1fx)\n",
                stream_total_ms, exact_total_ms,
                stream_total_ms > 0.0 ? exact_total_ms / stream_total_ms : 0.0);
  }
  return 0;
}
