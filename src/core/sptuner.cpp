#include "core/sptuner.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <numeric>

#include "core/worker_pool.h"

namespace sp::core {

namespace {

constexpr double kEpsilon = 1e-12;

/// Mask bits of a counting pass: which option rows serve a domain. A side
/// that cannot descend marks all its rows with its low bit.
constexpr std::uint8_t kLow4 = 1;
constexpr std::uint8_t kHigh4 = 2;
constexpr std::uint8_t kLow6 = 4;
constexpr std::uint8_t kHigh6 = 8;

/// Domain counts of one (v4 option, v6 option) combination.
struct Sizes {
  std::uint32_t shared = 0;
  std::uint32_t v4 = 0;
  std::uint32_t v6 = 0;

  [[nodiscard]] double jaccard() const noexcept {
    return similarity_from_sizes(Metric::Jaccard, shared, v4, v6);
  }
};

/// Number of leading bits `a` and `b` (same family) agree on, a byte at a
/// time: Prefix::common_covering's bit walk made tune_all ~1.6× slower.
unsigned common_prefix_length(const IPAddress& a, const IPAddress& b) noexcept {
  const auto& x = a.storage();
  const auto& y = b.storage();
  const unsigned bits = a.max_prefix_length();
  for (unsigned byte = 0; byte * 8 < bits; ++byte) {
    if (const auto diff = static_cast<std::uint8_t>(x[byte] ^ y[byte]); diff != 0) {
      return byte * 8 + static_cast<unsigned>(std::countl_zero(diff));
    }
  }
  return bits;
}

/// A side of a task: its prefix and ascending row indexes into the pair's
/// HostRange of that family.
struct Side {
  Prefix prefix;
  std::vector<std::uint32_t> rows;
};

struct Task {
  Side v4;
  Side v6;
};

/// A side during refinement: a view of its task's rows that narrows as
/// the side descends.
struct Cursor {
  const HostRange* hosts;
  Prefix prefix;
  std::span<const std::uint32_t> rows;
  unsigned limit;  // deepest length: min(threshold, family width)

  [[nodiscard]] bool can_descend() const noexcept { return prefix.length() < limit; }

  /// rows[0, split()) lie in the low child; all of them when the side
  /// cannot descend.
  [[nodiscard]] std::size_t split() const {
    if (!can_descend()) return rows.size();
    const unsigned bit = prefix.length();
    return static_cast<std::size_t>(
        std::partition_point(rows.begin(), rows.end(),
                             [&](std::uint32_t row) { return !hosts->address(row).bit(bit); }) -
        rows.begin());
  }

  /// Levels a descending side drops before it reaches its limit or its
  /// rows split between two children: 0 when they split now.
  [[nodiscard]] unsigned chain_length() const {
    const unsigned common =
        common_prefix_length(hosts->address(rows.front()), hosts->address(rows.back()));
    return std::min(limit, common) - prefix.length();
  }

  void descend(unsigned levels) {
    prefix = Prefix::of(hosts->address(rows.front()), prefix.length() + levels);
  }
};

/// One refinement option of a side: the side itself or a populated child.
struct Option {
  Prefix prefix;
  std::uint8_t bits = 0;  // mask bits of the option's rows
  std::span<const std::uint32_t> rows;
};

/// The side's options in Algorithm 1's order: itself, then its populated
/// low and high child when it can descend. Returns the option count.
std::size_t options_of(const Cursor& side, std::size_t split, std::uint8_t low,
                       std::uint8_t high, std::array<Option, 3>& out) {
  std::size_t count = 0;
  out[count++] = {side.prefix, static_cast<std::uint8_t>(low | high), side.rows};
  if (!side.can_descend()) return count;
  if (split > 0) out[count++] = {side.prefix.child(0), low, side.rows.first(split)};
  if (split < side.rows.size()) {
    out[count++] = {side.prefix.child(1), high, side.rows.subspan(split)};
  }
  return count;
}

SiblingPair make_pair(const Prefix& v4, const Prefix& v6, const Sizes& sizes) {
  SiblingPair pair;
  pair.v4 = v4;
  pair.v6 = v6;
  pair.shared_domains = sizes.shared;
  pair.v4_domain_count = sizes.v4;
  pair.v6_domain_count = sizes.v6;
  pair.similarity = sizes.jaccard();
  return pair;
}

SiblingPair make_pair(const Prefix& v4, const Prefix& v6, const DomainSet& d4,
                      const DomainSet& d6) {
  return make_pair(v4, v6,
                   {static_cast<std::uint32_t>(intersection_size(d4, d6)),
                    static_cast<std::uint32_t>(d4.size()), static_cast<std::uint32_t>(d6.size())});
}

}  // namespace

/// One mask byte per domain id plus the ids touched since the last clear:
/// a pass costs the rows it reads, never the id space.
struct SpTunerMs::Scratch {
  explicit Scratch(std::size_t domains) : mask(domains, 0) {}

  void mark(const Cursor& side, std::span<const std::uint32_t> rows, std::uint8_t bit) {
    for (const std::uint32_t row : rows) {
      for (const DomainId id : side.hosts->domains(row)) {
        if (mask[id] == 0) touched.push_back(id);
        mask[id] |= bit;
      }
    }
  }

  /// True when a domain of `row` carries one of `bits`.
  [[nodiscard]] bool marked(const Cursor& side, std::uint32_t row, std::uint8_t bits) const {
    for (const DomainId id : side.hosts->domains(row)) {
      if ((mask[id] & bits) != 0) return true;
    }
    return false;
  }

  /// Folds the marks into `histogram` (count per mask value) and clears
  /// them.
  void tally(std::array<std::uint32_t, 16>& histogram) {
    histogram.fill(0);
    for (const DomainId id : touched) {
      ++histogram[mask[id]];
      mask[id] = 0;
    }
    touched.clear();
  }

  void clear() {
    for (const DomainId id : touched) mask[id] = 0;
    touched.clear();
  }

  std::vector<std::uint8_t> mask;
  std::vector<DomainId> touched;
};

SpTunerMs::SpTunerMs(const DualStackCorpus& corpus, SpTunerConfig config)
    : corpus_(&corpus), config_(config) {}

std::vector<SiblingPair> SpTunerMs::tune_pair(const SiblingPair& pair) const {
  Scratch scratch(corpus_->ds_domain_count());
  return tune_pair(pair, scratch);
}

std::vector<SiblingPair> SpTunerMs::tune_pair(const SiblingPair& pair, Scratch& scratch) const {
  const HostRange hosts4 = corpus_->hosts_of(pair.v4);
  const HostRange hosts6 = corpus_->hosts_of(pair.v6);
  const auto all_rows = [](const HostRange& hosts) {
    std::vector<std::uint32_t> rows(hosts.size());
    std::iota(rows.begin(), rows.end(), 0u);
    return rows;
  };

  std::vector<SiblingPair> results;
  std::vector<Task> work;
  work.push_back(Task{{pair.v4, all_rows(hosts4)}, {pair.v6, all_rows(hosts6)}});

  while (!work.empty()) {
    const Task task = std::move(work.back());
    work.pop_back();
    Cursor v4{&hosts4, task.v4.prefix, task.v4.rows,
              std::min(config_.v4_threshold, task.v4.prefix.max_length())};
    Cursor v6{&hosts6, task.v6.prefix, task.v6.rows,
              std::min(config_.v6_threshold, task.v6.prefix.max_length())};

    // One counting pass over both sides: the mask histogram of the current
    // sides split at their next bit. `counted` says it is still current.
    std::array<std::uint32_t, 16> histogram{};
    std::size_t split4 = 0;
    std::size_t split6 = 0;
    const auto count = [&] {
      split4 = v4.split();
      split6 = v6.split();
      scratch.mark(v4, v4.rows.first(split4), kLow4);
      scratch.mark(v4, v4.rows.subspan(split4), kHigh4);
      scratch.mark(v6, v6.rows.first(split6), kLow6);
      scratch.mark(v6, v6.rows.subspan(split6), kHigh6);
      scratch.tally(histogram);
    };
    const auto sizes_of = [&histogram](std::uint8_t bits4, std::uint8_t bits6) {
      Sizes sizes;
      for (unsigned mask = 1; mask < histogram.size(); ++mask) {
        const bool in4 = (mask & bits4) != 0;
        const bool in6 = (mask & bits6) != 0;
        if (in4) sizes.v4 += histogram[mask];
        if (in6) sizes.v6 += histogram[mask];
        if (in4 && in6) sizes.shared += histogram[mask];
      }
      return sizes;
    };

    count();
    bool counted = true;
    Sizes sizes = sizes_of(kLow4 | kHigh4, kLow6 | kHigh6);
    double current = sizes.jaccard();
    if (current <= 0.0) continue;  // pairs with similarity 0 are discarded

    while (true) {
      const bool descend4 = v4.can_descend();
      const bool descend6 = v6.can_descend();
      if (!descend4 && !descend6) break;

      // A run of chain steps: every descending side drops together, with
      // the current unions and value (see sptuner.h).
      const unsigned jump = std::min(descend4 ? v4.chain_length() : ~0u,
                                     descend6 ? v6.chain_length() : ~0u);
      if (jump > 0) {
        if (descend4) v4.descend(jump);
        if (descend6) v6.descend(jump);
        counted = false;
        continue;
      }

      if (!counted) count();
      std::array<Option, 3> options4;
      std::array<Option, 3> options6;
      const std::size_t count4 = options_of(v4, split4, kLow4, kHigh4, options4);
      const std::size_t count6 = options_of(v6, split6, kLow6, kHigh6, options6);

      const Option* best4 = nullptr;
      const Option* best6 = nullptr;
      Sizes best_sizes;
      double best_value = 0.0;
      unsigned best_depth = 0;
      for (std::size_t i = 0; i < count4; ++i) {
        for (std::size_t j = 0; j < count6; ++j) {
          if (i == 0 && j == 0) continue;  // the current pair
          const Sizes candidate = sizes_of(options4[i].bits, options6[j].bits);
          const double value = candidate.jaccard();
          const unsigned depth = options4[i].prefix.length() + options6[j].prefix.length();
          if (best4 == nullptr || value > best_value + kEpsilon ||
              (value + kEpsilon >= best_value && depth > best_depth)) {
            best4 = &options4[i];
            best6 = &options6[j];
            best_sizes = candidate;
            best_value = value;
            best_depth = depth;
          }
        }
      }
      // Only move while the refinement is at least as good (Algorithm 1's
      // loop condition), so tuning never worsens similarity.
      if (best4 == nullptr || best_value + kEpsilon < current) break;

      // Branch tracking: hosts on the sibling branch of a taken child are
      // re-queued with the counterpart hosts serving the same domains.
      const auto queue_branch = [&](const Cursor& parent, std::size_t split,
                                    const Option& chosen, const Cursor& counterpart,
                                    bool branch_is_v4) {
        if (chosen.prefix == parent.prefix) return;
        const bool took_low = chosen.prefix == parent.prefix.child(0);
        const std::span<const std::uint32_t> lost =
            took_low ? parent.rows.subspan(split) : parent.rows.first(split);
        if (lost.empty()) return;
        scratch.mark(parent, lost, 1);
        Side other{counterpart.prefix, {}};
        for (const std::uint32_t row : counterpart.rows) {
          if (scratch.marked(counterpart, row, 1)) other.rows.push_back(row);
        }
        scratch.clear();
        if (other.rows.empty()) return;
        Side branch{parent.prefix.child(took_low ? 1 : 0), {lost.begin(), lost.end()}};
        work.push_back(branch_is_v4 ? Task{std::move(branch), std::move(other)}
                                    : Task{std::move(other), std::move(branch)});
      };
      queue_branch(v4, split4, *best4, v6, /*branch_is_v4=*/true);
      queue_branch(v6, split6, *best6, v4, /*branch_is_v4=*/false);

      v4.prefix = best4->prefix;
      v4.rows = best4->rows;
      v6.prefix = best6->prefix;
      v6.rows = best6->rows;
      sizes = best_sizes;
      current = best_value;
      counted = false;
    }

    results.push_back(make_pair(v4.prefix, v6.prefix, sizes));
  }

  std::sort(results.begin(), results.end());
  results.erase(std::unique(results.begin(), results.end()), results.end());
  return results;
}

SpTunerResult SpTunerMs::tune_all(std::span<const SiblingPair> pairs, unsigned threads) const {
  // Each pair is tuned independently into its own slot: workers pull
  // indexes from a shared counter, so no locking is needed beyond the
  // counter, and the merge below is the same for every thread count.
  std::vector<std::vector<SiblingPair>> outputs(pairs.size());
  std::atomic<std::size_t> next{0};
  WorkerPool(threads).run([this, pairs, &outputs, &next](unsigned) {
    Scratch scratch(corpus_->ds_domain_count());
    for (;;) {
      // sp-lint: atomics-ok(work-stealing index cursor; claims need no
      // ordering, only uniqueness — the pool join publishes results)
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= pairs.size()) return;
      outputs[index] = tune_pair(pairs[index], scratch);
    }
  });

  SpTunerResult result;
  result.input_count = pairs.size();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const bool unchanged = outputs[i].size() == 1 && outputs[i].front().v4 == pairs[i].v4 &&
                           outputs[i].front().v6 == pairs[i].v6;
    if (!unchanged) ++result.changed_count;
    result.pairs.insert(result.pairs.end(), outputs[i].begin(), outputs[i].end());
  }
  std::sort(result.pairs.begin(), result.pairs.end());
  result.pairs.erase(std::unique(result.pairs.begin(), result.pairs.end()),
                     result.pairs.end());
  return result;
}

SpTunerLs::SpTunerLs(const DualStackCorpus& corpus, const bgp::Rib& rib,
                     SpTunerLsConfig config)
    : corpus_(&corpus), rib_(&rib), config_(config) {}

SiblingPair SpTunerLs::tune_pair(const SiblingPair& pair) const {
  const auto original_origin = [this](const Prefix& prefix) -> std::uint32_t {
    const auto route = rib_->lookup(prefix);
    return route ? route->origin_as : 0;
  };
  const std::uint32_t origin4 = original_origin(pair.v4);
  const std::uint32_t origin6 = original_origin(pair.v6);

  // Candidate covering prefixes per side, stopping at an origin-AS change
  // (IsASnumChange in Algorithm 2) or the level bound.
  const auto candidates = [&](const Prefix& start, unsigned levels,
                              std::uint32_t origin) {
    std::vector<Prefix> out{start};
    Prefix current = start;
    for (unsigned level = 0; level < levels; ++level) {
      const auto up = current.supernet();
      if (!up) break;
      current = *up;
      const auto route = rib_->lookup(current);
      if (!route || route->origin_as != origin) break;
      out.push_back(current);
    }
    return out;
  };

  SiblingPair best = pair;
  // The v6 covering unions are loop-invariant in p4: materialize them once
  // instead of once per (p4, p6) combination.
  const std::vector<Prefix> options6 = candidates(pair.v6, config_.v6_levels_up, origin6);
  std::vector<DomainSet> unions6;
  unions6.reserve(options6.size());
  for (const Prefix& p6 : options6) unions6.push_back(corpus_->domains_within(p6));

  for (const Prefix& p4 : candidates(pair.v4, config_.v4_levels_up, origin4)) {
    const DomainSet d4 = corpus_->domains_within(p4);
    for (std::size_t j = 0; j < options6.size(); ++j) {
      const Prefix& p6 = options6[j];
      if (p4 == pair.v4 && p6 == pair.v6) continue;
      const SiblingPair candidate = make_pair(p4, p6, d4, unions6[j]);
      if (candidate.similarity > best.similarity + kEpsilon) best = candidate;
    }
  }
  return best;
}

SpTunerResult SpTunerLs::tune_all(std::span<const SiblingPair> pairs) const {
  SpTunerResult result;
  result.input_count = pairs.size();
  for (const SiblingPair& pair : pairs) {
    const SiblingPair tuned = tune_pair(pair);
    if (tuned.v4 != pair.v4 || tuned.v6 != pair.v6) ++result.changed_count;
    result.pairs.push_back(tuned);
  }
  std::sort(result.pairs.begin(), result.pairs.end());
  result.pairs.erase(std::unique(result.pairs.begin(), result.pairs.end()),
                     result.pairs.end());
  return result;
}

}  // namespace sp::core
