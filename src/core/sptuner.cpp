#include "core/sptuner.h"

#include <algorithm>
#include <atomic>

#include "core/worker_pool.h"

namespace sp::core {

namespace {

constexpr double kEpsilon = 1e-12;

SiblingPair make_pair(const Prefix& v4, const Prefix& v6, const DomainSet& d4,
                      const DomainSet& d6) {
  SiblingPair pair;
  pair.v4 = v4;
  pair.v6 = v6;
  pair.shared_domains = static_cast<std::uint32_t>(intersection_size(d4, d6));
  pair.v4_domain_count = static_cast<std::uint32_t>(d4.size());
  pair.v6_domain_count = static_cast<std::uint32_t>(d6.size());
  pair.similarity =
      similarity_from_sizes(Metric::Jaccard, pair.shared_domains, d4.size(), d6.size());
  return pair;
}

}  // namespace

SpTunerMs::SpTunerMs(const DualStackCorpus& corpus, SpTunerConfig config)
    : corpus_(&corpus), config_(config) {}

DomainSet SpTunerMs::domains_of(std::span<const Item> items) {
  DomainSet out;
  for (const Item& item : items) {
    out.insert(out.end(), item.domains->begin(), item.domains->end());
  }
  normalize(out);
  return out;
}

std::vector<const DomainSet*> SpTunerMs::domain_pointers(std::span<const Item> items) {
  std::vector<const DomainSet*> ptrs;
  ptrs.reserve(items.size());
  for (const Item& item : items) ptrs.push_back(item.domains);
  return ptrs;
}

bool SpTunerMs::can_descend(const Side& side, unsigned threshold) const {
  return side.prefix.length() < std::min(threshold, side.prefix.max_length());
}

std::vector<SpTunerMs::Side> SpTunerMs::children_of(const Side& side) {
  std::vector<Side> children;
  Side low{side.prefix.child(0), {}};
  Side high{side.prefix.child(1), {}};
  for (const Item& item : side.items) {
    (low.prefix.contains(item.host) ? low : high).items.push_back(item);
  }
  if (!low.items.empty()) children.push_back(std::move(low));
  if (!high.items.empty()) children.push_back(std::move(high));
  return children;
}

std::vector<SiblingPair> SpTunerMs::tune_pair(const SiblingPair& pair) const {
  std::vector<SiblingPair> results;

  const auto to_items = [](const std::vector<DualStackCorpus::HostDomains>& hosts) {
    std::vector<Item> items;
    items.reserve(hosts.size());
    for (const auto& host : hosts) items.push_back({host.host, &host.domains});
    return items;
  };

  std::vector<Task> work;
  work.push_back(Task{{pair.v4, to_items(corpus_->hosts_of(pair.v4))},
                      {pair.v6, to_items(corpus_->hosts_of(pair.v6))}});

  while (!work.empty()) {
    Task task = std::move(work.back());
    work.pop_back();

    DomainSet d4 = domains_of(task.v4.items);
    DomainSet d6 = domains_of(task.v6.items);
    double current = similarity_from_sizes(Metric::Jaccard, intersection_size(d4, d6),
                                           d4.size(), d6.size());
    if (current <= 0.0) continue;  // pairs with similarity 0 are discarded

    while (true) {
      const bool descend4 = can_descend(task.v4, config_.v4_threshold);
      const bool descend6 = can_descend(task.v6, config_.v6_threshold);
      if (!descend4 && !descend6) break;

      // Candidate sides: keep the current prefix or take a populated child.
      std::vector<Side> options4{task.v4};
      if (descend4) {
        for (auto& child : children_of(task.v4)) options4.push_back(std::move(child));
      }
      std::vector<Side> options6{task.v6};
      if (descend6) {
        for (auto& child : children_of(task.v6)) options6.push_back(std::move(child));
      }

      // The v6 option unions are loop-invariant in c4, so materialize them
      // once per refinement step instead of once per (c4, c6) combination.
      std::vector<DomainSet> unions6;
      unions6.reserve(options6.size());
      for (const Side& c6 : options6) unions6.push_back(domains_of(c6.items));
      std::vector<std::vector<const DomainSet*>> ptrs6;
      if (config_.estimator != nullptr) {
        ptrs6.reserve(options6.size());
        for (const Side& c6 : options6) ptrs6.push_back(domain_pointers(c6.items));
      }

      const Side* best4 = nullptr;
      const Side* best6 = nullptr;
      double best_value = 0.0;
      unsigned best_depth = 0;
      for (const Side& c4 : options4) {
        const DomainSet cd4 = domains_of(c4.items);
        const std::vector<const DomainSet*> ptrs4 =
            config_.estimator != nullptr ? domain_pointers(c4.items)
                                         : std::vector<const DomainSet*>{};
        for (std::size_t j = 0; j < options6.size(); ++j) {
          const Side& c6 = options6[j];
          if (c4.prefix == task.v4.prefix && c6.prefix == task.v6.prefix) continue;
          // Conservative estimator filter: a combination can only be
          // skipped when even estimate + margin cannot reach the running
          // best, so an estimator honoring the margin never changes which
          // combination wins (the filter never fires while best_value is
          // still below the margin, so the first combinations always get
          // the exact evaluation).
          if (config_.estimator != nullptr &&
              config_.estimator->estimate_union_jaccard(ptrs4, ptrs6[j]) +
                      config_.estimator_margin <
                  best_value) {
            continue;
          }
          const DomainSet& cd6 = unions6[j];
          const double value = similarity_from_sizes(
              Metric::Jaccard, intersection_size(cd4, cd6), cd4.size(), cd6.size());
          const unsigned depth = c4.prefix.length() + c6.prefix.length();
          if (best4 == nullptr || value > best_value + kEpsilon ||
              (value + kEpsilon >= best_value && depth > best_depth)) {
            best4 = &c4;
            best6 = &c6;
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
      const auto queue_branch = [&](const Side& parent, const Side& chosen,
                                    const Side& counterpart, bool branch_is_v4) {
        if (chosen.prefix == parent.prefix) return;
        Side lost{parent.prefix, {}};
        for (const Item& item : parent.items) {
          if (!chosen.prefix.contains(item.host)) lost.items.push_back(item);
        }
        if (lost.items.empty()) return;
        // Narrow the lost side to the sibling child covering its hosts.
        const Prefix sibling = chosen.prefix ==
                                       parent.prefix.child(0)
                                   ? parent.prefix.child(1)
                                   : parent.prefix.child(0);
        lost.prefix = sibling;
        const DomainSet lost_domains = domains_of(lost.items);
        Side other{counterpart.prefix, {}};
        for (const Item& item : counterpart.items) {
          if (intersection_size(*item.domains, lost_domains) > 0) {
            other.items.push_back(item);
          }
        }
        if (other.items.empty()) return;
        work.push_back(branch_is_v4 ? Task{std::move(lost), std::move(other)}
                                    : Task{std::move(other), std::move(lost)});
      };
      queue_branch(task.v4, *best4, task.v6, /*branch_is_v4=*/true);
      queue_branch(task.v6, *best6, task.v4, /*branch_is_v4=*/false);

      task.v4 = *best4;
      task.v6 = *best6;
      current = best_value;
    }

    d4 = domains_of(task.v4.items);
    d6 = domains_of(task.v6.items);
    results.push_back(make_pair(task.v4.prefix, task.v6.prefix, d4, d6));
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
    for (;;) {
      // sp-lint: atomics-ok(work-stealing index cursor; claims need no
      // ordering, only uniqueness — the pool join publishes results)
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= pairs.size()) return;
      outputs[index] = tune_pair(pairs[index]);
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
    const DomainSet* d4_ptr[] = {&d4};
    for (std::size_t j = 0; j < options6.size(); ++j) {
      const Prefix& p6 = options6[j];
      if (p4 == pair.v4 && p6 == pair.v6) continue;
      const DomainSet& d6 = unions6[j];
      // Same conservative filter as SP-Tuner-MS: skip the exact pass only
      // when even estimate + margin cannot beat the incumbent.
      if (config_.estimator != nullptr) {
        const DomainSet* d6_ptr[] = {&d6};
        if (config_.estimator->estimate_union_jaccard(d4_ptr, d6_ptr) +
                config_.estimator_margin <
            best.similarity) {
          continue;
        }
      }
      const SiblingPair candidate = make_pair(p4, p6, d4, d6);
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
