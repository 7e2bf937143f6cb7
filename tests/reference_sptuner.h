// The item-copying SP-Tuner-MS, kept as a test-only oracle for
// SpTunerMs::tune_pair the way reference_corpus.h serves the corpus build.
//
// ReferenceSpTuner runs Algorithm 1 the straightforward way: every side
// holds a copy of its hosts (address plus domain row), every refinement
// step copies both sides' children and rebuilds each option's domain
// union by concatenating and sorting, and sides descend one prefix bit
// per step. The library scores a step with one counting pass over row
// indexes and jumps single-child chains instead;
// core_sptuner_reference_test asserts the two agree bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/corpus.h"
#include "core/detect.h"
#include "core/domain_set.h"
#include "core/similarity.h"
#include "core/sptuner.h"

namespace sp::testsupport {

class ReferenceSpTuner {
 public:
  ReferenceSpTuner(const core::DualStackCorpus& corpus, core::SpTunerConfig config)
      : corpus_(&corpus), config_(config) {}

  [[nodiscard]] std::vector<core::SiblingPair> tune_pair(const core::SiblingPair& pair) const {
    std::vector<core::SiblingPair> results;

    const auto to_items = [](const core::HostRange& hosts) {
      std::vector<Item> items;
      items.reserve(hosts.size());
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        items.push_back({hosts.address(i), hosts.domains(i)});
      }
      return items;
    };

    std::vector<Task> work;
    work.push_back(Task{{pair.v4, to_items(corpus_->hosts_of(pair.v4))},
                        {pair.v6, to_items(corpus_->hosts_of(pair.v6))}});

    while (!work.empty()) {
      Task task = std::move(work.back());
      work.pop_back();

      core::DomainSet d4 = domains_of(task.v4.items);
      core::DomainSet d6 = domains_of(task.v6.items);
      double current = core::similarity_from_sizes(
          core::Metric::Jaccard, core::intersection_size(d4, d6), d4.size(), d6.size());
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

        std::vector<core::DomainSet> unions6;
        unions6.reserve(options6.size());
        for (const Side& c6 : options6) unions6.push_back(domains_of(c6.items));

        const Side* best4 = nullptr;
        const Side* best6 = nullptr;
        double best_value = 0.0;
        unsigned best_depth = 0;
        for (const Side& c4 : options4) {
          const core::DomainSet cd4 = domains_of(c4.items);
          for (std::size_t j = 0; j < options6.size(); ++j) {
            const Side& c6 = options6[j];
            if (c4.prefix == task.v4.prefix && c6.prefix == task.v6.prefix) continue;
            const core::DomainSet& cd6 = unions6[j];
            const double value = core::similarity_from_sizes(
                core::Metric::Jaccard, core::intersection_size(cd4, cd6), cd4.size(), cd6.size());
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
        // Only move while the refinement is at least as good.
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
          const Prefix sibling = chosen.prefix == parent.prefix.child(0) ? parent.prefix.child(1)
                                                                         : parent.prefix.child(0);
          lost.prefix = sibling;
          const core::DomainSet lost_domains = domains_of(lost.items);
          Side other{counterpart.prefix, {}};
          for (const Item& item : counterpart.items) {
            if (core::intersection_size(item.domains, lost_domains) > 0) {
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
      core::SiblingPair out;
      out.v4 = task.v4.prefix;
      out.v6 = task.v6.prefix;
      out.shared_domains = static_cast<std::uint32_t>(core::intersection_size(d4, d6));
      out.v4_domain_count = static_cast<std::uint32_t>(d4.size());
      out.v6_domain_count = static_cast<std::uint32_t>(d6.size());
      out.similarity = core::similarity_from_sizes(core::Metric::Jaccard, out.shared_domains,
                                                   d4.size(), d6.size());
      results.push_back(out);
    }

    std::sort(results.begin(), results.end());
    results.erase(std::unique(results.begin(), results.end()), results.end());
    return results;
  }

  /// Serial tune_all with the library's merge: per-pair outputs in input
  /// order, then sorted and deduplicated by prefix pair.
  [[nodiscard]] core::SpTunerResult tune_all(std::span<const core::SiblingPair> pairs) const {
    core::SpTunerResult result;
    result.input_count = pairs.size();
    for (const core::SiblingPair& pair : pairs) {
      const std::vector<core::SiblingPair> tuned = tune_pair(pair);
      const bool unchanged =
          tuned.size() == 1 && tuned.front().v4 == pair.v4 && tuned.front().v6 == pair.v6;
      if (!unchanged) ++result.changed_count;
      result.pairs.insert(result.pairs.end(), tuned.begin(), tuned.end());
    }
    std::sort(result.pairs.begin(), result.pairs.end());
    result.pairs.erase(std::unique(result.pairs.begin(), result.pairs.end()),
                       result.pairs.end());
    return result;
  }

 private:
  static constexpr double kEpsilon = 1e-12;

  /// One populated host: its address and its row of the host→domains CSR.
  struct Item {
    IPAddress host;
    core::DomainSpan domains;
  };
  struct Side {
    Prefix prefix;
    std::vector<Item> items;
  };
  struct Task {
    Side v4;
    Side v6;
  };

  [[nodiscard]] static core::DomainSet domains_of(std::span<const Item> items) {
    core::DomainSet out;
    for (const Item& item : items) out.insert(out.end(), item.domains.begin(), item.domains.end());
    core::normalize(out);
    return out;
  }

  [[nodiscard]] static bool can_descend(const Side& side, unsigned threshold) {
    return side.prefix.length() < std::min(threshold, side.prefix.max_length());
  }

  /// Child sides with non-empty item partitions (0, 1 or 2 entries).
  [[nodiscard]] static std::vector<Side> children_of(const Side& side) {
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

  const core::DualStackCorpus* corpus_;
  core::SpTunerConfig config_;
};

}  // namespace sp::testsupport
