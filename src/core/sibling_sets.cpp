#include "core/sibling_sets.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace sp::core {

namespace {

/// Plain union-find over pair indexes.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void merge(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<SiblingSetPair> build_sibling_sets(const DualStackCorpus& corpus,
                                               std::span<const SiblingPair> pairs) {
  DisjointSets sets(pairs.size());
  std::unordered_map<Prefix, std::size_t> first_seen;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (const Prefix& prefix : {pairs[i].v4, pairs[i].v6}) {
      const auto [it, inserted] = first_seen.try_emplace(prefix, i);
      if (!inserted) sets.merge(i, it->second);
    }
  }

  std::unordered_map<std::size_t, SiblingSetPair> components;
  std::unordered_map<std::size_t, std::pair<DomainSet, DomainSet>> component_domains;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::size_t root = sets.find(i);
    SiblingSetPair& component = components[root];
    component.v4_prefixes.push_back(pairs[i].v4);
    component.v6_prefixes.push_back(pairs[i].v6);
    ++component.member_pairs;
  }

  std::vector<SiblingSetPair> out;
  out.reserve(components.size());
  for (auto& [root, component] : components) {
    for (auto* prefixes : {&component.v4_prefixes, &component.v6_prefixes}) {
      std::sort(prefixes->begin(), prefixes->end());
      prefixes->erase(std::unique(prefixes->begin(), prefixes->end()), prefixes->end());
    }
    DomainSet d4;
    for (const Prefix& prefix : component.v4_prefixes) {
      const DomainSpan domains = corpus.domains_of(prefix);
      d4.insert(d4.end(), domains.begin(), domains.end());
    }
    DomainSet d6;
    for (const Prefix& prefix : component.v6_prefixes) {
      const DomainSpan domains = corpus.domains_of(prefix);
      d6.insert(d6.end(), domains.begin(), domains.end());
    }
    normalize(d4);
    normalize(d6);
    component.similarity = jaccard(d4, d6);
    component.domain_count = set_union(d4, d6).size();
    out.push_back(std::move(component));
  }

  std::sort(out.begin(), out.end(), [](const SiblingSetPair& a, const SiblingSetPair& b) {
    if (a.member_pairs != b.member_pairs) return a.member_pairs > b.member_pairs;
    return a.v4_prefixes < b.v4_prefixes;
  });
  return out;
}

}  // namespace sp::core
