#include "core/detect_index.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace sp::core {

namespace {

DetectIndex::Side build_side(const std::unordered_map<Prefix, DomainSet>& sets) {
  DetectIndex::Side side;

  // Dense ids are assigned in ascending prefix order so the index layout —
  // and therefore every downstream iteration — is independent of hash-map
  // iteration order.
  std::vector<std::pair<Prefix, const DomainSet*>> entries;
  entries.reserve(sets.size());
  for (const auto& [prefix, set] : sets) entries.emplace_back(prefix, &set);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::size_t total_elements = 0;
  for (const auto& [prefix, set] : entries) total_elements += set->size();

  // The CSR stores offsets as uint32; past that the offsets silently wrap
  // and postings scatter into the wrong lists, so refuse loudly instead.
  // Checked here (not per insert) because every reserve below is exact.
  if (total_elements > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("DetectIndex: side exceeds 2^32 set elements");
  }

  side.prefixes.reserve(entries.size());
  side.set_offsets.reserve(entries.size() + 1);
  side.set_offsets.push_back(0);
  side.set_elements.reserve(total_elements);
  for (const auto& [prefix, set] : entries) {
    side.prefixes.push_back(prefix);
    side.set_elements.insert(side.set_elements.end(), set->begin(), set->end());
    side.set_offsets.push_back(static_cast<std::uint32_t>(side.set_elements.size()));
  }

  side.build_postings();
  return side;
}

}  // namespace

void DetectIndex::Side::build_postings() {
  // One past the largest element; sets are sorted, so each row's last
  // element is its largest.
  std::size_t element_bound = 0;
  for (std::uint32_t dense = 0; dense < prefix_count(); ++dense) {
    const auto elements = elements_of(dense);
    if (!elements.empty()) {
      element_bound = std::max(element_bound, static_cast<std::size_t>(elements.back()) + 1);
    }
  }
  posting_offsets.assign(element_bound + 1, 0);
  for (const DomainId element : set_elements) ++posting_offsets[element + 1];
  std::partial_sum(posting_offsets.begin(), posting_offsets.end(), posting_offsets.begin());

  postings.resize(set_elements.size());
  std::vector<std::uint32_t> cursor(posting_offsets.begin(), posting_offsets.end() - 1);
  for (std::uint32_t dense = 0; dense < prefix_count(); ++dense) {
    for (const DomainId element : elements_of(dense)) postings[cursor[element]++] = dense;
  }
}

DetectIndex DetectIndex::build(const std::unordered_map<Prefix, DomainSet>& v4_sets,
                               const std::unordered_map<Prefix, DomainSet>& v6_sets) {
  DetectIndex index;
  index.v4 = build_side(v4_sets);
  index.v6 = build_side(v6_sets);
  return index;
}

}  // namespace sp::core
