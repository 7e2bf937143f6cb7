#include "core/detect_index.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace sp::core {

std::optional<std::uint32_t> DetectIndex::Side::find(const Prefix& prefix) const noexcept {
  const auto it = std::lower_bound(prefixes.begin(), prefixes.end(), prefix);
  if (it == prefixes.end() || *it != prefix) return std::nullopt;
  return static_cast<std::uint32_t>(it - prefixes.begin());
}

void DetectIndex::Side::append(const Prefix& prefix, std::span<const DomainId> elements) {
  // The CSR stores offsets as uint32; past that the offsets silently wrap
  // and postings scatter into the wrong lists, so refuse loudly instead.
  if (set_elements.size() + elements.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("DetectIndex: side exceeds 2^32 set elements");
  }
  prefixes.push_back(prefix);
  set_elements.insert(set_elements.end(), elements.begin(), elements.end());
  set_offsets.push_back(static_cast<std::uint32_t>(set_elements.size()));
}

void DetectIndex::Side::build_postings() {
  // One past the largest element; sets are sorted, so each row's last
  // element is its largest.
  std::size_t element_bound = 0;
  for (std::uint32_t dense = 0; dense < prefix_count(); ++dense) {
    const auto elements = elements_of(dense);
    if (!elements.empty()) {
      element_bound = std::max(element_bound, std::size_t{elements.back()} + 1);
    }
  }
  posting_offsets.assign(element_bound + 1, 0);
  for (const DomainId element : set_elements) ++posting_offsets[std::size_t{element} + 1];
  std::partial_sum(posting_offsets.begin(), posting_offsets.end(), posting_offsets.begin());

  postings.resize(set_elements.size());
  std::vector<std::uint32_t> cursor(posting_offsets.begin(), posting_offsets.end() - 1);
  for (std::uint32_t dense = 0; dense < prefix_count(); ++dense) {
    for (const DomainId element : elements_of(dense)) postings[cursor[element]++] = dense;
  }
}

DetectIndex DetectIndex::build(std::vector<Edge> edges) {
  // Dense ids are assigned in ascending prefix order, so the index layout
  // — and every downstream iteration — is independent of input order.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  DetectIndex index;
  DomainSet row;
  for (std::size_t begin = 0; begin < edges.size();) {
    const Prefix& prefix = edges[begin].prefix;
    row.clear();
    std::size_t end = begin;
    for (; end < edges.size() && edges[end].prefix == prefix; ++end) {
      row.push_back(edges[end].element);
    }
    (prefix.family() == Family::v4 ? index.v4 : index.v6).append(prefix, row);
    begin = end;
  }
  index.v4.build_postings();
  index.v6.build_postings();
  return index;
}

}  // namespace sp::core
