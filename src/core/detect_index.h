// Flat CSR detection index: the candidate-generation data structure shared
// by every detection engine.
//
// Detection (paper steps 3-4) spends its time answering two queries per
// source prefix: "which counterpart prefixes share an element with me?"
// and "how large is each counterpart's element set?". The hash-map based
// corpus interfaces answer both, but at the cost of one hash lookup per
// element occurrence and one fresh unordered_map per source prefix. The
// DetectIndex flattens everything once, at corpus finalize time:
//
//   prefixes        dense id → Prefix, sorted ascending (deterministic)
//   set CSR         dense id → its sorted element set (offsets + elements)
//   posting CSR     element id → dense ids of the prefixes containing it
//
// Candidate counting then becomes array indexing into a reusable
// counts[dense_id] scratch vector — no hashing, no allocation per prefix —
// and the index is immutable after build, so any number of detection
// workers can share it without synchronization.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/domain_set.h"
#include "netbase/prefix.h"

namespace sp::core {

struct DetectIndex {
  /// One address family's half of the index.
  struct Side {
    std::vector<Prefix> prefixes;                 // dense id → prefix, ascending
    std::vector<std::uint32_t> set_offsets;       // size prefix_count()+1
    std::vector<DomainId> set_elements;           // concatenated sorted element sets
    std::vector<std::uint32_t> posting_offsets;   // size element_count()+1
    std::vector<std::uint32_t> postings;          // dense prefix ids, ascending per element

    [[nodiscard]] std::size_t prefix_count() const noexcept { return prefixes.size(); }

    /// One past the largest element id seen on this side (0 when empty).
    [[nodiscard]] std::size_t element_count() const noexcept {
      return posting_offsets.empty() ? 0 : posting_offsets.size() - 1;
    }

    /// The sorted element set of a dense prefix id.
    [[nodiscard]] std::span<const DomainId> elements_of(std::uint32_t dense) const noexcept {
      return {set_elements.data() + set_offsets[dense],
              set_elements.data() + set_offsets[dense + 1]};
    }

    [[nodiscard]] std::uint32_t set_size(std::uint32_t dense) const noexcept {
      return set_offsets[dense + 1] - set_offsets[dense];
    }

    /// Dense ids of the prefixes containing `element`; empty for unknown
    /// ids (elements can live in only one family).
    [[nodiscard]] std::span<const std::uint32_t> postings_of(DomainId element) const noexcept {
      if (element >= element_count()) return {};
      return {postings.data() + posting_offsets[element],
              postings.data() + posting_offsets[element + 1]};
    }

    /// Derives the posting CSR from the set CSR by counting sort: pass 1
    /// counts per element, pass 2 scatters dense ids in ascending order,
    /// so posting lists come out sorted without a per-list sort. The one
    /// posting build DetectIndex::build and DetectIndexOverlay::apply
    /// share.
    void build_postings();
  };

  Side v4;
  Side v6;

  [[nodiscard]] const Side& side(Family family) const noexcept {
    return family == Family::v4 ? v4 : v6;
  }

  /// Flattens the per-family prefix→set maps (sets must already be sorted
  /// and duplicate-free, as DomainSet guarantees after normalize()).
  [[nodiscard]] static DetectIndex build(const std::unordered_map<Prefix, DomainSet>& v4_sets,
                                         const std::unordered_map<Prefix, DomainSet>& v6_sets);
};

}  // namespace sp::core
