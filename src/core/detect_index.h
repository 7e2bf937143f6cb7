// Flat CSR detection index: the candidate-generation data structure shared
// by every detection engine.
//
// Detection (paper steps 3-4) spends its time answering two queries per
// source prefix: "which counterpart prefixes share an element with me?"
// and "how large is each counterpart's element set?". The DetectIndex
// answers both from flat arrays, built once from a sorted edge list (by
// DualStackCorpus::build, SetCorpus::finalize or DetectIndex::build):
//
//   prefixes        dense id → Prefix, sorted ascending (deterministic)
//   set CSR         dense id → its sorted element set (offsets + elements)
//   posting CSR     element id → dense ids of the prefixes containing it
//
// Candidate counting then becomes array indexing into a reusable
// counts[dense_id] scratch vector — no hashing, no allocation per prefix —
// and the index is immutable after build, so any number of detection
// workers can share it without synchronization.
//
// Element ids index the posting CSR directly, so a side allocates one
// offset per id up to its largest: ids should be dense, and must be below
// kElementLimit (SetCorpus::add enforces it).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/domain_set.h"
#include "netbase/prefix.h"

namespace sp::core {

struct DetectIndex {
  /// One past the largest element id an index can hold: the posting CSR
  /// needs an offset at `id + 1`, which must not wrap in 32 bits.
  static constexpr DomainId kElementLimit = std::numeric_limits<DomainId>::max();

  /// One address family's half of the index.
  struct Side {
    std::vector<Prefix> prefixes;                 // dense id → prefix, ascending
    std::vector<std::uint32_t> set_offsets{0};    // size prefix_count()+1
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
              postings.data() + posting_offsets[std::size_t{element} + 1]};
    }

    /// The dense id of `prefix`, or nullopt when the side does not hold it.
    [[nodiscard]] std::optional<std::uint32_t> find(const Prefix& prefix) const noexcept;

    /// Appends the next set row. Prefixes must arrive ascending and
    /// `elements` must be sorted and duplicate-free, each below
    /// kElementLimit. Throws std::length_error past 2^32 set elements,
    /// where the uint32 offsets would wrap. The one row writer of every
    /// index build.
    void append(const Prefix& prefix, std::span<const DomainId> elements);

    /// Derives the posting CSR from the set CSR by counting sort: pass 1
    /// counts per element, pass 2 scatters dense ids in ascending order,
    /// so posting lists come out sorted without a per-list sort. Run once
    /// after the last append().
    void build_postings();
  };

  Side v4;
  Side v6;

  [[nodiscard]] const Side& side(Family family) const noexcept {
    return family == Family::v4 ? v4 : v6;
  }

  /// One (prefix, element) observation.
  struct Edge {
    Prefix prefix;
    DomainId element = 0;

    friend auto operator<=>(const Edge&, const Edge&) = default;
  };

  /// Sorts the edges (both families mixed, any order, duplicates allowed)
  /// by (prefix, element) and flattens them: the edge-list build behind
  /// SetCorpus::finalize.
  [[nodiscard]] static DetectIndex build(std::vector<Edge> edges);
};

}  // namespace sp::core
