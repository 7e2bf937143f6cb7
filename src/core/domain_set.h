// Interned domain identifiers and sorted-set operations.
//
// Sibling detection compares domain sets millions of times; interning
// domain names to dense 32-bit ids and keeping sets as sorted unique
// vectors makes intersections a linear merge.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dns/name.h"

namespace sp::core {

using DomainId = std::uint32_t;

/// A sorted, duplicate-free vector of domain ids.
using DomainSet = std::vector<DomainId>;

/// A read-only view of a sorted, duplicate-free id run: a DomainSet, or
/// one row of a flat CSR such as the corpus's host→domains table.
using DomainSpan = std::span<const DomainId>;

/// Sorts and deduplicates in place.
void normalize(DomainSet& set);

/// Inserts `id` keeping the set sorted and unique.
void insert_id(DomainSet& set, DomainId id);

[[nodiscard]] bool contains_id(DomainSpan set, DomainId id) noexcept;

/// |a ∩ b| by linear merge.
[[nodiscard]] std::size_t intersection_size(DomainSpan a, DomainSpan b) noexcept;

[[nodiscard]] DomainSet set_union(const DomainSet& a, const DomainSet& b);
[[nodiscard]] DomainSet set_intersection(const DomainSet& a, const DomainSet& b);
[[nodiscard]] DomainSet set_difference(const DomainSet& a, const DomainSet& b);

/// Bidirectional DomainName ↔ DomainId map. Ids are dense and stable in
/// insertion order.
class DomainInterner {
 public:
  /// Returns the existing id or assigns the next one.
  DomainId intern(const dns::DomainName& name);

  [[nodiscard]] std::optional<DomainId> find(const dns::DomainName& name) const noexcept;

  /// The name of an id; `id` must have been returned by intern().
  [[nodiscard]] const dns::DomainName& name(DomainId id) const { return names_.at(id); }

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

 private:
  std::unordered_map<dns::DomainName, DomainId> ids_;
  std::vector<dns::DomainName> names_;
};

}  // namespace sp::core
