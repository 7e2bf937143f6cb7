#include "core/detect_overlay.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

namespace sp::core {

namespace {

[[noreturn]] void invalid(const char* reason) { throw std::invalid_argument(reason); }

void check_canonical(const std::vector<PrefixDelta>& deltas) {
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const PrefixDelta& delta = deltas[i];
    if (i > 0 && !(deltas[i - 1].prefix < delta.prefix)) {
      invalid("CorpusDelta: side not strictly ascending by prefix");
    }
    if (delta.added.empty() && delta.removed.empty()) {
      invalid("CorpusDelta: entry with no added or removed edges");
    }
    if (!std::is_sorted(delta.added.begin(), delta.added.end()) ||
        std::adjacent_find(delta.added.begin(), delta.added.end()) != delta.added.end() ||
        !std::is_sorted(delta.removed.begin(), delta.removed.end()) ||
        std::adjacent_find(delta.removed.begin(), delta.removed.end()) != delta.removed.end()) {
      invalid("CorpusDelta: added/removed sets must be sorted and unique");
    }
    if (intersection_size(delta.added, delta.removed) != 0) {
      invalid("CorpusDelta: added and removed sets overlap");
    }
  }
}

DetectIndex::Side apply_side(const DetectIndex::Side& base,
                             const std::vector<PrefixDelta>& deltas) {
  check_canonical(deltas);

  // Pass 1: merge-walk base rows and delta entries into the surviving
  // (prefix, element set) rows, validating the delta against the base.
  DetectIndex::Side side;
  side.set_offsets.push_back(0);
  DomainSet merged;

  const auto emit_row = [&](const Prefix& prefix, std::span<const DomainId> elements) {
    if (side.set_elements.size() + elements.size() >
        std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("DetectIndexOverlay: side exceeds 2^32 set elements");
    }
    side.prefixes.push_back(prefix);
    side.set_elements.insert(side.set_elements.end(), elements.begin(), elements.end());
    side.set_offsets.push_back(static_cast<std::uint32_t>(side.set_elements.size()));
  };

  std::uint32_t b = 0;
  std::size_t d = 0;
  const auto base_count = static_cast<std::uint32_t>(base.prefix_count());
  while (b < base_count || d < deltas.size()) {
    if (d >= deltas.size() || (b < base_count && base.prefixes[b] < deltas[d].prefix)) {
      emit_row(base.prefixes[b], base.elements_of(b));  // untouched row, copied verbatim
      ++b;
      continue;
    }
    const PrefixDelta& delta = deltas[d];
    if (b >= base_count || delta.prefix < base.prefixes[b]) {
      // Birth: the delta must be purely additive against an absent row.
      if (!delta.removed.empty()) invalid("CorpusDelta: removal from an absent prefix");
      emit_row(delta.prefix, delta.added);
      ++d;
      continue;
    }
    // Edit (possibly death). removed ⊆ old and added ∩ old = ∅, checked
    // by size arithmetic on the sorted merges.
    const auto old_set = base.elements_of(b);
    merged.clear();
    std::set_difference(old_set.begin(), old_set.end(), delta.removed.begin(),
                        delta.removed.end(), std::back_inserter(merged));
    if (old_set.size() - merged.size() != delta.removed.size()) {
      invalid("CorpusDelta: removal of an edge the base does not have");
    }
    const std::size_t kept = merged.size();
    DomainSet next = set_union(merged, delta.added);
    if (next.size() != kept + delta.added.size()) {
      invalid("CorpusDelta: addition of an edge the base already has");
    }
    if (!next.empty()) emit_row(delta.prefix, next);  // empty ⇒ prefix death
    ++b;
    ++d;
  }

  // Pass 2: the posting CSR, built exactly as DetectIndex::build does.
  side.build_postings();
  return side;
}

}  // namespace

void DetectIndexOverlay::apply(const CorpusDelta& delta) {
  // Both sides are validated and built before either is committed, so a
  // throw leaves the index unchanged.
  DetectIndex next;
  next.v4 = apply_side(index_.v4, delta.v4);
  next.v6 = apply_side(index_.v6, delta.v6);
  index_ = std::move(next);
}

}  // namespace sp::core
