// The dual-stack corpus: steps 1-2 of the paper's methodology.
//
// Built from one DNS resolution snapshot plus a BGP RIB, the corpus
// identifies dual-stack domains (step 1), maps every address to its
// announced prefix (step 2), and serves the views detection (steps 3-4)
// and SP-Tuner read. Domains are identified by their *response* name
// (post-CNAME), and reserved/private addresses are discarded, both per
// the paper.
//
// build() reads the RIB's announcements once, in prefix order, and
// numbers each family's announcements by their rank there (their
// ordinal), so ordinal order is prefix order. It flattens each family's
// nesting into a sorted array of disjoint address intervals, each
// labelled with the ordinal of its longest-match announcement or as
// unmapped; mapping an address is one binary search over that array,
// whatever the nesting depth. One pass over the snapshot appends one
// packed integer edge (ordinal, host address, domain id) per mapped
// address, each family's edges are sorted once by (ordinal, host, id),
// which is (prefix, host, id) order, and one walk over the sorted list
// emits every view:
//
//   detect_index()   prefix → sorted domain set CSR, plus its postings
//   hosts_of()       per announced prefix, one range of host rows,
//                    addresses ascending
//   host rows        the host→domains CSR: row → sorted domains served
//                    from that address
//
// No per-address hash map or trie walk is made: every view is a flat
// array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bgp/rib.h"
#include "core/detect_index.h"
#include "core/domain_set.h"
#include "dns/snapshot.h"

namespace sp::core {

/// Consecutive rows of a corpus's host→domains CSR: the populated hosts of
/// one announced prefix (addresses ascending) or of a whole family. A view
/// into the corpus, valid while the corpus lives.
class HostRange {
 public:
  HostRange() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// The populated address of row `i`.
  [[nodiscard]] const IPAddress& address(std::size_t i) const noexcept { return addresses_[i]; }

  /// The sorted domain ids served from address(i). The span points into
  /// the corpus's CSR, so a row has one address for the corpus's lifetime.
  [[nodiscard]] DomainSpan domains(std::size_t i) const noexcept {
    return {domains_ + offsets_[i], domains_ + offsets_[i + 1]};
  }

 private:
  friend class DualStackCorpus;
  HostRange(const IPAddress* addresses, const std::uint32_t* offsets, const DomainId* domains,
            std::size_t size) noexcept
      : addresses_(addresses), offsets_(offsets), domains_(domains), size_(size) {}

  const IPAddress* addresses_ = nullptr;
  const std::uint32_t* offsets_ = nullptr;  // size_ + 1 entries into domains_
  const DomainId* domains_ = nullptr;
  std::size_t size_ = 0;
};

class DualStackCorpus {
 public:
  /// Build statistics (the paper's data-cleaning footnotes, plus the
  /// build's own input size).
  struct Stats {
    std::size_t snapshot_domains = 0;       // entries in the snapshot
    std::size_t dual_stack_domains = 0;     // distinct DS response names
    std::size_t discarded_reserved = 0;     // addresses dropped as reserved
    std::size_t unmapped_addresses = 0;     // addresses with no covering prefix
    std::size_t v4_prefixes = 0;
    std::size_t v6_prefixes = 0;
    std::size_t v4_hosts = 0;               // distinct populated v4 addresses
    std::size_t v6_hosts = 0;               // distinct populated v6 addresses
    std::size_t host_domain_edges = 0;      // distinct (address, domain) pairs
  };

  /// Builds over the RIB's announced prefixes (forwards to the form below).
  [[nodiscard]] static DualStackCorpus build(const dns::ResolutionSnapshot& snapshot,
                                             const bgp::Rib& rib);

  /// Builds over `announced`, all that build reads of a RIB: its
  /// announced prefixes, v4 first, in prefix order, each once — what
  /// bgp::Rib::prefixes() returns.
  [[nodiscard]] static DualStackCorpus build(const dns::ResolutionSnapshot& snapshot,
                                             std::span<const Prefix> announced);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const DomainInterner& interner() const noexcept { return interner_; }
  [[nodiscard]] std::size_t ds_domain_count() const noexcept { return interner_.size(); }

  /// Flat CSR candidate-generation index; its sides list every announced
  /// prefix hosting a DS domain. Shared read-only by all detection
  /// workers.
  [[nodiscard]] const DetectIndex& detect_index() const noexcept { return index_; }

  /// Sorted domain set of one announced prefix; empty when the prefix
  /// hosts no DS domain.
  [[nodiscard]] DomainSpan domains_of(const Prefix& prefix) const noexcept;

  /// The populated hosts mapped to announced prefix `announced` (its
  /// longest-match region, so hosts of nested more-specific announcements
  /// are excluded), addresses ascending. Empty for unknown prefixes.
  [[nodiscard]] HostRange hosts_of(const Prefix& announced) const noexcept;

  /// Every populated host of `family`, grouped by announced prefix in
  /// ascending prefix order.
  [[nodiscard]] HostRange hosts(Family family) const noexcept;

  /// Union of the domain sets of all addresses inside `prefix`. Any prefix
  /// works: one inside an announcement, an announcement, or a supernet
  /// spanning several nested announcements.
  [[nodiscard]] DomainSet domains_within(const Prefix& prefix) const;

 private:
  /// One family's host rows, grouped by the index side's dense prefix ids.
  struct HostTable {
    std::vector<std::uint32_t> prefix_rows{0};     // dense prefix id → first row
    std::vector<IPAddress> addresses;              // row → populated address
    std::vector<std::uint32_t> domain_offsets{0};  // row → first entry of domains
    std::vector<DomainId> domains;                 // concatenated sorted row sets
  };

  /// Sorts one family's edges and writes its index side and host rows;
  /// `announced` maps an edge's ordinal back to its prefix.
  template <typename Edge>
  static void flatten(std::vector<Edge>& edges, std::span<const Prefix> announced,
                      DetectIndex::Side& side, HostTable& hosts);

  [[nodiscard]] const HostTable& table(Family family) const noexcept {
    return family == Family::v4 ? v4_hosts_ : v6_hosts_;
  }
  [[nodiscard]] static HostRange rows(const HostTable& hosts, std::uint32_t first,
                                      std::uint32_t last) noexcept;

  Stats stats_;
  DomainInterner interner_;
  DetectIndex index_;
  HostTable v4_hosts_;
  HostTable v6_hosts_;
};

}  // namespace sp::core
