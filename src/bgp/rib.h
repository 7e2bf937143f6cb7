// BGP RIB: prefix → origin-AS database with longest-prefix match.
//
// Plays the Routeviews role in the pipeline: map any IP address seen in DNS
// to its covering BGP-announced prefix and origin AS. Routes can be loaded
// from parsed MRT TABLE_DUMP_V2 records (multiple peers vote on the origin
// AS; majority wins, smallest ASN on ties) or inserted directly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "mrt/types.h"
#include "trie/prefix_trie.h"

namespace sp::bgp {

/// Per-prefix origin observations (one count per distinct origin AS).
struct RouteVotes {
  std::map<std::uint32_t, std::uint32_t> votes;

  void add(std::uint32_t origin_as, std::uint32_t weight = 1) { votes[origin_as] += weight; }

  /// Majority origin AS; smallest ASN on ties. Zero only for an empty vote
  /// set, which never occurs for stored prefixes.
  [[nodiscard]] std::uint32_t best() const noexcept {
    std::uint32_t best_as = 0;
    std::uint32_t best_count = 0;
    for (const auto& [asn, count] : votes) {
      if (count > best_count) {
        best_as = asn;
        best_count = count;
      }
    }
    return best_as;
  }

  /// True when more than one origin AS was observed (MOAS prefix).
  [[nodiscard]] bool is_moas() const noexcept { return votes.size() > 1; }
};

class Rib {
 public:
  struct Lookup {
    Prefix prefix;
    std::uint32_t origin_as = 0;
  };

  /// Accumulates one origin observation for `prefix`.
  void add_route(const Prefix& prefix, std::uint32_t origin_as, std::uint32_t weight = 1);

  /// Builds a RIB from MRT records: every RIB entry's AS_PATH origin votes
  /// for its prefix. PEER_INDEX_TABLE records are accepted and ignored
  /// (peer identity does not change origin extraction).
  [[nodiscard]] static Rib from_mrt(std::span<const mrt::MrtRecord> records);

  /// Exact-match origin AS for a stored prefix.
  [[nodiscard]] std::optional<std::uint32_t> origin_as(const Prefix& prefix) const;

  /// Every origin observation of a stored prefix; null for other prefixes.
  [[nodiscard]] const RouteVotes* votes(const Prefix& prefix) const { return trie_.find(prefix); }

  /// Longest-prefix match for an address: the most specific covering
  /// announced prefix and its origin AS.
  [[nodiscard]] std::optional<Lookup> lookup(const IPAddress& address) const;

  /// Longest-prefix match for a prefix (used when re-mapping tuned
  /// prefixes back to announcements).
  [[nodiscard]] std::optional<Lookup> lookup(const Prefix& prefix) const;

  [[nodiscard]] std::size_t prefix_count() const noexcept { return trie_.size(); }
  [[nodiscard]] std::vector<Prefix> prefixes() const { return trie_.keys(); }

  /// Removes a prefix (all origin observations). Returns true when the
  /// prefix was present.
  bool withdraw(const Prefix& prefix);

  /// Applies BGP4MP UPDATE records on top of this RIB: withdrawn routes
  /// are removed, announced routes replace the prefix's origin votes with
  /// the update's AS_PATH origin. Non-update records are ignored.
  void apply_updates(std::span<const mrt::MrtRecord> records);

  /// Exports the RIB as a TABLE_DUMP_V2 dump (PEER_INDEX_TABLE first, one
  /// RIB record per stored prefix in prefix order, one entry per origin
  /// vote) such that from_mrt(to_mrt()) reproduces this RIB exactly —
  /// votes, MOAS structure and majority origins included. This is how the
  /// campaign runner's evolve stages persist the month-m RIB after
  /// replaying month-m updates onto the month-(m-1) artifact.
  [[nodiscard]] std::vector<mrt::MrtRecord> to_mrt() const;

  /// Number of stored prefixes observed with multiple origin ASes.
  [[nodiscard]] std::size_t moas_count() const;

 private:
  PrefixTrie<RouteVotes> trie_;
};

}  // namespace sp::bgp
