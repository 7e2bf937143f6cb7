#include "core/corpus.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace sp::core {

namespace {

/// The label of an address no announcement covers.
constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();

/// A v6 address as two integers, most significant half first, so the
/// defaulted order is address order.
struct Halves {
  std::uint64_t high = 0;
  std::uint64_t low = 0;

  friend constexpr auto operator<=>(const Halves&, const Halves&) noexcept = default;
};

constexpr std::uint64_t kOnes = std::numeric_limits<std::uint64_t>::max();

std::uint32_t key_of(const IPv4Address& address) noexcept { return address.value(); }

Halves key_of(const IPv6Address& address) noexcept {
  Halves key;
  for (std::size_t i = 0; i < 8; ++i) key.high = (key.high << 8) | address.bytes()[i];
  for (std::size_t i = 8; i < 16; ++i) key.low = (key.low << 8) | address.bytes()[i];
  return key;
}

/// The first and last address of a prefix; the unnamed argument picks the
/// family's key type. The host-bit masks are spelled out per length
/// because a shift by the full width is undefined: a /32 (or a /64 or /128
/// half) has no host bits.
std::pair<std::uint32_t, std::uint32_t> bounds(const Prefix& prefix, std::uint32_t) noexcept {
  const std::uint32_t first = key_of(prefix.address().v4());
  const unsigned length = prefix.length();
  const std::uint32_t host_bits = length >= 32 ? 0 : ~std::uint32_t{0} >> length;
  return {first, first | host_bits};
}

std::pair<Halves, Halves> bounds(const Prefix& prefix, Halves) noexcept {
  const Halves first = key_of(prefix.address().v6());
  const unsigned length = prefix.length();
  const std::uint64_t high_bits = length >= 64 ? 0 : kOnes >> length;
  const std::uint64_t low_bits = length <= 64 ? kOnes : length >= 128 ? 0 : kOnes >> (length - 64);
  return {first, Halves{first.high | high_bits, first.low | low_bits}};
}

bool is_top(std::uint32_t key) noexcept { return key == std::numeric_limits<std::uint32_t>::max(); }
bool is_top(const Halves& key) noexcept { return key.high == kOnes && key.low == kOnes; }

/// The address after `key`; precondition: !is_top(key).
std::uint32_t successor(std::uint32_t key) noexcept { return key + 1; }
Halves successor(const Halves& key) noexcept {
  return key.low == kOnes ? Halves{key.high + 1, 0} : Halves{key.high, key.low + 1};
}

/// One family's announcements flattened into disjoint address intervals:
/// interval k spans [starts_[k], starts_[k + 1]) (the last one runs to the
/// top of the space) and holds the ordinal of its longest-match
/// announcement, or kUnmapped. Nesting is resolved once, by a sweep over
/// the announcements in prefix order, so mapping an address is one binary
/// search whatever the depth. At most 2n + 1 intervals for n announcements.
template <typename Key>
class AnnouncementTable {
 public:
  /// `announced`: one family's announcements, ascending; an announcement's
  /// ordinal is its index here.
  explicit AnnouncementTable(std::span<const Prefix> announced) {
    if (announced.size() >= kUnmapped) {
      throw std::length_error("DualStackCorpus: family exceeds 2^32 - 1 announcements");
    }
    // The announcements enclosing the sweep position, innermost last, as
    // (last address, ordinal).
    std::vector<std::pair<Key, std::uint32_t>> open;
    // Past an announcement's last address its parent (or no route)
    // resumes; nothing follows the top of the space. Announcements that
    // end together close at one start, which takes the label of whatever
    // still covers it.
    const auto close = [&] {
      const Key last = open.back().first;
      open.pop_back();
      if (!is_top(last)) label_from(successor(last), open.empty() ? kUnmapped : open.back().second);
    };
    label_from(Key{}, kUnmapped);
    for (std::uint32_t ordinal = 0; ordinal < announced.size(); ++ordinal) {
      const auto [first, last] = bounds(announced[ordinal], Key{});
      // Ascending prefix order puts a covering announcement before every
      // announcement inside it, so the open ones still covering `first`
      // cover this whole announcement.
      while (!open.empty() && open.back().first < first) close();
      label_from(first, ordinal);
      open.emplace_back(last, ordinal);
    }
    while (!open.empty()) close();
  }

  /// The ordinal of the longest-match announcement covering `address`, or
  /// kUnmapped. starts_[0] is the family's first address, so the last
  /// start at or below `address` always exists; the search halves the
  /// candidate range without a data-dependent branch.
  [[nodiscard]] std::uint32_t ordinal_at(const Key& address) const noexcept {
    const Key* base = starts_.data();
    for (std::size_t size = starts_.size(); size > 1;) {
      const std::size_t half = size / 2;
      base = base[half] <= address ? base + half : base;
      size -= half;
    }
    return labels_[static_cast<std::size_t>(base - starts_.data())];
  }

 private:
  /// Starts the interval at `start`; starts arrive non-decreasing, and a
  /// later label at the same start replaces the earlier one.
  void label_from(const Key& start, std::uint32_t label) {
    if (!starts_.empty() && starts_.back() == start) {
      labels_.back() = label;
      return;
    }
    starts_.push_back(start);
    labels_.push_back(label);
  }

  std::vector<Key> starts_;
  std::vector<std::uint32_t> labels_;
};

/// One mapped v4 address: the announcement's ordinal in the high half of
/// one integer and the host in the low half, then the domain id, so the
/// defaulted order is (ordinal, host, id).
struct Edge4 {
  std::uint64_t ordinal_host = 0;
  DomainId id = 0;

  friend auto operator<=>(const Edge4&, const Edge4&) = default;
};

/// One mapped v6 address, ordered by (ordinal, host, id).
struct Edge6 {
  Halves host;
  std::uint32_t ordinal = 0;
  DomainId id = 0;

  friend bool operator<(const Edge6& a, const Edge6& b) noexcept {
    return std::tie(a.ordinal, a.host, a.id) < std::tie(b.ordinal, b.host, b.id);
  }
  friend bool operator==(const Edge6&, const Edge6&) = default;
};

Edge4 edge_of(std::uint32_t ordinal, std::uint32_t host, DomainId id) noexcept {
  return {(std::uint64_t{ordinal} << 32) | host, id};
}
Edge6 edge_of(std::uint32_t ordinal, const Halves& host, DomainId id) noexcept {
  return {host, ordinal, id};
}

std::uint32_t ordinal_of(const Edge4& edge) noexcept {
  return static_cast<std::uint32_t>(edge.ordinal_host >> 32);
}
std::uint32_t ordinal_of(const Edge6& edge) noexcept { return edge.ordinal; }

bool same_host(const Edge4& a, const Edge4& b) noexcept { return a.ordinal_host == b.ordinal_host; }
bool same_host(const Edge6& a, const Edge6& b) noexcept {
  return a.ordinal == b.ordinal && a.host == b.host;
}

IPAddress address_of(const Edge4& edge) noexcept {
  return IPv4Address(static_cast<std::uint32_t>(edge.ordinal_host));
}
IPAddress address_of(const Edge6& edge) noexcept {
  IPv6Address::Bytes bytes{};
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(edge.host.high >> (56 - 8 * i));
    bytes[8 + i] = static_cast<std::uint8_t>(edge.host.low >> (56 - 8 * i));
  }
  return IPv6Address(bytes);
}

}  // namespace

DualStackCorpus DualStackCorpus::build(const dns::ResolutionSnapshot& snapshot,
                                       const bgp::Rib& rib) {
  return build(snapshot, rib.prefixes());
}

DualStackCorpus DualStackCorpus::build(const dns::ResolutionSnapshot& snapshot,
                                       std::span<const Prefix> announced) {
  DualStackCorpus corpus;
  corpus.stats_.snapshot_domains = snapshot.domain_count();

  // The announcements in prefix order, v4 first. An announcement's ordinal
  // is its rank within its family, so ordinal order is prefix order.
  const auto v6_first = std::partition_point(
      announced.begin(), announced.end(), [](const Prefix& p) { return p.family() == Family::v4; });
  const std::span<const Prefix> v4_announced(announced.begin(), v6_first);
  const std::span<const Prefix> v6_announced(v6_first, announced.end());
  const AnnouncementTable<std::uint32_t> v4_table(v4_announced);
  const AnnouncementTable<Halves> v6_table(v6_announced);

  std::vector<Edge4> v4_edges;
  std::vector<Edge6> v6_edges;
  for (const dns::DomainResolution& entry : snapshot.entries()) {
    if (!entry.dual_stack()) continue;
    // Identity is the response name: several queried names CNAME-ing to the
    // same target collapse into one service.
    const DomainId id = corpus.interner_.intern(entry.response_name);

    const auto map_addresses = [&](const auto& addresses, const auto& table, auto& edges) {
      for (const auto& address : addresses) {
        if (is_reserved(address)) {
          ++corpus.stats_.discarded_reserved;
          continue;
        }
        const auto host = key_of(address);
        const std::uint32_t ordinal = table.ordinal_at(host);
        if (ordinal == kUnmapped) {
          ++corpus.stats_.unmapped_addresses;
          continue;
        }
        edges.push_back(edge_of(ordinal, host, id));
      }
    };
    map_addresses(entry.v4, v4_table, v4_edges);
    map_addresses(entry.v6, v6_table, v6_edges);
  }

  flatten(v4_edges, v4_announced, corpus.index_.v4, corpus.v4_hosts_);
  flatten(v6_edges, v6_announced, corpus.index_.v6, corpus.v6_hosts_);

  corpus.stats_.dual_stack_domains = corpus.interner_.size();
  corpus.stats_.v4_prefixes = corpus.index_.v4.prefix_count();
  corpus.stats_.v6_prefixes = corpus.index_.v6.prefix_count();
  corpus.stats_.v4_hosts = corpus.v4_hosts_.addresses.size();
  corpus.stats_.v6_hosts = corpus.v6_hosts_.addresses.size();
  corpus.stats_.host_domain_edges =
      corpus.v4_hosts_.domains.size() + corpus.v6_hosts_.domains.size();
  return corpus;
}

template <typename Edge>
void DualStackCorpus::flatten(std::vector<Edge>& edges, std::span<const Prefix> announced,
                              DetectIndex::Side& side, HostTable& hosts) {
  std::sort(edges.begin(), edges.end());
  // An address listed twice in one entry, or by two entries with one
  // response name, is one edge.
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  // Every row offset is a uint32; the index side checks its own.
  if (edges.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("DualStackCorpus: family exceeds 2^32 host-domain edges");
  }

  // One walk: each ordinal run is one index row and one range of host
  // rows; each host run inside it is one host row, its ids already
  // ascending.
  DomainSet prefix_ids;
  for (std::size_t i = 0; i < edges.size();) {
    const std::uint32_t ordinal = ordinal_of(edges[i]);
    prefix_ids.clear();
    while (i < edges.size() && ordinal_of(edges[i]) == ordinal) {
      const Edge& first = edges[i];
      hosts.addresses.push_back(address_of(first));
      for (; i < edges.size() && same_host(edges[i], first); ++i) {
        hosts.domains.push_back(edges[i].id);
        prefix_ids.push_back(edges[i].id);
      }
      hosts.domain_offsets.push_back(static_cast<std::uint32_t>(hosts.domains.size()));
    }
    hosts.prefix_rows.push_back(static_cast<std::uint32_t>(hosts.addresses.size()));
    normalize(prefix_ids);
    side.append(announced[ordinal], prefix_ids);
  }
  side.build_postings();
}

HostRange DualStackCorpus::rows(const HostTable& hosts, std::uint32_t first,
                                std::uint32_t last) noexcept {
  return HostRange(hosts.addresses.data() + first, hosts.domain_offsets.data() + first,
                   hosts.domains.data(), last - first);
}

DomainSpan DualStackCorpus::domains_of(const Prefix& prefix) const noexcept {
  const DetectIndex::Side& side = index_.side(prefix.family());
  const auto dense = side.find(prefix);
  return dense ? side.elements_of(*dense) : DomainSpan{};
}

HostRange DualStackCorpus::hosts_of(const Prefix& announced) const noexcept {
  const auto dense = index_.side(announced.family()).find(announced);
  if (!dense) return {};
  const HostTable& hosts = table(announced.family());
  return rows(hosts, hosts.prefix_rows[*dense], hosts.prefix_rows[*dense + 1]);
}

HostRange DualStackCorpus::hosts(Family family) const noexcept {
  const HostTable& hosts = table(family);
  return rows(hosts, 0, static_cast<std::uint32_t>(hosts.addresses.size()));
}

DomainSet DualStackCorpus::domains_within(const Prefix& prefix) const {
  const DetectIndex::Side& side = index_.side(prefix.family());
  const HostTable& hosts = table(prefix.family());
  DomainSet out;

  // Appends the domains of announcement `dense`'s hosts inside `prefix`:
  // all of them when the announcement lies inside `prefix`, else the
  // sub-range of its sorted hosts that `prefix` covers.
  const auto add_hosts = [&](std::uint32_t dense) {
    const auto begin = hosts.addresses.begin();
    auto first = begin + hosts.prefix_rows[dense];
    auto last = begin + hosts.prefix_rows[dense + 1];
    if (!prefix.contains(side.prefixes[dense])) {
      first = std::lower_bound(first, last, prefix.address());
      last = std::partition_point(
          first, last, [&prefix](const IPAddress& host) { return prefix.contains(host); });
    }
    out.insert(out.end(), hosts.domains.begin() + hosts.domain_offsets[first - begin],
               hosts.domains.begin() + hosts.domain_offsets[last - begin]);
  };

  // Announcements inside `prefix` are one run of the sorted prefixes.
  auto it = std::lower_bound(side.prefixes.begin(), side.prefixes.end(), prefix);
  for (; it != side.prefixes.end() && prefix.contains(*it); ++it) {
    add_hosts(static_cast<std::uint32_t>(it - side.prefixes.begin()));
  }
  // Announcements covering `prefix`: at most one per shorter length.
  for (unsigned length = 0; length < prefix.length(); ++length) {
    if (const auto dense = side.find(Prefix::of(prefix.address(), length))) add_hosts(*dense);
  }
  normalize(out);
  return out;
}

}  // namespace sp::core
