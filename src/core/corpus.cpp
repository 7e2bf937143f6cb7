#include "core/corpus.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace sp::core {

/// One mapped address of one dual-stack domain. The defaulted ordering is
/// the build's one sort key: (announced prefix, host, domain id).
struct DualStackCorpus::Edge {
  Prefix prefix;  // the longest-match announcement covering `host`
  IPAddress host;
  DomainId id = 0;

  friend auto operator<=>(const Edge&, const Edge&) = default;
};

DualStackCorpus DualStackCorpus::build(const dns::ResolutionSnapshot& snapshot,
                                       const bgp::Rib& rib) {
  DualStackCorpus corpus;
  corpus.stats_.snapshot_domains = snapshot.domain_count();
  std::vector<Edge> v4_edges;
  std::vector<Edge> v6_edges;

  for (const dns::DomainResolution& entry : snapshot.entries()) {
    if (!entry.dual_stack()) continue;
    // Identity is the response name: several queried names CNAME-ing to the
    // same target collapse into one service.
    const DomainId id = corpus.interner_.intern(entry.response_name);

    const auto map_address = [&](const IPAddress& address, std::vector<Edge>& edges) {
      if (is_reserved(address)) {
        ++corpus.stats_.discarded_reserved;
        return;
      }
      const auto route = rib.lookup(address);
      if (!route) {
        ++corpus.stats_.unmapped_addresses;
        return;
      }
      edges.push_back(Edge{route->prefix, address, id});
    };

    for (const IPv4Address& address : entry.v4) map_address(IPAddress(address), v4_edges);
    for (const IPv6Address& address : entry.v6) map_address(IPAddress(address), v6_edges);
  }

  flatten(v4_edges, corpus.index_.v4, corpus.v4_hosts_);
  flatten(v6_edges, corpus.index_.v6, corpus.v6_hosts_);

  corpus.stats_.dual_stack_domains = corpus.interner_.size();
  corpus.stats_.v4_prefixes = corpus.index_.v4.prefix_count();
  corpus.stats_.v6_prefixes = corpus.index_.v6.prefix_count();
  corpus.stats_.v4_hosts = corpus.v4_hosts_.addresses.size();
  corpus.stats_.v6_hosts = corpus.v6_hosts_.addresses.size();
  corpus.stats_.host_domain_edges =
      corpus.v4_hosts_.domains.size() + corpus.v6_hosts_.domains.size();
  return corpus;
}

void DualStackCorpus::flatten(std::vector<Edge>& edges, DetectIndex::Side& side,
                              HostTable& hosts) {
  std::sort(edges.begin(), edges.end());
  // An address listed twice in one entry, or by two entries with one
  // response name, is one edge.
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  // Every row offset is a uint32; the index side checks its own.
  if (edges.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("DualStackCorpus: family exceeds 2^32 host-domain edges");
  }

  // One walk: each prefix run is one index row and one range of host rows;
  // each host run inside it is one host row, its ids already ascending.
  DomainSet prefix_ids;
  for (std::size_t i = 0; i < edges.size();) {
    const Prefix& prefix = edges[i].prefix;
    prefix_ids.clear();
    for (; i < edges.size() && edges[i].prefix == prefix;) {
      const IPAddress& host = edges[i].host;
      hosts.addresses.push_back(host);
      for (; i < edges.size() && edges[i].prefix == prefix && edges[i].host == host; ++i) {
        hosts.domains.push_back(edges[i].id);
        prefix_ids.push_back(edges[i].id);
      }
      hosts.domain_offsets.push_back(static_cast<std::uint32_t>(hosts.domains.size()));
    }
    hosts.prefix_rows.push_back(static_cast<std::uint32_t>(hosts.addresses.size()));
    normalize(prefix_ids);
    side.append(prefix, prefix_ids);
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
