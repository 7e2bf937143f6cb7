// The map-and-trie corpus build, kept as a test-only oracle for
// DualStackCorpus::build the way detect_sibling_prefixes_serial serves the
// sharded detection driver.
//
// ReferenceCorpus maps every address the straightforward way: per-family
// prefix→set hash maps, a host→domains Patricia trie per family, and a
// host→announcement map, then flattens the prefix maps into a DetectIndex
// with a sort of the map entries. It is slow and allocation-heavy at
// scale, which is why the library builds from one sorted edge list
// instead; core_corpus_reference_test asserts the two agree on every view.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/rib.h"
#include "core/corpus.h"
#include "core/detect_index.h"
#include "core/domain_set.h"
#include "dns/snapshot.h"
#include "trie/prefix_trie.h"

namespace sp::testsupport {

class ReferenceCorpus {
 public:
  /// One populated host address inside an announced prefix.
  struct HostDomains {
    Prefix host;  // /32 or /128
    core::DomainSet domains;
  };

  [[nodiscard]] static ReferenceCorpus build(const dns::ResolutionSnapshot& snapshot,
                                             const bgp::Rib& rib) {
    ReferenceCorpus corpus;
    corpus.stats_.snapshot_domains = snapshot.domain_count();
    std::unordered_map<Prefix, Prefix> host_owner;  // host prefix → announced prefix

    for (const dns::DomainResolution& entry : snapshot.entries()) {
      if (!entry.dual_stack()) continue;
      const core::DomainId id = corpus.interner_.intern(entry.response_name);
      const auto map_address = [&](const IPAddress& address) {
        if (is_reserved(address)) {
          ++corpus.stats_.discarded_reserved;
          return;
        }
        const auto route = rib.lookup(address);
        if (!route) {
          ++corpus.stats_.unmapped_addresses;
          return;
        }
        const bool v4 = address.family() == Family::v4;
        (v4 ? corpus.v4_prefix_domains_ : corpus.v6_prefix_domains_)[route->prefix].push_back(id);
        (v4 ? corpus.v4_hosts_ : corpus.v6_hosts_)[Prefix::host(address)].push_back(id);
        host_owner[Prefix::host(address)] = route->prefix;
      };
      for (const IPv4Address& address : entry.v4) map_address(IPAddress(address));
      for (const IPv6Address& address : entry.v6) map_address(IPAddress(address));
    }

    for (auto* sets : {&corpus.v4_prefix_domains_, &corpus.v6_prefix_domains_}) {
      for (auto& [prefix, set] : *sets) core::normalize(set);
    }
    for (const auto& [host, announced] : host_owner) {
      const bool v4 = host.family() == Family::v4;
      core::DomainSet* domains = (v4 ? corpus.v4_hosts_ : corpus.v6_hosts_).find(host);
      core::normalize(*domains);
      ++(v4 ? corpus.stats_.v4_hosts : corpus.stats_.v6_hosts);
      corpus.stats_.host_domain_edges += domains->size();
      corpus.prefix_hosts_[announced].push_back(HostDomains{host, *domains});
    }
    for (auto& [announced, hosts] : corpus.prefix_hosts_) {
      std::sort(hosts.begin(), hosts.end(),
                [](const HostDomains& a, const HostDomains& b) { return a.host < b.host; });
    }

    corpus.stats_.dual_stack_domains = corpus.interner_.size();
    corpus.stats_.v4_prefixes = corpus.v4_prefix_domains_.size();
    corpus.stats_.v6_prefixes = corpus.v6_prefix_domains_.size();
    corpus.index_.v4 = flatten(corpus.v4_prefix_domains_);
    corpus.index_.v6 = flatten(corpus.v6_prefix_domains_);
    return corpus;
  }

  [[nodiscard]] const core::DualStackCorpus::Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const core::DomainInterner& interner() const noexcept { return interner_; }
  [[nodiscard]] const core::DetectIndex& detect_index() const noexcept { return index_; }

  [[nodiscard]] const std::unordered_map<Prefix, core::DomainSet>& prefix_domains(
      Family family) const noexcept {
    return family == Family::v4 ? v4_prefix_domains_ : v6_prefix_domains_;
  }

  /// Domain set of one prefix; nullptr when the prefix hosts no DS domain.
  [[nodiscard]] const core::DomainSet* domains_of(const Prefix& prefix) const noexcept {
    const auto& map = prefix_domains(prefix.family());
    const auto it = map.find(prefix);
    return it == map.end() ? nullptr : &it->second;
  }

  /// The hosts whose longest match is `announced`, ascending.
  [[nodiscard]] const std::vector<HostDomains>& hosts_of(const Prefix& announced) const {
    static const std::vector<HostDomains> kNoHosts;
    const auto it = prefix_hosts_.find(announced);
    return it == prefix_hosts_.end() ? kNoHosts : it->second;
  }

  /// Union of the domain sets of every host the trie holds under `prefix`.
  [[nodiscard]] core::DomainSet domains_within(const Prefix& prefix) const {
    core::DomainSet out;
    (prefix.family() == Family::v4 ? v4_hosts_ : v6_hosts_)
        .visit_covered(prefix, [&out](const Prefix&, const core::DomainSet& domains) {
          out.insert(out.end(), domains.begin(), domains.end());
        });
    core::normalize(out);
    return out;
  }

 private:
  /// One index side from a prefix→set map: entries sorted by prefix, sets
  /// concatenated, postings by the shared counting sort.
  static core::DetectIndex::Side flatten(
      const std::unordered_map<Prefix, core::DomainSet>& sets) {
    std::vector<std::pair<Prefix, const core::DomainSet*>> entries;
    for (const auto& [prefix, set] : sets) entries.emplace_back(prefix, &set);
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    core::DetectIndex::Side side;
    side.set_offsets.assign(1, 0);
    for (const auto& [prefix, set] : entries) {
      side.prefixes.push_back(prefix);
      side.set_elements.insert(side.set_elements.end(), set->begin(), set->end());
      side.set_offsets.push_back(static_cast<std::uint32_t>(side.set_elements.size()));
    }
    side.build_postings();
    return side;
  }

  core::DualStackCorpus::Stats stats_;
  core::DomainInterner interner_;
  std::unordered_map<Prefix, core::DomainSet> v4_prefix_domains_;
  std::unordered_map<Prefix, core::DomainSet> v6_prefix_domains_;
  PrefixTrie<core::DomainSet> v4_hosts_;
  PrefixTrie<core::DomainSet> v6_hosts_;
  std::unordered_map<Prefix, std::vector<HostDomains>> prefix_hosts_;
  core::DetectIndex index_;
};

}  // namespace sp::testsupport
