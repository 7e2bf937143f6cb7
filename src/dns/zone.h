// Zone database and CNAME resolution.
//
// ZoneDatabase is a record store filled from zone files (see zonefile.h).
// `resolve` follows CNAME chains (with loop and depth guards) exactly like
// step 1 of the paper's methodology: the *response* name at the end of the
// chain, not the queried name, identifies the service.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dns/record.h"

namespace sp::dns {

/// Result of resolving one domain through the CNAME chain.
struct ResolutionResult {
  DomainName queried;
  /// Final name at the end of the CNAME chain (equals `queried` when the
  /// name has no CNAME). This is the identity used by sibling detection.
  DomainName response_name;
  /// Intermediate CNAME targets in order (excluding `queried`).
  std::vector<DomainName> cname_chain;
  std::vector<IPv4Address> v4;
  std::vector<IPv6Address> v6;
  bool cname_loop = false;
  bool chain_too_long = false;

  [[nodiscard]] bool has_v4() const noexcept { return !v4.empty(); }
  [[nodiscard]] bool has_v6() const noexcept { return !v6.empty(); }
  [[nodiscard]] bool dual_stack() const noexcept { return has_v4() && has_v6(); }
};

class ZoneDatabase {
 public:
  /// Maximum CNAME chain length followed before giving up.
  static constexpr std::size_t kMaxCnameDepth = 8;

  void add(ResourceRecord record);

  /// All records owned by `name` (any type); empty when unknown.
  [[nodiscard]] const std::vector<ResourceRecord>& records(const DomainName& name) const;

  /// Records of one type owned by `name`.
  [[nodiscard]] std::vector<ResourceRecord> records(const DomainName& name,
                                                    RecordType type) const;

  [[nodiscard]] std::size_t record_count() const noexcept { return record_count_; }

  /// Visits every record, grouped by owner name in sorted name order.
  void visit_records(const std::function<void(const ResourceRecord&)>& visit) const;

  /// Resolves `query` for both A and AAAA, following CNAMEs. Addresses in
  /// the result are sorted and deduplicated.
  [[nodiscard]] ResolutionResult resolve(const DomainName& query) const;

 private:
  std::unordered_map<DomainName, std::vector<ResourceRecord>> by_name_;
  std::size_t record_count_ = 0;
};

}  // namespace sp::dns
