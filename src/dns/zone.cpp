#include "dns/zone.h"

#include <algorithm>
#include <unordered_set>

namespace sp::dns {

namespace {

const std::vector<ResourceRecord> kNoRecords;

void sort_unique_v4(std::vector<IPv4Address>& addresses) {
  std::sort(addresses.begin(), addresses.end());
  addresses.erase(std::unique(addresses.begin(), addresses.end()), addresses.end());
}

void sort_unique_v6(std::vector<IPv6Address>& addresses) {
  std::sort(addresses.begin(), addresses.end());
  addresses.erase(std::unique(addresses.begin(), addresses.end()), addresses.end());
}

}  // namespace

void ZoneDatabase::add(ResourceRecord record) {
  by_name_[record.name].push_back(std::move(record));
  ++record_count_;
}

const std::vector<ResourceRecord>& ZoneDatabase::records(const DomainName& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoRecords : it->second;
}

std::vector<ResourceRecord> ZoneDatabase::records(const DomainName& name,
                                                  RecordType type) const {
  std::vector<ResourceRecord> out;
  for (const auto& record : records(name)) {
    if (record.type == type) out.push_back(record);
  }
  return out;
}

void ZoneDatabase::visit_records(
    const std::function<void(const ResourceRecord&)>& visit) const {
  std::vector<const DomainName*> names;
  names.reserve(by_name_.size());
  for (const auto& [name, records] : by_name_) names.push_back(&name);
  std::sort(names.begin(), names.end(),
            [](const DomainName* a, const DomainName* b) { return *a < *b; });
  for (const DomainName* name : names) {
    for (const auto& record : by_name_.at(*name)) visit(record);
  }
}

ResolutionResult ZoneDatabase::resolve(const DomainName& query) const {
  ResolutionResult result;
  result.queried = query;
  result.response_name = query;

  std::unordered_set<DomainName> visited{query};
  DomainName current = query;
  for (std::size_t depth = 0;; ++depth) {
    if (depth >= kMaxCnameDepth) {
      result.chain_too_long = true;
      break;
    }
    // A CNAME is exclusive with other data at the same name (RFC 1034
    // section 3.6.2), so chase it before collecting addresses.
    const auto cnames = records(current, RecordType::CNAME);
    if (cnames.empty()) {
      for (const auto& record : records(current)) {
        if (record.type == RecordType::A) {
          result.v4.push_back(std::get<IPv4Address>(record.data));
        } else if (record.type == RecordType::AAAA) {
          result.v6.push_back(std::get<IPv6Address>(record.data));
        }
      }
      break;
    }
    const DomainName& target = std::get<DomainName>(cnames.front().data);
    if (!visited.insert(target).second) {
      result.cname_loop = true;
      break;
    }
    result.cname_chain.push_back(target);
    current = target;
  }
  result.response_name = current;
  sort_unique_v4(result.v4);
  sort_unique_v6(result.v6);
  return result;
}

}  // namespace sp::dns
