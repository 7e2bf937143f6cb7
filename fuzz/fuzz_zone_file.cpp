// Fuzz target: sp::dns::parse_zone_text, the tokenizer behind
// sp_pipeline's `.zone` input, must stop on arbitrary bytes with an
// error or with records added — never crash — and count exactly the
// records it added to the database. Every owner name it added must then
// resolve (CNAME chasing with its loop and depth guards) without
// crashing, to a chain within the depth guard and sorted, deduplicated
// addresses.
#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "dns/zonefile.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  sp::dns::ZoneDatabase zones;
  const sp::dns::ZoneParseResult result = sp::dns::parse_zone_text(text, zones);
  if (result.records_added != zones.record_count()) __builtin_trap();

  std::vector<sp::dns::DomainName> owners;
  zones.visit_records([&](const sp::dns::ResourceRecord& record) {
    if (owners.empty() || owners.back() != record.name) owners.push_back(record.name);
  });
  const auto sorted_unique = [](const auto& addresses) {
    return std::is_sorted(addresses.begin(), addresses.end()) &&
           std::adjacent_find(addresses.begin(), addresses.end()) == addresses.end();
  };
  for (const sp::dns::DomainName& owner : owners) {
    const sp::dns::ResolutionResult resolved = zones.resolve(owner);
    if (resolved.cname_chain.size() > sp::dns::ZoneDatabase::kMaxCnameDepth) __builtin_trap();
    if (!sorted_unique(resolved.v4) || !sorted_unique(resolved.v6)) __builtin_trap();
  }
  return 0;
}
