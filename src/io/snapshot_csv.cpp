#include "io/snapshot_csv.h"

#include <charconv>
#include <string_view>

#include "io/csv.h"

namespace sp::io {

namespace {

const CsvRow kHeader = {"queried", "response", "v4_addrs", "v6_addrs"};

std::string join_v4(const std::vector<IPv4Address>& addresses) {
  std::string out;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    if (i > 0) out.push_back('|');
    out += addresses[i].to_string();
  }
  return out;
}

std::string join_v6(const std::vector<IPv6Address>& addresses) {
  std::string out;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    if (i > 0) out.push_back('|');
    out += addresses[i].to_string();
  }
  return out;
}

// Splits "a|b|c" and parses each element; empty input gives an empty list.
template <typename Address, typename Parse>
bool split_addresses(std::string_view text, Parse parse, std::vector<Address>& out) {
  if (text.empty()) return true;
  std::size_t start = 0;
  while (true) {
    const std::size_t bar = text.find('|', start);
    const std::string_view token =
        text.substr(start, bar == std::string_view::npos ? std::string_view::npos : bar - start);
    const auto parsed = parse(token);
    if (!parsed) return false;
    out.push_back(*parsed);
    if (bar == std::string_view::npos) return true;
    start = bar + 1;
  }
}

std::optional<Date> parse_date(const std::string& text) {
  // "2024-09-11"
  if (text.size() != 10 || text[4] != '-' || text[7] != '-') return std::nullopt;
  Date date;
  const auto parse_int = [&](std::size_t pos, std::size_t len, std::int32_t& out) {
    const auto result =
        std::from_chars(text.data() + pos, text.data() + pos + len, out);
    return result.ec == std::errc{} && result.ptr == text.data() + pos + len;
  };
  if (!parse_int(0, 4, date.year) || !parse_int(5, 2, date.month) ||
      !parse_int(8, 2, date.day)) {
    return std::nullopt;
  }
  if (date.month < 1 || date.month > 12 || date.day < 1 || date.day > 31) return std::nullopt;
  return date;
}

}  // namespace

bool write_snapshot_csv(const std::string& path, const dns::ResolutionSnapshot& snapshot) {
  std::vector<CsvRow> rows;
  rows.reserve(snapshot.domain_count() + 2);
  rows.push_back({"#date", snapshot.date().to_string()});
  rows.push_back(kHeader);
  for (const auto& entry : snapshot.entries()) {
    rows.push_back({entry.queried.to_string(), entry.response_name.to_string(),
                    join_v4(entry.v4), join_v6(entry.v6)});
  }
  return write_csv_file(path, rows);
}

std::optional<dns::ResolutionSnapshot> read_snapshot_csv(const std::string& path) {
  const auto rows = read_csv_file(path);
  if (!rows || rows->size() < 2) return std::nullopt;
  if ((*rows)[0].size() != 2 || (*rows)[0][0] != "#date") return std::nullopt;
  const auto date = parse_date((*rows)[0][1]);
  if (!date) return std::nullopt;
  if ((*rows)[1] != kHeader) return std::nullopt;

  dns::ResolutionSnapshot snapshot(*date);
  for (std::size_t i = 2; i < rows->size(); ++i) {
    const CsvRow& row = (*rows)[i];
    if (row.size() != kHeader.size()) return std::nullopt;
    dns::DomainResolution entry;
    const auto queried = dns::DomainName::from_string(row[0]);
    const auto response = dns::DomainName::from_string(row[1]);
    if (!queried || !response) return std::nullopt;
    entry.queried = *queried;
    entry.response_name = *response;
    if (!split_addresses<IPv4Address>(row[2], &IPv4Address::from_string, entry.v4) ||
        !split_addresses<IPv6Address>(row[3], &IPv6Address::from_string, entry.v6)) {
      return std::nullopt;
    }
    snapshot.add(std::move(entry));
  }
  return snapshot;
}

}  // namespace sp::io
