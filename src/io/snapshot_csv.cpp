#include "io/snapshot_csv.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <span>

#include "io/csv.h"

namespace sp::io {

namespace {

constexpr std::size_t kColumns = 4;
constexpr std::array<std::string_view, kColumns> kHeader = {"queried", "response", "v4_addrs",
                                                            "v6_addrs"};

/// The writer hands its buffer to the stream once it holds this much.
constexpr std::size_t kFlushBytes = std::size_t{1} << 16;

// Splits "a|b|c" and parses each element into `parsed` (scratch), then
// copies the list into `out` at its exact size; empty input gives an
// empty list.
template <typename Address>
bool split_addresses(std::string_view text, std::vector<Address>& parsed,
                     std::vector<Address>& out) {
  if (text.empty()) return true;
  parsed.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t bar = text.find('|', start);
    const auto address = Address::from_string(
        text.substr(start, bar == std::string_view::npos ? std::string_view::npos : bar - start));
    if (!address) return false;
    parsed.push_back(*address);
    if (bar == std::string_view::npos) break;
    start = bar + 1;
  }
  out.assign(parsed.begin(), parsed.end());
  return true;
}

std::optional<Date> parse_date(std::string_view text) {
  // "2024-09-11"
  if (text.size() != 10 || text[4] != '-' || text[7] != '-') return std::nullopt;
  Date date;
  const auto parse_int = [&](std::size_t pos, std::size_t len, std::int32_t& out) {
    const auto result = std::from_chars(text.data() + pos, text.data() + pos + len, out);
    return result.ec == std::errc{} && result.ptr == text.data() + pos + len;
  };
  if (!parse_int(0, 4, date.year) || !parse_int(5, 2, date.month) ||
      !parse_int(8, 2, date.day)) {
    return std::nullopt;
  }
  if (date.month < 1 || date.month > 12 || date.day < 1 || date.day > 31) return std::nullopt;
  return date;
}

void append_name(std::string& out, const dns::DomainName& name) {
  if (name.is_root()) {
    out.push_back('.');
  } else {
    out += name.text();
  }
}

template <typename Address>
void append_addresses(std::string& out, const std::vector<Address>& addresses) {
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    if (i > 0) out.push_back('|');
    out += addresses[i].to_string();
  }
}

}  // namespace

bool write_snapshot_csv(const std::string& path, const dns::ResolutionSnapshot& snapshot) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::string buffer;
  buffer.reserve(kFlushBytes + 1024);
  buffer += "#date,";
  buffer += snapshot.date().to_string();
  buffer += "\nqueried,response,v4_addrs,v6_addrs\n";
  for (const auto& entry : snapshot.entries()) {
    append_name(buffer, entry.queried);
    buffer.push_back(',');
    append_name(buffer, entry.response_name);
    buffer.push_back(',');
    append_addresses(buffer, entry.v4);
    buffer.push_back(',');
    append_addresses(buffer, entry.v6);
    buffer.push_back('\n');
    if (buffer.size() >= kFlushBytes) {
      out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  out.close();  // the last buffered bytes can fail to land too
  return static_cast<bool>(out);
}

std::optional<dns::ResolutionSnapshot> parse_snapshot_csv(std::string_view text) {
  using Next = CsvCursor::Next;
  CsvCursor rows(text);
  if (rows.next() != Next::row) return std::nullopt;
  std::span<const std::string_view> fields = rows.fields();
  if (fields.size() != 2 || fields[0] != "#date") return std::nullopt;
  const auto date = parse_date(fields[1]);
  if (!date) return std::nullopt;
  if (rows.next() != Next::row) return std::nullopt;
  fields = rows.fields();
  if (!std::equal(fields.begin(), fields.end(), kHeader.begin(), kHeader.end())) {
    return std::nullopt;
  }

  dns::ResolutionSnapshot snapshot(*date);
  std::vector<IPv4Address> v4_scratch;
  std::vector<IPv6Address> v6_scratch;
  while (true) {
    const Next next = rows.next();
    if (next == Next::end) return snapshot;
    if (next == Next::bad) return std::nullopt;
    fields = rows.fields();
    if (fields.size() != kColumns) return std::nullopt;
    dns::DomainResolution entry;
    auto queried = dns::DomainName::from_string(fields[0]);
    if (!queried) return std::nullopt;
    entry.queried = *std::move(queried);
    // Most rows (three in four of a synthetic month) answer under the
    // queried name itself, which then needs no second parse.
    if (fields[1] == fields[0]) {
      entry.response_name = entry.queried;
    } else {
      auto response = dns::DomainName::from_string(fields[1]);
      if (!response) return std::nullopt;
      entry.response_name = *std::move(response);
    }
    if (!split_addresses(fields[2], v4_scratch, entry.v4) ||
        !split_addresses(fields[3], v6_scratch, entry.v6)) {
      return std::nullopt;
    }
    snapshot.add(std::move(entry));
  }
}

std::optional<dns::ResolutionSnapshot> read_snapshot_csv(const std::string& path) {
  const auto text = read_file_text(path);
  if (!text) return std::nullopt;
  return parse_snapshot_csv(*text);
}

}  // namespace sp::io
