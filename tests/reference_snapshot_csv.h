// The document-building snapshot CSV codec, kept as a test-only oracle for
// io::read_snapshot_csv / io::write_snapshot_csv the way
// reference_corpus.h serves the corpus build.
//
// The reference reader parses the whole file into a std::vector<CsvRow>
// with reference_parse_csv (reference_csv.h, a tokenizer of its own)
// first and then converts row by row; the reference
// writer builds every row as a CsvRow and hands the document to
// io::write_csv_file. The library reads each row's fields in place and
// formats rows into one reused buffer; io_snapshot_csv_test asserts the
// two accept the same documents with the same entries and write the
// same bytes.
#pragma once

#include <charconv>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dns/snapshot.h"
#include "io/csv.h"
#include "reference_csv.h"

namespace sp::testsupport {

namespace reference_snapshot_detail {

inline const io::CsvRow& header() {
  static const io::CsvRow kHeader = {"queried", "response", "v4_addrs", "v6_addrs"};
  return kHeader;
}

template <typename Address>
std::string join(const std::vector<Address>& addresses) {
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

inline std::optional<Date> parse_date(const std::string& text) {
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

inline std::optional<dns::ResolutionSnapshot> from_rows(
    const std::optional<std::vector<io::CsvRow>>& rows) {
  if (!rows || rows->size() < 2) return std::nullopt;
  if ((*rows)[0].size() != 2 || (*rows)[0][0] != "#date") return std::nullopt;
  const auto date = parse_date((*rows)[0][1]);
  if (!date) return std::nullopt;
  if ((*rows)[1] != header()) return std::nullopt;

  dns::ResolutionSnapshot snapshot(*date);
  for (std::size_t i = 2; i < rows->size(); ++i) {
    const io::CsvRow& row = (*rows)[i];
    if (row.size() != header().size()) return std::nullopt;
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

}  // namespace reference_snapshot_detail

/// The whole document as rows first, then each row as an entry.
inline std::optional<dns::ResolutionSnapshot> reference_parse_snapshot_csv(
    std::string_view text) {
  return reference_snapshot_detail::from_rows(reference_parse_csv(text));
}

inline std::optional<dns::ResolutionSnapshot> reference_read_snapshot_csv(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return reference_parse_snapshot_csv(text);
}

/// Every row as a CsvRow, written by io::write_csv_file.
inline bool reference_write_snapshot_csv(const std::string& path,
                                         const dns::ResolutionSnapshot& snapshot) {
  using reference_snapshot_detail::join;
  std::vector<io::CsvRow> rows;
  rows.reserve(snapshot.domain_count() + 2);
  rows.push_back({"#date", snapshot.date().to_string()});
  rows.push_back(reference_snapshot_detail::header());
  for (const auto& entry : snapshot.entries()) {
    rows.push_back({entry.queried.to_string(), entry.response_name.to_string(),
                    join(entry.v4), join(entry.v6)});
  }
  return io::write_csv_file(path, rows);
}

}  // namespace sp::testsupport
