// CSV serialization of DNS resolution snapshots — the interchange format
// a user of the library would export from their own resolver runs (the
// OpenINTEL role) to feed the pipeline.
//
// Layout:
//   #date,2024-09-11
//   queried,response,v4_addrs,v6_addrs
//   www.shop.example,edge7.cdn.example,20.1.1.10|20.1.1.11,2620:100::10
//
// Address lists are '|'-separated and may be empty on one side.
//
// The file is read in io/csv.h's dialect. The first row is exactly
// "#date" and a YYYY-MM-DD date (month 1-12, day 1-31), the second
// exactly the four column names, and every later row has four fields:
// two domain names (dns::DomainName::from_string), then an IPv4 and an
// IPv6 address list, each empty or addresses joined by single '|' (no
// empty element).
// Anything else rejects the whole file.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "dns/snapshot.h"

namespace sp::io {

/// Writes a snapshot; returns false on I/O failure, including a failed
/// final flush. The writer never quotes: names and addresses hold no
/// comma, quote or line break.
[[nodiscard]] bool write_snapshot_csv(const std::string& path,
                                      const dns::ResolutionSnapshot& snapshot);

/// Parses a snapshot document in the layout above, reading each row's
/// fields in place through io::CsvCursor. Returns nullopt on anything the dialect rejects.
[[nodiscard]] std::optional<dns::ResolutionSnapshot> parse_snapshot_csv(std::string_view text);

/// Reads a snapshot previously written by write_snapshot_csv (or authored
/// by hand in the same layout). Returns nullopt on I/O failure, a missing
/// or malformed date/header row, or any unparsable entry.
[[nodiscard]] std::optional<dns::ResolutionSnapshot> read_snapshot_csv(
    const std::string& path);

}  // namespace sp::io
