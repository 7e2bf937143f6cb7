// RFC 1035 section 5 master-file (zone file) parsing.
//
// Supports the constructs real zones use: $ORIGIN and $TTL directives,
// '@' for the origin, relative owner names, owner inheritance from the
// previous record, ';' comments, parenthesized continuation lines (SOA),
// quoted TXT strings, and the record types the library models
// (A, AAAA, CNAME, NS, PTR, MX, TXT, SOA). CLASS is optional and must be
// IN when present.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "dns/zone.h"

namespace sp::dns {

struct ZoneParseError {
  std::size_t line = 0;  // 1-based line of the failing record
  std::string message;
};

struct ZoneParseResult {
  std::size_t records_added = 0;
  std::optional<ZoneParseError> error;  // set when parsing stopped early

  [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
};

/// Parses master-file text into `zones`. Stops at the first malformed
/// record; records before the error are kept (and counted).
[[nodiscard]] ZoneParseResult parse_zone_text(std::string_view text, ZoneDatabase& zones,
                                              const DomainName& default_origin = {});

/// Reads the file at `path` and parses it as above. A file that cannot be
/// opened or read is an error on line 0.
[[nodiscard]] ZoneParseResult parse_zone_file(const std::string& path, ZoneDatabase& zones,
                                              const DomainName& default_origin = {});

}  // namespace sp::dns
