// Serialization of sibling prefix lists — the artifact the paper publishes
// at sibling-prefixes.github.io for operators and researchers.
//
// Format: CSV (io/csv.h's dialect) with header
//   v4_prefix,v6_prefix,similarity,shared_domains,v4_domains,v6_domains
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/detect.h"

namespace sp::core {

/// Writes the pair list; returns false on I/O error.
[[nodiscard]] bool write_sibling_list(const std::string& path,
                                      std::span<const SiblingPair> pairs);

/// Why read_sibling_list failed. `line` is the 1-based CSV line of the
/// offending row (0 for file-level failures such as an unreadable file).
struct SiblingListError {
  std::size_t line = 0;
  std::string message;
};

/// Reads a pair list previously written by write_sibling_list: the whole
/// file is read into memory, and each row's fields (io::CsvCursor views)
/// become a SiblingPair. A similarity must be a finite value in [0, 1].
/// Returns nullopt on I/O error, a malformed header, or any unparsable
/// row; when `error` is non-null it receives the offending line and a
/// reason.
[[nodiscard]] std::optional<std::vector<SiblingPair>> read_sibling_list(
    const std::string& path, SiblingListError* error = nullptr);

}  // namespace sp::core
