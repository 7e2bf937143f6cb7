// Minimal RFC 4180-style CSV reading and writing (quoting, embedded
// commas/quotes/newlines). Used for the published sibling-prefix list
// artifact and for exporting experiment series.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sp::io {

using CsvRow = std::vector<std::string>;

/// Escapes and joins one row (no trailing newline).
[[nodiscard]] std::string format_csv_row(const CsvRow& row);

/// Parses one CSV document; handles quoted fields with embedded commas,
/// quotes ("" escape) and newlines. Returns nullopt on unbalanced quotes.
[[nodiscard]] std::optional<std::vector<CsvRow>> parse_csv(std::string_view text);

/// Writes rows to a file; returns false on I/O error, including a failed
/// final flush.
[[nodiscard]] bool write_csv_file(const std::string& path, const std::vector<CsvRow>& rows);

/// Reads and parses a CSV file.
[[nodiscard]] std::optional<std::vector<CsvRow>> read_csv_file(const std::string& path);

/// A whole file's bytes, read with one read sized to the file (what the
/// size does not cover, from a pipe or a file that grew, follows in
/// blocks); nullopt when it cannot be opened.
[[nodiscard]] std::optional<std::string> read_file_text(const std::string& path);

/// Outcome of a streaming parse.
struct CsvStreamStatus {
  bool ok = true;              // false: unbalanced quote at end of input
  std::size_t error_line = 0;  // 1-based row start line when !ok
};

/// Streams `in` row by row without materializing the document — the
/// constant-memory path for large artifacts (published sibling lists).
/// `on_row(row, line)` is called per completed row with the 1-based
/// physical line the row starts on (quoted fields may span lines);
/// returning false stops early (status stays ok). Same dialect as
/// parse_csv: quoted fields, "" escapes, CRLF tolerated.
[[nodiscard]] CsvStreamStatus read_csv_stream(
    std::istream& in, const std::function<bool(CsvRow&&, std::size_t)>& on_row);

}  // namespace sp::io
