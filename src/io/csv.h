// RFC 4180-style CSV: the one dialect the project's CSV files are read
// and written in (the published sibling-prefix lists, resolution
// snapshots, experiment series, AS and ROA tables).
//
// Dialect:
//   - a field that starts with '"' is quoted: up to the closing quote,
//     commas, CRs and LFs are content and "" is one literal quote; bytes
//     after the closing quote up to the next comma or line break are
//     appended as they are. A '"' anywhere else in a field is a literal.
//     A quote left open at the end of the text rejects the document.
//   - a row ends at LF, CRLF or a bare CR; lines holding nothing (blank
//     lines, anywhere) are not rows, and the last row needs no line break.
//   - lines are counted at every LF, CRLF or bare CR outside quotes and
//     at every LF inside them; a row's line is the 1-based line it
//     starts on.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sp::io {

using CsvRow = std::vector<std::string>;

/// Walks a CSV document one row at a time, straight over its bytes. An
/// unquoted field is a view into the text; a quoted field is unescaped
/// into a buffer of its own column, so every view stays valid until the
/// next call to next(). parse_csv, read_csv_file, parse_snapshot_csv and
/// core::read_sibling_list all read through it.
class CsvCursor {
 public:
  enum class Next { row, end, bad };

  explicit CsvCursor(std::string_view text) : text_(text) {}

  /// Reads the next row: `end` once only blank lines are left, `bad` on a
  /// quote left open (and again on every later call).
  Next next();

  /// The fields of the row next() last read.
  [[nodiscard]] std::span<const std::string_view> fields() const { return fields_; }

  /// The 1-based line that row starts on; after `bad`, the line of the
  /// row whose quote is left open.
  [[nodiscard]] std::size_t line() const noexcept { return row_line_; }

 private:
  std::size_t next_of(std::size_t& cached, char c);
  std::size_t field_end();
  bool read_field();

  static constexpr std::size_t kUnsearched = std::string_view::npos;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;  // the line pos_ is on
  std::size_t row_line_ = 1;
  std::size_t comma_ = kUnsearched;
  std::size_t cr_ = kUnsearched;
  std::size_t lf_ = kUnsearched;
  std::vector<std::string_view> fields_;
  // One buffer per column; a deque, so adding a column moves none of the
  // buffers the row's earlier views point into.
  std::deque<std::string> unescaped_;
};

/// Escapes and joins one row (no trailing newline).
[[nodiscard]] std::string format_csv_row(const CsvRow& row);

/// Parses one CSV document into rows; nullopt on a quote left open.
[[nodiscard]] std::optional<std::vector<CsvRow>> parse_csv(std::string_view text);

/// Writes rows to a file; returns false on I/O error, including a failed
/// final flush.
[[nodiscard]] bool write_csv_file(const std::string& path, const std::vector<CsvRow>& rows);

/// Reads and parses a CSV file.
[[nodiscard]] std::optional<std::vector<CsvRow>> read_csv_file(const std::string& path);

/// A whole file's bytes, read with one read sized to the file (what the
/// size does not cover, from a pipe or a file that grew, follows in
/// blocks); nullopt when it cannot be opened or a read fails (a
/// directory, an I/O error partway).
[[nodiscard]] std::optional<std::string> read_file_text(const std::string& path);

}  // namespace sp::io
