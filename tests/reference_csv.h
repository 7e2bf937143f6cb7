// The CSV tokenizers io::CsvCursor replaced, kept as test-only oracles
// the way reference_snapshot_csv.h serves the snapshot reader.
//
// reference_parse_csv is a character state machine over a whole
// document; reference_read_csv_stream is a chunked copy of it that reads
// an istream 64 KiB at a time and reports the 1-based line each row
// starts on. Both read io/csv.h's dialect. io_csv_test asserts that
// parse_csv accepts the same documents with the same rows and that the
// cursor reports the same row lines; the sibling-list oracle reads lists
// through reference_read_csv_stream.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/csv.h"

namespace sp::testsupport {

namespace reference_csv_detail {

/// The end of the run of bytes from `i` that the unquoted state copies as
/// they are: everything but a quote, a comma and a line break.
inline std::size_t ordinary_run_end(std::string_view text, std::size_t i) {
  while (i < text.size() && text[i] != '"' && text[i] != ',' && text[i] != '\r' &&
         text[i] != '\n') {
    ++i;
  }
  return i;
}

}  // namespace reference_csv_detail

/// The whole document as rows; nullopt on a quote left open.
inline std::optional<std::vector<io::CsvRow>> reference_parse_csv(std::string_view text) {
  std::vector<io::CsvRow> rows;
  io::CsvRow row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  const auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  const auto end_row = [&] {
    if (!row.empty() || field_started || !field.empty()) {
      end_field();
      rows.push_back(std::move(row));
      row.clear();
    }
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        // Everything up to the next quote is field content.
        const std::size_t end = std::min(text.find('"', i), text.size());
        field.append(text.substr(i, end - i));
        i = end - 1;
      }
      continue;
    }
    switch (c) {
      case '"':
        // RFC 4180: a quote only opens a quoted field at the start of the
        // field; after field content (`ab"cd`) it is a literal character.
        if (field.empty()) {
          in_quotes = true;
        } else {
          field.push_back('"');
        }
        field_started = true;
        break;
      case ',':
        end_field();
        field_started = true;  // next field exists even if empty
        break;
      case '\r':
        // Row terminator: CRLF (consume the LF too) or bare CR
        // (classic-Mac line ending). Quoted CRs never reach here.
        end_row();
        if (i + 1 < text.size() && text[i + 1] == '\n') ++i;
        break;
      case '\n':
        end_row();
        break;
      default: {
        const std::size_t end = reference_csv_detail::ordinary_run_end(text, i);
        field.append(text.substr(i, end - i));
        i = end - 1;
        field_started = true;
        break;
      }
    }
  }
  if (in_quotes) return std::nullopt;
  end_row();
  return rows;
}

/// Outcome of a streaming parse.
struct ReferenceCsvStreamStatus {
  bool ok = true;              // false: unbalanced quote at end of input
  std::size_t error_line = 0;  // 1-based row start line when !ok
};

/// Streams `in` row by row: `on_row(row, line)` is called per completed
/// row with the 1-based line the row starts on (quoted fields may span
/// lines); returning false stops early (status stays ok).
inline ReferenceCsvStreamStatus reference_read_csv_stream(
    std::istream& in, const std::function<bool(io::CsvRow&&, std::size_t)>& on_row) {
  io::CsvRow row;
  std::string field;
  bool in_quotes = false;
  bool quote_pending = false;  // saw '"' inside quotes; '""' escapes, else closes
  bool pending_cr = false;     // unquoted '\r' ended a row; swallow a following '\n'
  bool field_started = false;
  bool stopped = false;
  std::size_t line = 1;       // physical line of the cursor
  std::size_t row_line = 1;   // physical line the current row started on

  const auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  const auto end_row = [&] {
    if (!row.empty() || field_started || !field.empty()) {
      end_field();
      if (!on_row(std::move(row), row_line)) stopped = true;
      row.clear();
    }
  };

  char buffer[1 << 16];
  while (!stopped && in) {
    in.read(buffer, sizeof buffer);
    const auto got = static_cast<std::size_t>(in.gcount());
    for (std::size_t i = 0; i < got && !stopped; ++i) {
      const char c = buffer[i];
      if (pending_cr) {
        // The CR already terminated the row (and counted the line break);
        // an immediately following LF is the second half of a CRLF. The
        // flag lives outside the read loop so CRLF split across two
        // buffer fills is still one terminator.
        pending_cr = false;
        if (c == '\n') continue;
      }
      if (quote_pending) {
        quote_pending = false;
        if (c == '"') {
          field.push_back('"');
          continue;
        }
        in_quotes = false;  // the quote closed the field; reprocess c below
      }
      if (in_quotes) {
        if (c == '"') {
          quote_pending = true;
        } else {
          if (c == '\n') ++line;
          field.push_back(c);
        }
        continue;
      }
      switch (c) {
        case '"':
          // RFC 4180: a quote only opens a quoted field at the start of
          // the field; after field content it is a literal character.
          if (field.empty()) {
            in_quotes = true;
          } else {
            field.push_back('"');
          }
          field_started = true;
          break;
        case ',':
          end_field();
          field_started = true;  // next field exists even if empty
          break;
        case '\r':
          // Row terminator: CRLF or bare CR (classic-Mac); pending_cr
          // swallows the LF half of a CRLF at the top of the loop.
          end_row();
          ++line;
          row_line = line;
          pending_cr = true;
          break;
        case '\n':
          end_row();
          ++line;
          row_line = line;
          break;
        default:
          field.push_back(c);
          field_started = true;
          break;
      }
    }
  }
  if (stopped) return {};
  if (quote_pending) in_quotes = false;  // closing quote was the last byte
  if (in_quotes) return {.ok = false, .error_line = row_line};
  end_row();
  return {};
}

}  // namespace sp::testsupport
