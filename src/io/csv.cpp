#include "io/csv.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace sp::io {

namespace {

bool needs_quoting(std::string_view field) {
  return field.find_first_of(",\"\r\n") != std::string_view::npos;
}

/// The end of the run of bytes from `i` that the unquoted state copies as
/// they are: everything but a quote, a comma and a line break.
std::size_t ordinary_run_end(std::string_view text, std::size_t i) {
  while (i < text.size() && text[i] != '"' && text[i] != ',' && text[i] != '\r' &&
         text[i] != '\n') {
    ++i;
  }
  return i;
}

}  // namespace

std::string format_csv_row(const CsvRow& row) {
  // A row holding exactly one empty field would otherwise render as an
  // empty line, which the parser treats as "no row"; quote it explicitly.
  if (row.size() == 1 && row[0].empty()) return "\"\"";
  std::string out;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out.push_back(',');
    if (needs_quoting(row[i])) {
      out.push_back('"');
      for (const char c : row[i]) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
      }
      out.push_back('"');
    } else {
      out += row[i];
    }
  }
  return out;
}

std::optional<std::vector<CsvRow>> parse_csv(std::string_view text) {
  std::vector<CsvRow> rows;
  CsvRow row;
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
        const std::size_t end = ordinary_run_end(text, i);
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

bool write_csv_file(const std::string& path, const std::vector<CsvRow>& rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const auto& row : rows) out << format_csv_row(row) << '\n';
  out.close();  // the last buffered bytes can fail to land too
  return static_cast<bool>(out);
}

std::optional<std::string> read_file_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string text;
  std::error_code error;
  if (const std::uintmax_t size = std::filesystem::file_size(path, error); !error) {
    text.resize(static_cast<std::size_t>(size));
    in.read(text.data(), static_cast<std::streamsize>(size));
    text.resize(static_cast<std::size_t>(in.gcount()));
  }
  char block[1 << 16];
  while (in.read(block, sizeof block) || in.gcount() > 0) {
    text.append(block, static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

std::optional<std::vector<CsvRow>> read_csv_file(const std::string& path) {
  const auto text = read_file_text(path);
  if (!text) return std::nullopt;
  return parse_csv(*text);
}

CsvStreamStatus read_csv_stream(std::istream& in,
                                const std::function<bool(CsvRow&&, std::size_t)>& on_row) {
  CsvRow row;
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

}  // namespace sp::io
