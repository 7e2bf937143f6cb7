#include "io/csv.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace sp::io {

namespace {

bool needs_quoting(std::string_view field) {
  return field.find_first_of(",\"\r\n") != std::string_view::npos;
}

}  // namespace

CsvCursor::Next CsvCursor::next() {
  // Blank lines: an LF, a CRLF or a bare CR each end one line.
  while (pos_ < text_.size() && (text_[pos_] == '\n' || text_[pos_] == '\r')) {
    const bool crlf = text_[pos_] == '\r' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '\n';
    pos_ += crlf ? 2 : 1;
    ++line_;
  }
  row_line_ = line_;
  if (pos_ == text_.size()) return Next::end;
  fields_.clear();
  while (true) {
    if (!read_field()) return Next::bad;
    if (pos_ == text_.size()) return Next::row;
    const char stop = text_[pos_++];
    if (stop == ',') continue;
    if (stop == '\r' && pos_ < text_.size() && text_[pos_] == '\n') ++pos_;
    ++line_;
    return Next::row;
  }
}

/// The position of the next `c` at or after pos_, or the end. Each of the
/// three stop bytes keeps its next position, found by memchr and searched
/// for again only once the cursor has passed it, so the text is scanned
/// once per stop byte however its rows end.
std::size_t CsvCursor::next_of(std::size_t& cached, char c) {
  if (cached == kUnsearched || cached < pos_) {
    const void* hit = std::memchr(text_.data() + pos_, c, text_.size() - pos_);
    cached = hit == nullptr
                 ? text_.size()
                 : static_cast<std::size_t>(static_cast<const char*>(hit) - text_.data());
  }
  return cached;
}

/// The first comma, CR or LF at or after pos_, or the end.
std::size_t CsvCursor::field_end() {
  return std::min({next_of(comma_, ','), next_of(cr_, '\r'), next_of(lf_, '\n')});
}

/// Reads one field from pos_ up to its comma or line break (left
/// unconsumed); false, with pos_ left at the opening quote, when its
/// quote never closes.
bool CsvCursor::read_field() {
  const std::size_t start = pos_;
  if (start == text_.size() || text_[start] != '"') {
    pos_ = field_end();
    fields_.push_back(text_.substr(start, pos_ - start));
    return true;
  }
  if (unescaped_.size() <= fields_.size()) unescaped_.resize(fields_.size() + 1);
  std::string& content = unescaped_[fields_.size()];
  content.clear();
  std::size_t at = start + 1;
  while (true) {
    const std::size_t quote = text_.find('"', at);
    if (quote == std::string_view::npos) return false;
    content.append(text_, at, quote - at);
    at = quote + 1;
    if (at == text_.size() || text_[at] != '"') break;
    content.push_back('"');  // "" inside quotes
    ++at;
  }
  line_ += static_cast<std::size_t>(std::count(text_.data() + start, text_.data() + at, '\n'));
  pos_ = at;
  const std::size_t end = field_end();  // bytes after the closing quote
  content.append(text_, pos_, end - pos_);
  pos_ = end;
  fields_.push_back(content);
  return true;
}

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
  CsvCursor cursor(text);
  while (true) {
    switch (cursor.next()) {
      case CsvCursor::Next::row:
        rows.emplace_back(cursor.fields().begin(), cursor.fields().end());
        break;
      case CsvCursor::Next::end:
        return rows;
      case CsvCursor::Next::bad:
        return std::nullopt;
    }
  }
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
  if (in.bad()) return std::nullopt;
  return text;
}

std::optional<std::vector<CsvRow>> read_csv_file(const std::string& path) {
  const auto text = read_file_text(path);
  if (!text) return std::nullopt;
  return parse_csv(*text);
}

}  // namespace sp::io
