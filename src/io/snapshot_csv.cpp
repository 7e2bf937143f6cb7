#include "io/snapshot_csv.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
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

/// Walks a CSV document one row at a time, straight over its bytes. An
/// unquoted field is a view into the text; a quoted field is unescaped
/// into a buffer of its own column, so every view stays valid until the
/// next row. Rows of more than kColumns fields are rejected on sight:
/// no row of a snapshot has that many.
class RowCursor {
 public:
  enum class Next { row, end, bad };

  explicit RowCursor(std::string_view text) : text_(text) {}

  /// Reads the next row: `end` once only blank lines are left, `bad` on a
  /// quote left open or a row too wide.
  Next next() {
    while (pos_ < text_.size() && (text_[pos_] == '\n' || text_[pos_] == '\r')) ++pos_;
    if (pos_ == text_.size()) return Next::end;
    count_ = 0;
    while (true) {
      if (count_ == kColumns || !read_field()) return Next::bad;
      if (pos_ == text_.size()) return Next::row;
      const char stop = text_[pos_++];
      if (stop == ',') continue;
      if (stop == '\r' && pos_ < text_.size() && text_[pos_] == '\n') ++pos_;
      return Next::row;
    }
  }

  [[nodiscard]] std::span<const std::string_view> fields() const {
    return {fields_.data(), count_};
  }

 private:
  /// The position of the next `c` at or after pos_, or the end. Each of
  /// the three stop bytes keeps its next position, found by memchr and
  /// searched for again only once the cursor has passed it, so the text
  /// is scanned once per stop byte however its rows end.
  std::size_t next_of(std::size_t& cached, char c) {
    if (cached == kUnsearched || cached < pos_) {
      const void* hit = std::memchr(text_.data() + pos_, c, text_.size() - pos_);
      cached = hit == nullptr ? text_.size()
                              : static_cast<std::size_t>(static_cast<const char*>(hit) -
                                                         text_.data());
    }
    return cached;
  }

  /// The first comma, CR or LF at or after pos_, or the end.
  std::size_t field_end() {
    return std::min({next_of(comma_, ','), next_of(cr_, '\r'), next_of(lf_, '\n')});
  }

  /// Reads one field from pos_ up to its comma or line break (left
  /// unconsumed); false when its quote never closes.
  bool read_field() {
    const std::size_t start = pos_;
    if (start == text_.size() || text_[start] != '"') {
      pos_ = field_end();
      fields_[count_++] = text_.substr(start, pos_ - start);
      return true;
    }
    std::string& content = unescaped_[count_];
    content.clear();
    ++pos_;
    while (true) {
      const std::size_t quote = text_.find('"', pos_);
      if (quote == std::string_view::npos) return false;
      content.append(text_, pos_, quote - pos_);
      pos_ = quote + 1;
      if (pos_ == text_.size() || text_[pos_] != '"') break;
      content.push_back('"');  // "" inside quotes
      ++pos_;
    }
    const std::size_t end = field_end();  // bytes after the closing quote
    content.append(text_, pos_, end - pos_);
    pos_ = end;
    fields_[count_++] = content;
    return true;
  }

  static constexpr std::size_t kUnsearched = std::string_view::npos;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t comma_ = kUnsearched;
  std::size_t cr_ = kUnsearched;
  std::size_t lf_ = kUnsearched;
  std::array<std::string_view, kColumns> fields_;
  std::array<std::string, kColumns> unescaped_;
  std::size_t count_ = 0;
};

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
  using Next = RowCursor::Next;
  RowCursor rows(text);
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
    fields = rows.fields();
    if (next == Next::bad || fields.size() != kColumns) return std::nullopt;
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
