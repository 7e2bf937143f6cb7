#include "core/sibling_list_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <string_view>

#include "io/csv.h"

namespace sp::core {

namespace {

constexpr std::array<std::string_view, 6> kHeader = {
    "v4_prefix", "v6_prefix", "similarity", "shared_domains", "v4_domains", "v6_domains"};

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const auto result = std::from_chars(text.data(), text.data() + text.size(), out);
  return result.ec == std::errc{} && result.ptr == text.data() + text.size();
}

}  // namespace

bool write_sibling_list(const std::string& path, std::span<const SiblingPair> pairs) {
  std::vector<io::CsvRow> rows;
  rows.reserve(pairs.size() + 1);
  rows.emplace_back(kHeader.begin(), kHeader.end());
  for (const SiblingPair& pair : pairs) {
    char similarity[32];
    std::snprintf(similarity, sizeof similarity, "%.9f", pair.similarity);
    rows.push_back({pair.v4.to_string(), pair.v6.to_string(), similarity,
                    std::to_string(pair.shared_domains), std::to_string(pair.v4_domain_count),
                    std::to_string(pair.v6_domain_count)});
  }
  return io::write_csv_file(path, rows);
}

namespace {

/// Parses one data row; on failure returns the reason.
const char* parse_row(std::span<const std::string_view> row, SiblingPair& pair) {
  if (row.size() != kHeader.size()) return "wrong column count";
  const auto v4 = Prefix::from_string(row[0]);
  if (!v4 || v4->family() != Family::v4) return "bad v4_prefix";
  const auto v6 = Prefix::from_string(row[1]);
  if (!v6 || v6->family() != Family::v6) return "bad v6_prefix";
  pair.v4 = *v4;
  pair.v6 = *v6;
  // A similarity is a Jaccard, Dice or overlap score: finite, in [0, 1].
  if (!parse_number(row[2], pair.similarity) || !(pair.similarity >= 0.0) ||
      pair.similarity > 1.0) {
    return "bad similarity";
  }
  if (!parse_number(row[3], pair.shared_domains)) return "bad shared_domains";
  if (!parse_number(row[4], pair.v4_domain_count)) return "bad v4_domains";
  if (!parse_number(row[5], pair.v6_domain_count)) return "bad v6_domains";
  return nullptr;
}

}  // namespace

std::optional<std::vector<SiblingPair>> read_sibling_list(const std::string& path,
                                                          SiblingListError* error) {
  const auto fail = [error](std::size_t line, std::string message) {
    if (error != nullptr) *error = {line, std::move(message)};
    return std::nullopt;
  };

  const auto text = io::read_file_text(path);
  if (!text) return fail(0, "cannot read file");

  using Next = io::CsvCursor::Next;
  io::CsvCursor rows(*text);
  std::vector<SiblingPair> pairs;
  Next next = rows.next();
  if (next == Next::end) return fail(0, "empty file");
  if (next == Next::row) {
    if (!std::ranges::equal(rows.fields(), kHeader)) return fail(rows.line(), "malformed header");
    while ((next = rows.next()) == Next::row) {
      SiblingPair pair;
      if (const char* reason = parse_row(rows.fields(), pair)) return fail(rows.line(), reason);
      pairs.push_back(pair);
    }
  }
  if (next == Next::bad) return fail(rows.line(), "unbalanced quote");
  return pairs;
}

}  // namespace sp::core
