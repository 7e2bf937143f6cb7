// The split-and-tokenize IPv6 text parser, kept as a test-only oracle for
// IPv6Address::from_string the way reference_corpus.h serves the corpus
// build.
//
// reference_parse_ipv6 reads an address the straightforward way: it splits
// the text at the first "::", rejects a second one, splits each side at
// its colons into tokens, and parses every token on its own (a hex group,
// or a final dotted quad). The library parses the same language in one
// left-to-right pass over a hex table; netbase_ip_test asserts the two
// accept the same strings and produce the same bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "netbase/ip.h"

namespace sp::testsupport {

namespace reference_ip_detail {

inline std::optional<unsigned> hex_digit(char c) {
  if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
  if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
  return std::nullopt;
}

/// The 16-bit groups on one side of an IPv6 address's "::".
struct GroupList {
  std::array<std::uint16_t, 8> groups{};
  std::size_t size = 0;
};

// Parses a colon-separated group list, possibly ending in an embedded IPv4
// dotted quad (which contributes two groups). A side holding more than
// eight groups fails here: no address has that many.
inline bool parse_groups(std::string_view part, bool allow_embedded_v4, GroupList& out) {
  if (part.empty()) return true;
  std::size_t pos = 0;
  while (true) {
    // An embedded IPv4 address may only be the final component.
    const std::size_t next_colon = part.find(':', pos);
    const std::string_view token = part.substr(
        pos, next_colon == std::string_view::npos ? std::string_view::npos : next_colon - pos);
    if (token.empty()) return false;
    if (token.find('.') != std::string_view::npos) {
      if (!allow_embedded_v4 || next_colon != std::string_view::npos) return false;
      const auto v4 = IPv4Address::from_string(token);
      if (!v4 || out.size > 6) return false;
      out.groups[out.size++] = static_cast<std::uint16_t>(v4->value() >> 16);
      out.groups[out.size++] = static_cast<std::uint16_t>(v4->value() & 0xffff);
      return true;
    }
    if (token.size() > 4 || out.size == 8) return false;
    unsigned value = 0;
    for (const char c : token) {
      const auto digit = hex_digit(c);
      if (!digit) return false;
      value = (value << 4) | *digit;
    }
    out.groups[out.size++] = static_cast<std::uint16_t>(value);
    if (next_colon == std::string_view::npos) return true;
    pos = next_colon + 1;
  }
}

}  // namespace reference_ip_detail

/// RFC 4291 text to an address, or nullopt; the language of
/// IPv6Address::from_string.
inline std::optional<IPv6Address> reference_parse_ipv6(std::string_view text) {
  using reference_ip_detail::GroupList;
  using reference_ip_detail::parse_groups;
  if (text.empty() || text.find('%') != std::string_view::npos) return std::nullopt;

  // Split into the part before and after "::" (at most one occurrence).
  std::string_view head = text;
  std::string_view tail;
  bool has_gap = false;
  if (const auto gap = text.find("::"); gap != std::string_view::npos) {
    if (text.find("::", gap + 1) != std::string_view::npos) return std::nullopt;
    has_gap = true;
    head = text.substr(0, gap);
    tail = text.substr(gap + 2);
  }

  GroupList head_groups;
  GroupList tail_groups;
  if (!parse_groups(head, !has_gap, head_groups)) return std::nullopt;
  if (has_gap && !parse_groups(tail, true, tail_groups)) return std::nullopt;

  const std::size_t total = head_groups.size + tail_groups.size;
  if (has_gap) {
    // "::" must compress at least one group.
    if (total >= 8) return std::nullopt;
  } else if (total != 8) {
    return std::nullopt;
  }

  std::array<std::uint16_t, 8> groups{};
  for (std::size_t i = 0; i < head_groups.size; ++i) groups[i] = head_groups.groups[i];
  const std::size_t tail_start = 8 - tail_groups.size;
  for (std::size_t i = 0; i < tail_groups.size; ++i) {
    groups[tail_start + i] = tail_groups.groups[i];
  }
  return IPv6Address::from_groups(groups);
}

}  // namespace sp::testsupport
