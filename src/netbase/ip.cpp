#include "netbase/ip.h"

#include <charconv>
#include <stdexcept>

namespace sp {

namespace {

// Parses a decimal octet (0-255) without leading zeros. Advances `pos`.
std::optional<std::uint8_t> parse_octet(std::string_view text, std::size_t& pos) {
  if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') return std::nullopt;
  const std::size_t start = pos;
  unsigned value = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    value = value * 10 + static_cast<unsigned>(text[pos] - '0');
    ++pos;
    if (pos - start > 3) return std::nullopt;
  }
  if (value > 255) return std::nullopt;
  if (pos - start > 1 && text[start] == '0') return std::nullopt;  // leading zero
  return static_cast<std::uint8_t>(value);
}

// The value of each byte as a hex digit; kNotHex for every other byte.
constexpr std::uint8_t kNotHex = 0xff;
constexpr std::array<std::uint8_t, 256> kHexValue = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kNotHex);
  for (unsigned c = '0'; c <= '9'; ++c) table[c] = static_cast<std::uint8_t>(c - '0');
  for (unsigned c = 'a'; c <= 'f'; ++c) table[c] = static_cast<std::uint8_t>(c - 'a' + 10);
  for (unsigned c = 'A'; c <= 'F'; ++c) table[c] = static_cast<std::uint8_t>(c - 'A' + 10);
  return table;
}();

}  // namespace

std::string_view family_name(Family family) noexcept {
  return family == Family::v4 ? "IPv4" : "IPv6";
}

std::size_t hash_bytes(const std::uint8_t* data, std::size_t size, std::size_t seed) noexcept {
  std::size_t hash = 14695981039346656037ull ^ seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

bool is_reserved(const IPv4Address& address) noexcept {
  const std::uint32_t v = address.value();
  const auto in = [v](std::uint32_t base, unsigned length) {
    return (v >> (32u - length)) == (base >> (32u - length));
  };
  return in(0x00000000u, 8) ||    // 0.0.0.0/8 "this network"
         in(0x0A000000u, 8) ||    // 10/8 private
         in(0x64400000u, 10) ||   // 100.64/10 CGN
         in(0x7F000000u, 8) ||    // 127/8 loopback
         in(0xA9FE0000u, 16) ||   // 169.254/16 link-local
         in(0xAC100000u, 12) ||   // 172.16/12 private
         in(0xC0000200u, 24) ||   // 192.0.2/24 TEST-NET-1
         in(0xC0A80000u, 16) ||   // 192.168/16 private
         in(0xC6120000u, 15) ||   // 198.18/15 benchmarking
         in(0xC6336400u, 24) ||   // 198.51.100/24 TEST-NET-2
         in(0xCB007100u, 24) ||   // 203.0.113/24 TEST-NET-3
         in(0xE0000000u, 4) ||    // 224/4 multicast
         in(0xF0000000u, 4);      // 240/4 class E (incl. broadcast)
}

bool is_reserved(const IPv6Address& address) noexcept {
  // Global unicast is 2000::/3; everything else (::, ::1, fe80::/10,
  // fc00::/7, ff00::/8, 2001:db8::/32 doc space, ...) is non-routable or
  // special purpose. Documentation space is additionally excluded.
  const std::uint8_t top = address.bytes()[0];
  if ((top & 0xE0u) != 0x20u) return true;
  return address.group(0) == 0x2001 && address.group(1) == 0x0db8;  // 2001:db8::/32
}

bool is_reserved(const IPAddress& address) noexcept {
  return address.is_v4() ? is_reserved(address.v4()) : is_reserved(address.v6());
}

std::optional<IPv4Address> IPv4Address::from_string(std::string_view text) {
  std::size_t pos = 0;
  std::array<std::uint8_t, 4> octets{};
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (pos >= text.size() || text[pos] != '.') return std::nullopt;
      ++pos;
    }
    const auto octet = parse_octet(text, pos);
    if (!octet) return std::nullopt;
    octets[static_cast<std::size_t>(i)] = *octet;
  }
  if (pos != text.size()) return std::nullopt;
  return from_octets(octets[0], octets[1], octets[2], octets[3]);
}

std::string IPv4Address::to_string() const {
  const auto o = octets();
  std::string out;
  out.reserve(15);
  for (int i = 0; i < 4; ++i) {
    if (i > 0) out.push_back('.');
    out += std::to_string(o[static_cast<std::size_t>(i)]);
  }
  return out;
}

IPv6Address IPv6Address::from_groups(const std::array<std::uint16_t, 8>& groups) {
  Bytes bytes{};
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[2 * i] = static_cast<std::uint8_t>(groups[i] >> 8);
    bytes[2 * i + 1] = static_cast<std::uint8_t>(groups[i] & 0xff);
  }
  return IPv6Address(bytes);
}

std::optional<IPv6Address> IPv6Address::from_string(std::string_view text) {
  // One pass, left to right. Groups land in order of appearance; those
  // after "::" move to the end of the address once the count is known.
  // The language is RFC 4291's: 1-4 hex digits per group, at most one
  // "::" (compressing at least one group), and a dotted quad allowed only
  // as the last component.
  std::array<std::uint16_t, 8> groups{};
  std::size_t count = 0;
  bool has_gap = false;
  std::size_t gap_at = 0;  // groups before the "::"
  const std::size_t size = text.size();
  std::size_t i = 0;
  if (size >= 2 && text[0] == ':' && text[1] == ':') {
    has_gap = true;
    i = 2;
  }
  while (i < size) {
    const std::size_t start = i;
    unsigned value = 0;
    while (i < size && i - start < 4) {
      const std::uint8_t digit = kHexValue[static_cast<unsigned char>(text[i])];
      if (digit == kNotHex) break;
      value = (value << 4) | digit;
      ++i;
    }
    if (i < size && text[i] == '.') {
      // An embedded dotted quad: the rest of the text, two groups.
      const auto v4 = IPv4Address::from_string(text.substr(start));
      if (!v4 || count > 6) return std::nullopt;
      groups[count++] = static_cast<std::uint16_t>(v4->value() >> 16);
      groups[count++] = static_cast<std::uint16_t>(v4->value() & 0xffff);
      break;
    }
    if (i == start || count == 8) return std::nullopt;  // empty group, or a ninth
    groups[count++] = static_cast<std::uint16_t>(value);
    if (i == size) break;
    if (text[i] != ':') return std::nullopt;  // a fifth digit or a stray byte
    if (++i == size) return std::nullopt;     // trailing single colon
    if (text[i] == ':') {
      if (has_gap) return std::nullopt;
      has_gap = true;
      gap_at = count;
      ++i;
    }
  }
  if (has_gap ? count >= 8 : count != 8) return std::nullopt;

  if (has_gap) {
    const std::size_t tail = count - gap_at;
    for (std::size_t k = tail; k-- > 0;) groups[8 - tail + k] = groups[gap_at + k];
    for (std::size_t k = gap_at; k < 8 - tail; ++k) groups[k] = 0;
  }
  return from_groups(groups);
}

std::string IPv6Address::to_string() const {
  // RFC 5952: compress the longest run of two or more zero groups,
  // choosing the leftmost run on ties; lowercase hex, no leading zeros.
  std::array<std::uint16_t, 8> groups{};
  for (unsigned i = 0; i < 8; ++i) groups[i] = group(i);

  int best_start = -1;
  int best_len = 0;
  for (int i = 0; i < 8;) {
    if (groups[static_cast<std::size_t>(i)] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[static_cast<std::size_t>(j)] == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(41);
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      out += "::";
      i += best_len;
      continue;
    }
    if (!out.empty() && out.back() != ':') out.push_back(':');
    const std::uint16_t g = groups[static_cast<std::size_t>(i)];
    bool emitted = false;
    for (int shift = 12; shift >= 0; shift -= 4) {
      const unsigned digit = (g >> shift) & 0xf;
      if (digit != 0 || emitted || shift == 0) {
        out.push_back(kHex[digit]);
        emitted = true;
      }
    }
    ++i;
  }
  if (out.empty()) out = "::";
  return out;
}

std::optional<IPAddress> IPAddress::from_string(std::string_view text) {
  if (text.find(':') != std::string_view::npos) {
    const auto v6 = IPv6Address::from_string(text);
    if (!v6) return std::nullopt;
    return IPAddress(*v6);
  }
  const auto v4 = IPv4Address::from_string(text);
  if (!v4) return std::nullopt;
  return IPAddress(*v4);
}

IPAddress IPAddress::must_parse(std::string_view text) {
  const auto parsed = from_string(text);
  if (!parsed) throw std::invalid_argument("invalid IP address: " + std::string(text));
  return *parsed;
}

std::string IPAddress::to_string() const {
  return is_v4() ? v4().to_string() : v6().to_string();
}

}  // namespace sp
