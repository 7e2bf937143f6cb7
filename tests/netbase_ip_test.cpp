// Unit and property tests for IPv4/IPv6 address parsing and formatting.
#include "netbase/ip.h"

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <string>
#include <unordered_set>

#include "reference_ip.h"

namespace sp {
namespace {

TEST(IPv4Address, ParsesDottedQuad) {
  const auto a = IPv4Address::from_string("192.0.2.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value(), 0xC0000201u);
  EXPECT_EQ(a->to_string(), "192.0.2.1");
}

TEST(IPv4Address, ParsesExtremes) {
  EXPECT_EQ(IPv4Address::from_string("0.0.0.0")->value(), 0u);
  EXPECT_EQ(IPv4Address::from_string("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(IPv4Address, RejectsMalformedInput) {
  for (const char* bad : {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.04", "01.2.3.4",
                          "1..2.3", "a.b.c.d", " 1.2.3.4", "1.2.3.4 ", "1.2.3.4/24",
                          "-1.2.3.4", "1.2.3.1000"}) {
    EXPECT_FALSE(IPv4Address::from_string(bad).has_value()) << bad;
  }
}

TEST(IPv4Address, OctetsRoundTrip) {
  const auto a = IPv4Address::from_octets(10, 20, 30, 40);
  const auto o = a.octets();
  EXPECT_EQ(o[0], 10);
  EXPECT_EQ(o[1], 20);
  EXPECT_EQ(o[2], 30);
  EXPECT_EQ(o[3], 40);
}

TEST(IPv4Address, BitIndexingFromMsb) {
  const auto a = IPv4Address(0x80000001u);
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_FALSE(a.bit(30));
  EXPECT_TRUE(a.bit(31));
}

TEST(IPv4Address, Ordering) {
  EXPECT_LT(IPv4Address::from_octets(10, 0, 0, 0), IPv4Address::from_octets(10, 0, 0, 1));
  EXPECT_LT(IPv4Address::from_octets(9, 255, 255, 255), IPv4Address::from_octets(10, 0, 0, 0));
}

TEST(IPv6Address, ParsesCanonicalForms) {
  const auto a = IPv6Address::from_string("2001:db8::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(0), 0x2001);
  EXPECT_EQ(a->group(1), 0x0db8);
  EXPECT_EQ(a->group(7), 0x0001);
  for (unsigned i = 2; i < 7; ++i) EXPECT_EQ(a->group(i), 0);
}

TEST(IPv6Address, ParsesAllZeros) {
  const auto a = IPv6Address::from_string("::");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, IPv6Address{});
  EXPECT_EQ(a->to_string(), "::");
}

TEST(IPv6Address, ParsesFullForm) {
  const auto a = IPv6Address::from_string("2001:0db8:0000:0000:0000:ff00:0042:8329");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "2001:db8::ff00:42:8329");
}

TEST(IPv6Address, ParsesEmbeddedIPv4) {
  const auto a = IPv6Address::from_string("::ffff:192.0.2.128");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(5), 0xffff);
  EXPECT_EQ(a->group(6), 0xC000);
  EXPECT_EQ(a->group(7), 0x0280);
  EXPECT_EQ(IPv6Address::from_string("::1.2.3.4")->to_string(), "::102:304");
  EXPECT_EQ(IPv6Address::from_string("::FFFF:10.0.0.1")->to_string(), "::ffff:a00:1");
}

TEST(IPv6Address, ParsesGapPositions) {
  EXPECT_TRUE(IPv6Address::from_string("::1").has_value());
  EXPECT_TRUE(IPv6Address::from_string("1::").has_value());
  EXPECT_TRUE(IPv6Address::from_string("1::1").has_value());
  EXPECT_TRUE(IPv6Address::from_string("1:2:3:4:5:6:7::").has_value());
  EXPECT_TRUE(IPv6Address::from_string("::1:2:3:4:5:6:7").has_value());
  EXPECT_TRUE(IPv6Address::from_string("1:2:3:4:5:6:1.2.3.4").has_value());
  EXPECT_EQ(IPv6Address::from_string("1::2:3:4:5:1.2.3.4")->to_string(), "1:0:2:3:4:5:102:304");
}

TEST(IPv6Address, RejectsMalformedInput) {
  for (const char* bad : {"", ":", ":::", "1::2::3", "12345::", "g::1", "1:2:3:4:5:6:7:8:9",
                          "1:2:3:4:5:6:7", "::1%eth0", "1:2:3:4:5:6:7:8::", "::1.2.3.4.5",
                          "1.2.3.4::", "::ffff:1.2.3.300", "2001:db8::1 ",
                          "1:2:3:4:5:6:7:1.2.3.4", "1:2:3:4:5:6::1.2.3.4", "::1:2:3:4:5:6:7:8",
                          "1:2:3:4:5:6:7:8:9:10",
                          // lone and trailing colons, a second or triple colon
                          ":1", "1:", "::1:", "1::2:", ":1::", "1:2:3:4:5:6:7:8:",
                          ":1:2:3:4:5:6:7:8", "1:::2", "1:::", ":::1",
                          // a dotted quad that is not the last component, or not strict
                          "::1.2.3.4:1", "::ffff:1.2.3.4:", "::1.2.3", "::01.2.3.4",
                          "::1234.1.1.1", "::a.1.2.3", "1:2:3:4:5:1.2.3.4"}) {
    EXPECT_FALSE(IPv6Address::from_string(bad).has_value()) << bad;
  }
}

// Differential tests: IPv6Address::from_string against the tokenizing
// parser it replaced (reference_ip.h). Both must accept the same strings
// and produce the same bytes.
struct ParserDiff {
  std::size_t compared = 0;
  std::size_t accepted = 0;
  std::size_t mismatches = 0;
  std::string examples;

  void compare(std::string_view text) {
    ++compared;
    const auto got = IPv6Address::from_string(text);
    const auto want = testsupport::reference_parse_ipv6(text);
    accepted += want.has_value() ? 1 : 0;
    if (got.has_value() == want.has_value() && (!got || *got == *want)) return;
    if (++mismatches <= 8) {
      examples += " \"" + std::string(text) + "\" (library " +
                  (got ? got->to_string() : "rejects") + ", reference " +
                  (want ? want->to_string() : "rejects") + ")";
    }
  }
};

// One hex group of `value`, zero-padded to `width` digits (no padding
// below the value's own digit count), letters upper-cased on request.
void append_group(std::string& out, unsigned value, int width, bool upper) {
  constexpr char kLower[] = "0123456789abcdef";
  constexpr char kUpper[] = "0123456789ABCDEF";
  char digits[8];
  int n = 0;
  do {
    digits[n++] = (upper ? kUpper : kLower)[value & 0xf];
    value >>= 4;
  } while (value != 0);
  for (int pad = n; pad < width; ++pad) out.push_back('0');
  while (n > 0) out.push_back(digits[--n]);
}

// `groups` colon-separated, with "::" in place of the `gap_len` groups
// from `gap_start` (none when gap_start < 0; gap_len 0 compresses
// nothing); each group padded to width() digits.
template <typename Width>
void append_groups(std::string& out, std::span<const unsigned> groups, int gap_start, int gap_len,
                   Width width, bool upper) {
  const int count = static_cast<int>(groups.size());
  bool gap_written = false;
  for (int i = 0; i < count;) {
    if (i == gap_start && !gap_written) {
      out += "::";
      gap_written = true;
      i += gap_len;
      continue;
    }
    if (!out.empty() && out.back() != ':') out.push_back(':');
    append_group(out, groups[static_cast<std::size_t>(i)], width(), upper);
    ++i;
  }
  if (gap_start == count && !gap_written) out += "::";
}

// An address-shaped string: eight groups (zero-biased, so runs occur),
// written out in full, with "::" over a random run (which may cover
// non-zero groups or nothing), or with a dotted quad in place of the last
// two groups; then, one time in three, damaged by one edit.
void structured_candidate(std::mt19937_64& rng, std::string& out) {
  const auto pick = [&rng](std::uint64_t n) { return static_cast<int>(rng() % n); };
  out.clear();
  std::array<unsigned, 8> groups{};
  for (auto& g : groups) g = pick(3) == 0 ? 0u : static_cast<unsigned>(rng() >> (pick(4) * 4 + 48));
  const bool upper = pick(4) == 0;
  const bool quad = pick(4) == 0;
  const int hex_groups = quad ? 6 : 8;
  const bool gap = pick(3) != 0;
  const int gap_start = gap ? pick(static_cast<std::uint64_t>(hex_groups) + 1) : -1;
  const int gap_len = gap ? pick(static_cast<std::uint64_t>(hex_groups - gap_start) + 1) : 0;
  const auto width = [&] {
    const int roll = pick(40);
    return roll == 0 ? 5 : roll < 10 ? 4 : 1;  // 5 digits is never valid
  };
  append_groups(out, std::span(groups).first(static_cast<std::size_t>(hex_groups)), gap_start,
                gap_len, width, upper);
  if (quad) {
    if (!out.empty() && out.back() != ':') out.push_back(':');
    const int octets = pick(8) == 0 ? 3 + 2 * pick(2) : 4;  // 3 or 5 octets sometimes
    for (int k = 0; k < octets; ++k) {
      if (k > 0) out.push_back('.');
      const int roll = pick(20);
      if (roll == 0) out.push_back('0');  // a leading zero
      out += std::to_string(roll == 1 ? 256 + pick(744) : pick(256));
    }
  }
  if (pick(3) != 0) return;
  constexpr char kNoise[] = "0123456789abcdefABCDEF:.%g ";
  const auto at = [&] { return static_cast<std::size_t>(pick(out.size() + 1)); };
  switch (pick(9)) {
    case 0: out.insert(at(), 1, kNoise[pick(sizeof kNoise - 1)]); break;
    case 1: if (!out.empty()) out.erase(at() % out.size(), 1); break;
    case 2: if (!out.empty()) out[at() % out.size()] = kNoise[pick(sizeof kNoise - 1)]; break;
    case 3: out += "%eth0"; break;
    case 4: out.push_back(':'); break;  // trailing colon
    case 5: out.insert(0, 1, ':'); break;  // leading lone colon
    case 6: out.insert(at(), "::"); break;  // a second gap, or a triple colon
    case 7: out += ":1"; break;  // one group too many, unless a gap absorbs it
    default: out = pick(2) == 0 ? ":" : "::"; break;
  }
}

// Bytes drawn from the address alphabet plus a few strangers.
void random_candidate(std::mt19937_64& rng, std::string& out) {
  constexpr char kAlphabet[] = "0123456789abcdefABCDEF::::::::....%gx ";
  out.clear();
  const std::size_t length = rng() % 48;
  for (std::size_t i = 0; i < length; ++i) out.push_back(kAlphabet[rng() % (sizeof kAlphabet - 1)]);
}

TEST(IPv6Differential, FourMillionStringsMatchReference) {
  std::mt19937_64 rng(20261019);
  ParserDiff diff;
  std::string text;
  for (int i = 0; i < 2'000'000; ++i) {
    structured_candidate(rng, text);
    diff.compare(text);
    random_candidate(rng, text);
    diff.compare(text);
  }
  EXPECT_EQ(diff.mismatches, 0u) << diff.examples;
  EXPECT_EQ(diff.compared, 4'000'000u);
  // The structured half must reach deep into the accept path.
  EXPECT_GT(diff.accepted, 500'000u);
}

TEST(IPv6Differential, EveryGapPositionMatchesReference) {
  // Every (start, length) of "::" over eight groups, including runs that
  // cover non-zero groups and the empty run, with and without a final
  // dotted quad.
  std::mt19937_64 rng(7);
  ParserDiff diff;
  std::string text;
  for (int sample = 0; sample < 200; ++sample) {
    std::array<unsigned, 8> groups{};
    for (auto& g : groups) g = static_cast<unsigned>(rng() % 3 == 0 ? 0 : rng() & 0xffff);
    for (const bool quad : {false, true}) {
      const int hex_groups = quad ? 6 : 8;
      for (int start = 0; start <= hex_groups; ++start) {
        for (int len = 0; start + len <= hex_groups; ++len) {
          text.clear();
          append_groups(text, std::span(groups).first(static_cast<std::size_t>(hex_groups)),
                        start, len, [] { return 1; }, false);
          if (quad) {
            if (text.back() != ':') text.push_back(':');
            text += std::to_string(groups[6] >> 8) + "." + std::to_string(groups[6] & 0xff) + "." +
                    std::to_string(groups[7] >> 8) + "." + std::to_string(groups[7] & 0xff);
          }
          diff.compare(text);
        }
      }
    }
  }
  EXPECT_EQ(diff.mismatches, 0u) << diff.examples;
  EXPECT_GT(diff.accepted, 0u);
}

TEST(IPv6Address, Rfc5952CompressesLongestRun) {
  // Longest run wins; leftmost on ties; single zero group is not compressed.
  EXPECT_EQ(IPv6Address::from_string("2001:0:0:1:0:0:0:1")->to_string(), "2001:0:0:1::1");
  EXPECT_EQ(IPv6Address::from_string("2001:0:0:1:0:0:1:1")->to_string(), "2001::1:0:0:1:1");
  EXPECT_EQ(IPv6Address::from_string("2001:db8:0:1:1:1:1:1")->to_string(),
            "2001:db8:0:1:1:1:1:1");
}

TEST(IPv6Address, Rfc5952Lowercase) {
  EXPECT_EQ(IPv6Address::from_string("2001:DB8::ABCD")->to_string(), "2001:db8::abcd");
}

TEST(IPAddress, AutodetectsFamily) {
  const auto v4 = IPAddress::from_string("198.51.100.7");
  ASSERT_TRUE(v4.has_value());
  EXPECT_TRUE(v4->is_v4());
  EXPECT_EQ(v4->max_prefix_length(), 32u);

  const auto v6 = IPAddress::from_string("2001:db8::7");
  ASSERT_TRUE(v6.has_value());
  EXPECT_TRUE(v6->is_v6());
  EXPECT_EQ(v6->max_prefix_length(), 128u);
}

TEST(IPAddress, FamiliesNeverCompareEqual) {
  // ::0a00:0000... vs 10.0.0.0 share the byte image prefix but differ in family.
  const IPAddress v4(IPv4Address::from_octets(10, 0, 0, 0));
  IPv6Address::Bytes bytes{};
  bytes[0] = 10;
  const IPAddress v6{IPv6Address(bytes)};
  EXPECT_NE(v4, v6);
}

TEST(IPAddress, MustParseThrowsOnGarbage) {
  EXPECT_THROW((void)IPAddress::must_parse("not-an-ip"), std::invalid_argument);
  EXPECT_EQ(IPAddress::must_parse("10.0.0.1").to_string(), "10.0.0.1");
}

TEST(IPAddress, HashDistinguishesFamilies) {
  const std::hash<IPAddress> h;
  const IPAddress v4(IPv4Address{});
  const IPAddress v6{IPv6Address{}};
  EXPECT_NE(h(v4), h(v6));
}

// Property: to_string/from_string round-trips for random addresses.
class IPv4RoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(IPv4RoundTrip, RoundTrips) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::uint32_t> dist;
  for (int i = 0; i < 2000; ++i) {
    const IPv4Address a(dist(rng));
    const auto back = IPv4Address::from_string(a.to_string());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IPv4RoundTrip, ::testing::Values(1u, 2u, 3u, 4u));

class IPv6RoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(IPv6RoundTrip, RoundTrips) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> group_dist(0, 0xffff);
  std::uniform_int_distribution<int> zero_dist(0, 2);
  for (int i = 0; i < 2000; ++i) {
    std::array<std::uint16_t, 8> groups{};
    for (auto& g : groups) {
      // Bias toward zero groups to exercise the RFC 5952 compressor.
      g = zero_dist(rng) == 0 ? 0 : static_cast<std::uint16_t>(group_dist(rng));
    }
    const auto a = IPv6Address::from_groups(groups);
    const auto back = IPv6Address::from_string(a.to_string());
    ASSERT_TRUE(back.has_value()) << a.to_string();
    EXPECT_EQ(*back, a) << a.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IPv6RoundTrip, ::testing::Values(11u, 12u, 13u, 14u));

// Property: formatting never produces a string another address parses to.
TEST(IPv6Address, FormatIsInjectiveOnSamples) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::unordered_set<std::string> seen;
  std::unordered_set<IPv6Address> addresses;
  for (int i = 0; i < 1000; ++i) {
    IPv6Address::Bytes bytes{};
    for (auto& b : bytes) b = static_cast<std::uint8_t>(byte_dist(rng) < 128 ? 0 : byte_dist(rng));
    const IPv6Address a(bytes);
    const bool new_address = addresses.insert(a).second;
    const bool new_string = seen.insert(a.to_string()).second;
    EXPECT_EQ(new_address, new_string);
  }
}

}  // namespace
}  // namespace sp
