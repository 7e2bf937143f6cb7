// Unit and property tests for IPv4/IPv6 address parsing and formatting.
#include "netbase/ip.h"

#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

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
                          "1:2:3:4:5:6:7:8:9:10"}) {
    EXPECT_FALSE(IPv6Address::from_string(bad).has_value()) << bad;
  }
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
