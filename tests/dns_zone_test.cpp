// Tests for the zone database, CNAME chasing, and resolution snapshots.
#include "dns/snapshot.h"
#include "dns/zone.h"

#include <gtest/gtest.h>

namespace sp::dns {
namespace {

DomainName n(const char* text) { return DomainName::must_parse(text); }
IPv4Address v4(const char* text) { return *IPv4Address::from_string(text); }
IPv6Address v6(const char* text) { return *IPv6Address::from_string(text); }

ZoneDatabase example_zones() {
  ZoneDatabase zones;
  zones.add(ResourceRecord::a(n("direct.example.org"), v4("192.0.2.10")));
  zones.add(ResourceRecord::aaaa(n("direct.example.org"), v6("2001:db8::10")));
  zones.add(ResourceRecord::cname(n("www.example.org"), n("edge.cdn.net")));
  zones.add(ResourceRecord::cname(n("edge.cdn.net"), n("pop3.cdn.net")));
  zones.add(ResourceRecord::a(n("pop3.cdn.net"), v4("198.51.100.1")));
  zones.add(ResourceRecord::a(n("pop3.cdn.net"), v4("198.51.100.2")));
  zones.add(ResourceRecord::aaaa(n("pop3.cdn.net"), v6("2001:db8:100::1")));
  zones.add(ResourceRecord::a(n("v4only.example.org"), v4("203.0.113.5")));
  return zones;
}

TEST(ZoneDatabase, ResolvesDirectRecords) {
  const auto result = example_zones().resolve(n("direct.example.org"));
  EXPECT_EQ(result.response_name, n("direct.example.org"));
  EXPECT_TRUE(result.cname_chain.empty());
  ASSERT_EQ(result.v4.size(), 1u);
  EXPECT_EQ(result.v4[0], v4("192.0.2.10"));
  ASSERT_EQ(result.v6.size(), 1u);
  EXPECT_TRUE(result.dual_stack());
}

TEST(ZoneDatabase, FollowsCnameChainToResponseName) {
  const auto result = example_zones().resolve(n("www.example.org"));
  EXPECT_EQ(result.queried, n("www.example.org"));
  EXPECT_EQ(result.response_name, n("pop3.cdn.net"));
  ASSERT_EQ(result.cname_chain.size(), 2u);
  EXPECT_EQ(result.cname_chain[0], n("edge.cdn.net"));
  EXPECT_EQ(result.cname_chain[1], n("pop3.cdn.net"));
  EXPECT_EQ(result.v4.size(), 2u);
  EXPECT_EQ(result.v6.size(), 1u);
}

TEST(ZoneDatabase, AddressesAreSortedAndDeduplicated) {
  ZoneDatabase zones;
  zones.add(ResourceRecord::a(n("d.example"), v4("10.0.0.2")));
  zones.add(ResourceRecord::a(n("d.example"), v4("10.0.0.1")));
  zones.add(ResourceRecord::a(n("d.example"), v4("10.0.0.2")));
  const auto result = zones.resolve(n("d.example"));
  ASSERT_EQ(result.v4.size(), 2u);
  EXPECT_LT(result.v4[0], result.v4[1]);
}

TEST(ZoneDatabase, SingleStackResolution) {
  const auto result = example_zones().resolve(n("v4only.example.org"));
  EXPECT_TRUE(result.has_v4());
  EXPECT_FALSE(result.has_v6());
  EXPECT_FALSE(result.dual_stack());
}

TEST(ZoneDatabase, UnknownNameResolvesEmpty) {
  const auto result = example_zones().resolve(n("missing.example.org"));
  EXPECT_FALSE(result.has_v4());
  EXPECT_FALSE(result.has_v6());
  EXPECT_EQ(result.response_name, n("missing.example.org"));
}

TEST(ZoneDatabase, DetectsCnameLoops) {
  ZoneDatabase zones;
  zones.add(ResourceRecord::cname(n("a.example"), n("b.example")));
  zones.add(ResourceRecord::cname(n("b.example"), n("a.example")));
  const auto result = zones.resolve(n("a.example"));
  EXPECT_TRUE(result.cname_loop);
  EXPECT_FALSE(result.dual_stack());
}

TEST(ZoneDatabase, BoundsCnameChainDepth) {
  ZoneDatabase zones;
  for (int i = 0; i < 20; ++i) {
    zones.add(ResourceRecord::cname(n(("h" + std::to_string(i) + ".example").c_str()),
                                    n(("h" + std::to_string(i + 1) + ".example").c_str())));
  }
  const auto result = zones.resolve(n("h0.example"));
  EXPECT_TRUE(result.chain_too_long);
}

TEST(ResolutionSnapshot, ResolveAllKeepsAddressedDomains) {
  const auto zones = example_zones();
  const std::vector<DomainName> queries = {n("www.example.org"), n("direct.example.org"),
                                           n("v4only.example.org"), n("missing.example.org")};
  const auto snapshot =
      ResolutionSnapshot::resolve_all(zones, queries, Date{2024, 9, 11});

  EXPECT_EQ(snapshot.date().to_string(), "2024-09-11");
  EXPECT_EQ(snapshot.domain_count(), 3u);  // missing.example.org dropped
  EXPECT_EQ(snapshot.dual_stack_count(), 2u);

  const auto ds = snapshot.dual_stack_entries();
  ASSERT_EQ(ds.size(), 2u);
  // www.example.org's identity is its final CNAME target.
  EXPECT_EQ(ds[0]->response_name, n("pop3.cdn.net"));
}

TEST(Date, Arithmetic) {
  const Date base{2024, 9, 11};
  EXPECT_EQ(base.plus_months(1).to_string(), "2024-10-11");
  EXPECT_EQ(base.plus_months(-12).to_string(), "2023-09-11");
  EXPECT_EQ(base.plus_months(4).to_string(), "2025-01-11");
  EXPECT_EQ(base.months_since(Date{2020, 9, 9}), 48);
  EXPECT_LT(Date({2024, 8, 30}), base);
  const Date end_of_month{2024, 1, 31};
  EXPECT_EQ(end_of_month.plus_months(1).day, 28);
}

}  // namespace
}  // namespace sp::dns
