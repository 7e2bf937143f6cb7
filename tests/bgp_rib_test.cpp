// Tests for the BGP RIB: origin voting, longest-prefix lookups,
// construction from MRT records, and the to_mrt → wire → from_mrt round
// trip that lets the campaign hand a month's RIB over in memory while a
// resumed run rebuilds the same RIB from its rib-<date>.mrt file.
#include "bgp/rib.h"

#include <gtest/gtest.h>

#include <string>

#include "mrt/codec.h"
#include "synth/universe.h"

namespace sp::bgp {
namespace {

Prefix p(const char* text) { return Prefix::must_parse(text); }

TEST(RouteVotes, MajorityWinsSmallestAsnOnTie) {
  RouteVotes votes;
  votes.add(65001);
  votes.add(65002);
  votes.add(65002);
  EXPECT_EQ(votes.best(), 65002u);
  EXPECT_TRUE(votes.is_moas());

  RouteVotes tie;
  tie.add(65009);
  tie.add(65003);
  EXPECT_EQ(tie.best(), 65003u);
}

TEST(Rib, ExactOriginLookup) {
  Rib rib;
  rib.add_route(p("203.0.113.0/24"), 65010);
  EXPECT_EQ(rib.origin_as(p("203.0.113.0/24")), 65010u);
  EXPECT_FALSE(rib.origin_as(p("203.0.113.0/25")).has_value());
  EXPECT_EQ(rib.prefix_count(), 1u);
}

TEST(Rib, LongestMatchForAddresses) {
  Rib rib;
  rib.add_route(p("10.0.0.0/8"), 1);
  rib.add_route(p("10.1.0.0/16"), 2);
  rib.add_route(p("2001:db8::/32"), 3);

  const auto specific = rib.lookup(IPAddress::must_parse("10.1.2.3"));
  ASSERT_TRUE(specific.has_value());
  EXPECT_EQ(specific->prefix, p("10.1.0.0/16"));
  EXPECT_EQ(specific->origin_as, 2u);

  const auto covering = rib.lookup(IPAddress::must_parse("10.200.0.1"));
  ASSERT_TRUE(covering.has_value());
  EXPECT_EQ(covering->prefix, p("10.0.0.0/8"));

  const auto v6 = rib.lookup(IPAddress::must_parse("2001:db8::1"));
  ASSERT_TRUE(v6.has_value());
  EXPECT_EQ(v6->origin_as, 3u);

  EXPECT_FALSE(rib.lookup(IPAddress::must_parse("192.0.2.1")).has_value());
}

TEST(Rib, LongestMatchForPrefixes) {
  Rib rib;
  rib.add_route(p("10.0.0.0/8"), 1);
  const auto hit = rib.lookup(p("10.5.0.0/16"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->prefix, p("10.0.0.0/8"));
}

TEST(Rib, FromMrtUsesMajorityAcrossPeers) {
  mrt::RibRecord record;
  record.prefix = p("198.51.100.0/24");
  record.entries.push_back({0, 0, mrt::PathAttributes::sequence({65001, 100})});
  record.entries.push_back({1, 0, mrt::PathAttributes::sequence({65002, 200, 100})});
  record.entries.push_back({2, 0, mrt::PathAttributes::sequence({65003, 999})});

  mrt::RibRecord v6_record;
  v6_record.prefix = p("2001:db8::/32");
  v6_record.entries.push_back({0, 0, mrt::PathAttributes::sequence({65001, 500})});

  // Empty AS_PATH entries contribute no votes.
  mrt::RibRecord empty_path;
  empty_path.prefix = p("192.0.2.0/24");
  empty_path.entries.push_back({0, 0, {}});

  const std::vector<mrt::MrtRecord> records = {
      {0, mrt::PeerIndexTable{}}, {0, record}, {0, v6_record}, {0, empty_path}};
  const Rib rib = Rib::from_mrt(records);

  EXPECT_EQ(rib.origin_as(p("198.51.100.0/24")), 100u);  // 2 votes vs 1
  EXPECT_EQ(rib.origin_as(p("2001:db8::/32")), 500u);
  EXPECT_FALSE(rib.origin_as(p("192.0.2.0/24")).has_value());
  EXPECT_EQ(rib.prefix_count(), 2u);
  EXPECT_EQ(rib.moas_count(), 1u);
}

/// The RIB a campaign month rebuilds from its rib-<date>.mrt file:
/// exported, encoded, decoded and re-read.
Rib through_the_wire(const Rib& rib) {
  std::string error;
  const auto decoded = mrt::decode_dump(mrt::encode_dump(rib.to_mrt()), &error);
  EXPECT_TRUE(decoded.has_value()) << error;
  return Rib::from_mrt(decoded.value_or(std::vector<mrt::MrtRecord>{}));
}

/// Same prefixes in the same order, and per prefix the same origin votes
/// (so the same MOAS structure and best origin).
void expect_same_rib(const Rib& expected, const Rib& actual, const std::string& label) {
  const std::vector<Prefix> prefixes = expected.prefixes();
  ASSERT_EQ(prefixes, actual.prefixes()) << label;
  for (const Prefix& prefix : prefixes) {
    const RouteVotes* want = expected.votes(prefix);
    const RouteVotes* got = actual.votes(prefix);
    ASSERT_NE(want, nullptr) << label << " " << prefix.to_string();
    ASSERT_NE(got, nullptr) << label << " " << prefix.to_string();
    EXPECT_EQ(want->votes, got->votes) << label << " " << prefix.to_string();
    EXPECT_EQ(expected.origin_as(prefix), actual.origin_as(prefix))
        << label << " " << prefix.to_string();
  }
  EXPECT_EQ(expected.moas_count(), actual.moas_count()) << label;
}

TEST(RibRoundTrip, VotesTiesWithdrawalsAndDefaultRoutesSurviveTheWire) {
  Rib rib;
  // MOAS with a clear majority: 3 votes for 65002 against 1 for 65001.
  rib.add_route(p("198.51.100.0/24"), 65001);
  rib.add_route(p("198.51.100.0/24"), 65002, 3);
  // A tie: the smaller ASN is the best origin, on both sides of the wire.
  rib.add_route(p("2001:db8:100::/48"), 65009, 2);
  rib.add_route(p("2001:db8:100::/48"), 65003, 2);
  // Nested announcements and default routes of both families.
  rib.add_route(p("0.0.0.0/0"), 64496);
  rib.add_route(p("::/0"), 64497);
  rib.add_route(p("203.0.113.0/24"), 64500);
  rib.add_route(p("203.0.113.128/25"), 64501);
  rib.add_route(p("2001:db8::/32"), 64510);
  rib.add_route(p("2001:db8:ffff::/48"), 64511);
  rib.add_route(p("2001:db8:ffff::1/128"), 4200000000u);  // a 4-byte ASN
  // Withdrawn prefixes: by hand and by a BGP4MP update, which also
  // replaces a MOAS prefix's votes with the update's one origin.
  rib.add_route(p("192.0.2.0/24"), 64502);
  rib.add_route(p("2001:db8:dead::/48"), 64503);
  rib.add_route(p("203.0.113.0/25"), 64504);
  rib.add_route(p("203.0.113.0/25"), 64505);
  ASSERT_TRUE(rib.withdraw(p("192.0.2.0/24")));
  mrt::Bgp4mpUpdate update;
  update.withdrawn = {p("2001:db8:dead::/48")};
  update.announced = {p("203.0.113.0/25")};
  update.attributes = mrt::PathAttributes::sequence({64500, 64506});
  const std::vector<mrt::MrtRecord> updates = {{0, update}};
  rib.apply_updates(updates);

  ASSERT_EQ(rib.prefix_count(), 10u);
  EXPECT_EQ(rib.origin_as(p("198.51.100.0/24")), 65002u);
  EXPECT_EQ(rib.origin_as(p("2001:db8:100::/48")), 65003u);
  EXPECT_EQ(rib.origin_as(p("203.0.113.0/25")), 64506u);
  EXPECT_EQ(rib.moas_count(), 2u);

  const Rib back = through_the_wire(rib);
  expect_same_rib(rib, back, "hand-made");
  EXPECT_EQ(back.votes(p("198.51.100.0/24"))->votes,
            (std::map<std::uint32_t, std::uint32_t>{{65001, 1}, {65002, 3}}));
  EXPECT_EQ(back.origin_as(p("2001:db8:100::/48")), 65003u);
  EXPECT_EQ(back.votes(p("192.0.2.0/24")), nullptr);
  EXPECT_EQ(back.votes(p("2001:db8:dead::/48")), nullptr);
  EXPECT_EQ(back.lookup(IPAddress::must_parse("192.0.2.1"))->prefix, p("0.0.0.0/0"));
  EXPECT_EQ(back.lookup(IPAddress::must_parse("2001:db8:dead::1"))->prefix, p("2001:db8::/32"));

  // An empty RIB exports a peer table alone and reads back empty.
  expect_same_rib(Rib{}, through_the_wire(Rib{}), "empty");
}

TEST(RibRoundTrip, EveryCampaignMonthSurvivesTheWire) {
  // The campaign's evolve chain on a small universe: month 0 reads the
  // synthetic dump, month m replays its updates onto month m-1's RIB. The
  // RIB each month hands over in memory must equal the one a resumed run
  // reads back from the month's file.
  synth::SynthConfig config;
  config.organization_count = 200;
  config.months = 6;
  const synth::SyntheticInternet universe(config);

  const auto dump = universe.mrt_dump_at(0);
  Rib rib = Rib::from_mrt(dump);
  std::string error;
  const auto decoded_dump = mrt::decode_dump(mrt::encode_dump(dump), &error);
  ASSERT_TRUE(decoded_dump.has_value()) << error;
  expect_same_rib(rib, Rib::from_mrt(*decoded_dump), "month 0 dump");

  for (int month = 0; month < universe.month_count(); ++month) {
    if (month > 0) rib.apply_updates(universe.bgp4mp_updates_at(month));
    ASSERT_GT(rib.prefix_count(), 0u);
    expect_same_rib(rib, through_the_wire(rib), "month " + std::to_string(month));
  }
}

}  // namespace
}  // namespace sp::bgp
