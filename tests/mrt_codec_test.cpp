// Tests for the RFC 6396 MRT TABLE_DUMP_V2 codec: golden byte layouts,
// round-trips (including randomized property sweeps), file I/O, and
// malformed-input rejection.
#include "mrt/codec.h"
#include "mrt/file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>

namespace sp::mrt {
namespace {

PeerIndexTable example_peer_table() {
  PeerIndexTable table;
  table.collector_bgp_id = {10, 0, 0, 1};
  table.view_name = "rv2";
  table.peers.push_back(
      {{192, 0, 2, 1}, IPAddress::must_parse("192.0.2.1"), 65001});
  table.peers.push_back(
      {{192, 0, 2, 2}, IPAddress::must_parse("2001:db8::2"), 65002});
  return table;
}

RibRecord example_v4_rib() {
  RibRecord rib;
  rib.sequence = 7;
  rib.prefix = Prefix::must_parse("198.51.100.0/24");
  RibEntry entry;
  entry.peer_index = 0;
  entry.originated_time = 1726000000;
  entry.attributes = PathAttributes::sequence({65001, 3356, 15169});
  entry.attributes.next_hop_v4 = *IPv4Address::from_string("192.0.2.1");
  rib.entries.push_back(std::move(entry));
  return rib;
}

RibRecord example_v6_rib() {
  RibRecord rib;
  rib.sequence = 9;
  rib.prefix = Prefix::must_parse("2001:db8:4000::/36");
  RibEntry entry;
  entry.peer_index = 1;
  entry.originated_time = 1726000001;
  entry.attributes = PathAttributes::sequence({65002, 6939, 13335});
  entry.attributes.next_hop_v6 = *IPv6Address::from_string("2001:db8::2");
  entry.attributes.med = 50;
  entry.attributes.local_pref = 100;
  entry.attributes.communities = {(65001u << 16) | 300u};
  rib.entries.push_back(std::move(entry));
  return rib;
}

TEST(MrtCodec, CommonHeaderGolden) {
  const MrtRecord record{1726000000, example_v4_rib()};
  const auto wire = encode_record(record);
  ASSERT_GE(wire.size(), 12u);
  // timestamp
  EXPECT_EQ(wire[0], 0x66);
  // type = 13 (TABLE_DUMP_V2)
  EXPECT_EQ(wire[4], 0);
  EXPECT_EQ(wire[5], 13);
  // subtype = 2 (RIB_IPV4_UNICAST)
  EXPECT_EQ(wire[6], 0);
  EXPECT_EQ(wire[7], 2);
  // length matches the remaining bytes
  const std::uint32_t length = (std::uint32_t{wire[8]} << 24) | (wire[9] << 16) |
                               (wire[10] << 8) | wire[11];
  EXPECT_EQ(length, wire.size() - 12);
}

TEST(MrtCodec, V6SubtypeFollowsPrefixFamily) {
  const auto wire = encode_record({0, example_v6_rib()});
  EXPECT_EQ(wire[7], 4);  // RIB_IPV6_UNICAST
}

TEST(MrtCodec, PrefixUsesMinimalOctets) {
  // A /24 v4 prefix must be encoded in 3 octets (RFC 6396 section 4.3.2).
  RibRecord rib;
  rib.prefix = Prefix::must_parse("198.51.100.0/24");
  const auto wire = encode_record({0, rib});
  // body: seq(4) prefix_len(1) prefix(3) entry_count(2)
  EXPECT_EQ(wire.size(), 12u + 4u + 1u + 3u + 2u);
  EXPECT_EQ(wire[12 + 4], 24);  // prefix length byte
  EXPECT_EQ(wire[12 + 5], 198);
  EXPECT_EQ(wire[12 + 7], 100);
}

TEST(MrtCodec, PeerIndexTableRoundTrips) {
  const MrtRecord record{1726000000, example_peer_table()};
  std::string error;
  const auto decoded = decode_dump(encode_record(record), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ(decoded->front(), record);
}

TEST(MrtCodec, RibRecordsRoundTrip) {
  const std::vector<MrtRecord> records = {{1726000000, example_peer_table()},
                                          {1726000000, example_v4_rib()},
                                          {1726000000, example_v6_rib()}};
  std::string error;
  const auto decoded = decode_dump(encode_dump(records), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(*decoded, records);
}

TEST(MrtCodec, UnknownAttributePreservedVerbatim) {
  RibRecord rib = example_v4_rib();
  rib.entries[0].attributes.unknown.push_back(
      {0xC0, 32, {1, 2, 3, 4, 5}});  // LARGE_COMMUNITY-ish blob
  const MrtRecord record{0, rib};
  const auto decoded = decode_dump(encode_record(record));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->front(), record);
}

TEST(MrtCodec, AsSetSegmentsRoundTrip) {
  RibRecord rib = example_v4_rib();
  rib.entries[0].attributes.as_path.push_back(
      {AsPathSegment::Type::Set, {64512, 64513}});
  const auto decoded = decode_dump(encode_record({0, rib}));
  ASSERT_TRUE(decoded.has_value());
  const auto& path = std::get<RibRecord>(decoded->front().body).entries[0].attributes.as_path;
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[1].type, AsPathSegment::Type::Set);
}

TEST(MrtCodec, OriginAsIsLastAsnOfPath) {
  PathAttributes attributes = PathAttributes::sequence({65001, 3356, 15169});
  EXPECT_EQ(attributes.origin_as(), 15169u);
  PathAttributes empty;
  EXPECT_FALSE(empty.origin_as().has_value());
}

TEST(MrtCodec, CursorReportsTruncation) {
  const auto wire = encode_record({0, example_v4_rib()});
  for (const std::size_t cut : {std::size_t{1}, std::size_t{6}, std::size_t{13},
                                wire.size() - 1}) {
    Cursor cursor(std::span(wire.data(), cut));
    EXPECT_FALSE(cursor.next().has_value()) << cut;
    EXPECT_FALSE(cursor.error().empty()) << cut;
  }
}

TEST(MrtCodec, CursorRejectsUnknownType) {
  auto wire = encode_record({0, example_v4_rib()});
  wire[5] = 12;  // TABLE_DUMP (v1), unsupported
  Cursor cursor(wire);
  EXPECT_FALSE(cursor.next().has_value());
  EXPECT_NE(cursor.error().find("unsupported"), std::string::npos);
}

TEST(MrtCodec, CursorRejectsOverlongPrefixLength) {
  auto wire = encode_record({0, example_v4_rib()});
  wire[12 + 4] = 33;  // v4 prefix length 33
  Cursor cursor(wire);
  EXPECT_FALSE(cursor.next().has_value());
}

TEST(MrtCodec, CursorStopsCleanlyAtEnd) {
  const auto wire = encode_record({0, example_v4_rib()});
  Cursor cursor(wire);
  EXPECT_TRUE(cursor.next().has_value());
  EXPECT_FALSE(cursor.next().has_value());
  EXPECT_TRUE(cursor.error().empty());
  EXPECT_TRUE(cursor.at_end());
}

TEST(MrtFile, WriteAndReadBack) {
  const std::string path = ::testing::TempDir() + "/sp_mrt_test.mrt";
  const std::vector<MrtRecord> records = {{1726000000, example_peer_table()},
                                          {1726000000, example_v4_rib()},
                                          {1726000000, example_v6_rib()}};
  ASSERT_TRUE(write_file(path, records));
  std::string error;
  const auto loaded = read_file(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(*loaded, records);
  std::remove(path.c_str());
}

TEST(MrtFile, WriteToFullDeviceFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::vector<MrtRecord> records = {{1726000000, example_peer_table()}};
  EXPECT_FALSE(write_file("/dev/full", records));
}

TEST(MrtFile, MissingFileReportsError) {
  std::string error;
  EXPECT_FALSE(read_file("/nonexistent/sp.mrt", &error).has_value());
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(read_file(::testing::TempDir(), &error).has_value());  // a directory
  EXPECT_FALSE(error.empty());
}

// Property: randomized RIB dumps round-trip exactly.
class MrtRoundTripProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MrtRoundTripProperty, RandomDumpsRoundTrip) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::uint32_t> word;
  std::uniform_int_distribution<int> len4(0, 32);
  std::uniform_int_distribution<int> len6(0, 128);
  std::uniform_int_distribution<int> small(1, 3);

  const auto random_attributes = [&] {
    PathAttributes attributes;
    attributes.origin = static_cast<Origin>(word(rng) % 3);
    AsPathSegment segment;
    segment.type = AsPathSegment::Type::Sequence;
    for (int i = small(rng); i > 0; --i) segment.asns.push_back(word(rng) % 400000 + 1);
    attributes.as_path.push_back(std::move(segment));
    if (word(rng) % 2 == 0) attributes.next_hop_v4 = IPv4Address(word(rng));
    if (word(rng) % 2 == 0) attributes.med = word(rng);
    if (word(rng) % 3 == 0) attributes.local_pref = word(rng);
    if (word(rng) % 3 == 0) attributes.communities = {word(rng), word(rng)};
    if (word(rng) % 4 == 0) {
      IPv6Address::Bytes bytes{};
      for (auto& b : bytes) b = static_cast<std::uint8_t>(word(rng));
      attributes.next_hop_v6 = IPv6Address(bytes);
    }
    return attributes;
  };

  for (int iteration = 0; iteration < 50; ++iteration) {
    std::vector<MrtRecord> records;
    records.push_back({word(rng), example_peer_table()});
    for (int r = 0; r < 20; ++r) {
      RibRecord rib;
      rib.sequence = static_cast<std::uint32_t>(r);
      if (word(rng) % 2 == 0) {
        rib.prefix = Prefix::of(IPAddress(IPv4Address(word(rng))),
                                static_cast<unsigned>(len4(rng)));
      } else {
        IPv6Address::Bytes bytes{};
        for (auto& b : bytes) b = static_cast<std::uint8_t>(word(rng));
        rib.prefix = Prefix::of(IPAddress(IPv6Address(bytes)),
                                static_cast<unsigned>(len6(rng)));
      }
      for (int e = small(rng); e > 0; --e) {
        rib.entries.push_back({static_cast<std::uint16_t>(word(rng) % 4), word(rng),
                               random_attributes()});
      }
      records.push_back({word(rng), std::move(rib)});
    }
    std::string error;
    const auto decoded = decode_dump(encode_dump(records), &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    ASSERT_EQ(*decoded, records);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MrtRoundTripProperty, ::testing::Values(21u, 22u, 23u, 24u));

}  // namespace
}  // namespace sp::mrt
