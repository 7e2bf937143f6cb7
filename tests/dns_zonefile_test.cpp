// Tests for the RFC 1035 master-file parser.
#include "dns/zonefile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace sp::dns {
namespace {

DomainName n(const char* text) { return DomainName::must_parse(text); }

constexpr const char* kExampleZone = R"zone(
$ORIGIN example.org.
$TTL 300
@   IN SOA ns1 hostmaster ( 2024091101 7200 900
                            1209600 300 ) ; split across lines
@        IN NS  ns1
ns1      IN A   20.1.1.53
www 60   IN A   20.1.1.10
    60   IN AAAA 2620:100::10       ; owner inherited from www
blog     IN CNAME www
mail     IN MX  10 mx1.example.org. ; absolute exchange
txt      IN TXT "v=spf1 ip4:20.1.1.0/24 -all"
abs.example.net. IN A 20.9.9.9     ; absolute owner outside the origin
10.1.1.20.in-addr.arpa. IN PTR www ; reverse name of www's address
$ORIGIN sub.example.org.
deep     IN A   20.1.2.1
)zone";

TEST(ZoneFile, ParsesRealisticZone) {
  ZoneDatabase zones;
  const auto result = parse_zone_text(kExampleZone, zones);
  ASSERT_TRUE(result.ok()) << result.error->line << ": " << result.error->message;
  EXPECT_EQ(result.records_added, 11u);

  // SOA with parenthesized continuation.
  const auto soas = zones.records(n("example.org"), RecordType::SOA);
  ASSERT_EQ(soas.size(), 1u);
  const auto& soa = std::get<SoaData>(soas[0].data);
  EXPECT_EQ(soa.mname, n("ns1.example.org"));  // relative mname resolved
  EXPECT_EQ(soa.serial, 2024091101u);
  EXPECT_EQ(soa.expire, 1209600u);

  // Relative + inherited owners.
  const auto www_a = zones.records(n("www.example.org"), RecordType::A);
  ASSERT_EQ(www_a.size(), 1u);
  EXPECT_EQ(www_a[0].ttl, 60u);  // explicit TTL beats $TTL
  EXPECT_EQ(zones.records(n("www.example.org"), RecordType::AAAA).size(), 1u);

  // $TTL default.
  EXPECT_EQ(zones.records(n("ns1.example.org"), RecordType::A)[0].ttl, 300u);

  // CNAME, MX, TXT.
  EXPECT_EQ(std::get<DomainName>(
                zones.records(n("blog.example.org"), RecordType::CNAME)[0].data),
            n("www.example.org"));
  // A copy: records() returns a temporary vector.
  const MxData mx = std::get<MxData>(zones.records(n("mail.example.org"),
                                                   RecordType::MX)[0].data);
  EXPECT_EQ(mx.preference, 10);
  EXPECT_EQ(mx.exchange, n("mx1.example.org"));
  EXPECT_EQ(std::get<TxtData>(zones.records(n("txt.example.org"), RecordType::TXT)[0].data)
                .text,
            "v=spf1 ip4:20.1.1.0/24 -all");

  // Absolute owner and re-origined record.
  EXPECT_EQ(zones.records(n("abs.example.net"), RecordType::A).size(), 1u);
  const auto ptrs = zones.records(n("10.1.1.20.in-addr.arpa"), RecordType::PTR);
  ASSERT_EQ(ptrs.size(), 1u);
  EXPECT_EQ(std::get<DomainName>(ptrs[0].data), n("www.example.org"));  // relative target
  EXPECT_EQ(zones.records(n("deep.sub.example.org"), RecordType::A).size(), 1u);
}

TEST(ZoneFile, ParsedZoneResolves) {
  ZoneDatabase zones;
  ASSERT_TRUE(parse_zone_text(kExampleZone, zones).ok());
  const auto result = zones.resolve(n("blog.example.org"));
  EXPECT_EQ(result.response_name, n("www.example.org"));
  EXPECT_TRUE(result.dual_stack());
}

TEST(ZoneFile, ReportsErrorsWithLineNumbers) {
  const auto expect_error = [](const char* text, const char* fragment) {
    ZoneDatabase zones;
    const auto result = parse_zone_text(text, zones);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_NE(result.error->message.find(fragment), std::string::npos)
        << result.error->message;
    EXPECT_GT(result.error->line, 0u);
  };
  expect_error("www IN A 999.1.1.1\n", "bad A address");
  expect_error("www IN AAAA nope\n", "bad AAAA");
  expect_error("www IN SRV 1 2 3 t.example.\n", "unsupported record type");
  expect_error("www IN MX ten mx.example.\n", "MX takes");
  expect_error("www IN\n", "missing record type");
  expect_error("$TTL soon\n", "bad $TTL");
  expect_error("   IN A 1.2.3.4\n", "no previous owner");
  expect_error("www IN TXT \"unterminated\n", "unterminated quoted string");
  expect_error("www IN A ( 1.2.3.4\n", "unbalanced '('");
}

TEST(ZoneFile, KeepsRecordsBeforeTheError) {
  ZoneDatabase zones;
  const auto result =
      parse_zone_text("a.example. IN A 20.1.1.1\nb.example. IN A bad\n", zones);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error->line, 2u);
  EXPECT_EQ(result.records_added, 1u);
  EXPECT_EQ(zones.records(n("a.example"), RecordType::A).size(), 1u);
}

TEST(ZoneFile, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/sp_zone_test.zone";
  ZoneDatabase zones;
  ASSERT_TRUE(parse_zone_text(kExampleZone, zones).ok());
  {
    std::ofstream out(path);
    out << kExampleZone;
    ASSERT_TRUE(out.good());
  }

  ZoneDatabase loaded;
  const auto result = parse_zone_file(path, loaded);
  ASSERT_TRUE(result.ok()) << result.error->message;
  EXPECT_EQ(loaded.record_count(), zones.record_count());
  EXPECT_FALSE(parse_zone_file("/nonexistent/zone", loaded).ok());
  EXPECT_FALSE(parse_zone_file(::testing::TempDir(), loaded).ok());  // a directory
  std::remove(path.c_str());
}

TEST(ZoneFile, DefaultOriginAppliesToRelativeNames) {
  ZoneDatabase zones;
  const auto result =
      parse_zone_text("www IN A 20.1.1.1\n", zones, n("fallback.example"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(zones.records(n("www.fallback.example"), RecordType::A).size(), 1u);
}

}  // namespace
}  // namespace sp::dns
