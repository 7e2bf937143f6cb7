// DNS resource record model: the record types the sibling-prefix pipeline
// needs (A, AAAA, CNAME) plus the NS/PTR/MX/TXT/SOA records that real zone
// files carry, so the zone-file parser can validate and keep every line.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "dns/name.h"
#include "netbase/ip.h"

namespace sp::dns {

enum class RecordType : std::uint16_t {
  A = 1,
  NS = 2,
  CNAME = 5,
  SOA = 6,
  PTR = 12,
  MX = 15,
  TXT = 16,
  AAAA = 28,
};

/// SOA RDATA (RFC 1035 section 3.3.13): a zone's primary server, contact
/// mailbox and timers.
struct SoaData {
  DomainName mname;   // primary name server
  DomainName rname;   // responsible mailbox, encoded as a name
  std::uint32_t serial = 0;
  std::uint32_t refresh = 7200;
  std::uint32_t retry = 900;
  std::uint32_t expire = 1209600;
  std::uint32_t minimum = 300;
  friend auto operator<=>(const SoaData&, const SoaData&) = default;
};

struct MxData {
  std::uint16_t preference = 0;
  DomainName exchange;
  friend auto operator<=>(const MxData&, const MxData&) = default;
};

struct TxtData {
  std::string text;
  friend auto operator<=>(const TxtData&, const TxtData&) = default;
};

/// The typed RDATA payload of a record.
using RData = std::variant<IPv4Address,  // A
                           IPv6Address,  // AAAA
                           DomainName,   // CNAME / NS / PTR target
                           MxData,       // MX
                           TxtData,      // TXT
                           SoaData>;     // SOA

struct ResourceRecord {
  DomainName name;
  RecordType type = RecordType::A;
  std::uint32_t ttl = 300;
  RData data;

  [[nodiscard]] static ResourceRecord a(DomainName name, IPv4Address address,
                                        std::uint32_t ttl = 300) {
    return {std::move(name), RecordType::A, ttl, address};
  }
  [[nodiscard]] static ResourceRecord aaaa(DomainName name, IPv6Address address,
                                           std::uint32_t ttl = 300) {
    return {std::move(name), RecordType::AAAA, ttl, address};
  }
  [[nodiscard]] static ResourceRecord cname(DomainName name, DomainName target,
                                            std::uint32_t ttl = 300) {
    return {std::move(name), RecordType::CNAME, ttl, std::move(target)};
  }
  [[nodiscard]] static ResourceRecord ns(DomainName name, DomainName server,
                                         std::uint32_t ttl = 86400) {
    return {std::move(name), RecordType::NS, ttl, std::move(server)};
  }
  [[nodiscard]] static ResourceRecord mx(DomainName name, std::uint16_t preference,
                                         DomainName exchange, std::uint32_t ttl = 3600) {
    return {std::move(name), RecordType::MX, ttl, MxData{preference, std::move(exchange)}};
  }
  [[nodiscard]] static ResourceRecord txt(DomainName name, std::string text,
                                          std::uint32_t ttl = 3600) {
    return {std::move(name), RecordType::TXT, ttl, TxtData{std::move(text)}};
  }
  [[nodiscard]] static ResourceRecord soa(DomainName zone, SoaData data,
                                          std::uint32_t ttl = 3600) {
    return {std::move(zone), RecordType::SOA, ttl, std::move(data)};
  }
  [[nodiscard]] static ResourceRecord ptr(DomainName reverse_name, DomainName target,
                                          std::uint32_t ttl = 3600) {
    return {std::move(reverse_name), RecordType::PTR, ttl, std::move(target)};
  }

  friend bool operator==(const ResourceRecord&, const ResourceRecord&) = default;
};

}  // namespace sp::dns
