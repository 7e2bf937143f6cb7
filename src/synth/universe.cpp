#include "synth/universe.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "mrt/codec.h"
#include "synth/determinism.h"

namespace sp::synth {

namespace {

// Hash purpose tags, so unrelated decisions never correlate.
enum Tag : std::uint64_t {
  kTagEyeball = 0x01,
  kTagSinglePrefix = 0x02,
  kTagPrefixLen4 = 0x03,
  kTagPrefixLen6 = 0x04,
  kTagSeparateAsn = 0x05,
  kTagScanSilent = 0x06,
  kTagRpkiAdopter = 0x07,
  kTagRpkiMonth4 = 0x08,
  kTagRpkiLag6 = 0x09,
  kTagBusiness = 0x0A,
  kTagDomainCount = 0x0B,
  kTagBirth = 0x0C,
  kTagFrCohort = 0x0D,
  kTagAlexaCohort = 0x0E,
  kTagDsEver = 0x0F,
  kTagDsFromBirth = 0x10,
  kTagDsMonth = 0x11,
  kTagMultiOrg = 0x12,
  kTagIndex4 = 0x13,
  kTagIndex6 = 0x14,
  kTagVisibility = 0x15,
  kTagOnceMonth = 0x16,
  kTagChange4 = 0x17,
  kTagChange6 = 0x18,
  kTagAddrChange = 0x19,
  kTagAgile = 0x1A,
  kTagSecondAddr = 0x1B,
  kTagCname = 0x1C,
  kTagTld = 0x1D,
  kTagIntermittent = 0x1E,
  kTagAgilePrefix = 0x1F,
  kTagSalt4 = 0x20,
  kTagSalt6 = 0x21,
  kTagTransit = 0x22,
  kTagSecondPeer = 0x23,
  kTagPortBase = 0x24,
  kTagPortFlip = 0x25,
  kTagRoaWrong = 0x26,
  kTagRoaMaxLen = 0x27,
  kTagProbeKind = 0x28,
  kTagProbeDomain = 0x29,
  kTagProbeSame = 0x2A,
  kTagProbeEyeball = 0x2B,
  kTagMonitorSite = 0x2C,
  kTagHgDomains = 0x2D,
  kTagOnceWindow = 0x2E,
  kTagStructured = 0x2F,
  kTagGroupFree4 = 0x30,
  kTagGroupFree6 = 0x31,
  kTagSharedSlot4 = 0x32,
  kTagSharedSlot6 = 0x33,
  kTagSiteBirth = 0x34,
  kTagAligned = 0x37,
  kTagEarlyChange = 0x35,
  kTagV6Single = 0x36,
  kTagReplica = 0x38,
};

/// Sequential IPv4 block allocator over globally-routable space. Each
/// allocation consumes at least a /16 so distinct prefixes never nest.
class V4Allocator {
 public:
  explicit V4Allocator(std::uint32_t start = 0x05000000u) : next_(start) {}

  Prefix allocate(unsigned length) {
    length = std::clamp(length, 12u, 29u);
    const std::uint32_t span = length < 16 ? (1u << (32 - length)) : 0x10000u;
    for (;;) {
      // Align to the allocation span.
      next_ = (next_ + span - 1) / span * span;
      const std::uint32_t base = next_;
      if (base >= 0xDF000000u) throw std::logic_error("v4 address space exhausted");
      next_ += span;
      bool reserved = false;
      for (std::uint32_t chunk = 0; chunk < span; chunk += 0x10000u) {
        if (is_reserved(IPv4Address(base + chunk))) {
          reserved = true;
          break;
        }
      }
      if (reserved) continue;
      return Prefix::of(IPAddress(IPv4Address(base)), length);
    }
  }

 private:
  std::uint32_t next_;
};

/// Sequential IPv6 allocator: block k maps to the /32 whose leading 32
/// bits are 0x26000000 | k, i.e. everything lives under 2600::/8-adjacent
/// global-unicast space. Allocations shorter than /32 consume an aligned
/// run of blocks, so prefixes never nest.
class V6Allocator {
 public:
  explicit V6Allocator(std::uint32_t start_block = 1) : next_(start_block) {}

  Prefix allocate(unsigned length) {
    length = std::clamp(length, 28u, 64u);
    const std::uint32_t span = length < 32 ? (1u << (32 - length)) : 1u;
    next_ = (next_ + span - 1) / span * span;
    const std::uint32_t block = next_;
    next_ += span;
    const std::uint32_t word = 0x26000000u | (block & 0x00FFFFFFu);
    IPv6Address::Bytes bytes{};
    bytes[0] = static_cast<std::uint8_t>(word >> 24);
    bytes[1] = static_cast<std::uint8_t>(word >> 16);
    bytes[2] = static_cast<std::uint8_t>(word >> 8);
    bytes[3] = static_cast<std::uint8_t>(word);
    return Prefix::of(IPAddress(IPv6Address(bytes)), length);
  }

 private:
  std::uint32_t next_;
};

unsigned sample_v4_length(std::uint64_t h) {
  const double u = unit(h, kTagPrefixLen4);
  if (u < 0.06) return 16;
  if (u < 0.20) return 17 + static_cast<unsigned>(pick(3, h, kTagPrefixLen4, 1));
  if (u < 0.44) return 20 + static_cast<unsigned>(pick(3, h, kTagPrefixLen4, 2));
  if (u < 0.50) return 23;
  if (u < 0.95) return 24;
  return 25 + static_cast<unsigned>(pick(3, h, kTagPrefixLen4, 3));
}

unsigned sample_v6_length(std::uint64_t h) {
  const double u = unit(h, kTagPrefixLen6);
  if (u < 0.14) return 32;
  if (u < 0.24) return 36;
  if (u < 0.34) return 40;
  if (u < 0.44) return 44;
  if (u < 0.91) return 48;
  if (u < 0.94) return 52;
  if (u < 0.97) return 56;
  return 64;
}

const char* kTlds[] = {"com", "net", "org", "de", "nl", "io", "co", "info"};

}  // namespace

IPv4Address v4_host_address(const Prefix& prefix, unsigned group, std::uint64_t salt) {
  const unsigned host_bits = 32 - prefix.length();
  const std::uint32_t base = prefix.address().v4().value();
  if (host_bits == 0) return prefix.address().v4();
  const unsigned gbits = host_bits > 6 ? 4u : 0u;
  const unsigned offset_bits = host_bits - gbits;
  const std::uint32_t offset_mask =
      offset_bits >= 32 ? ~0u : ((1u << offset_bits) - 1u);
  std::uint32_t offset = static_cast<std::uint32_t>(mix(salt, 0xADD4)) & offset_mask;
  if (offset == 0) offset = 1;
  const std::uint32_t group_value = gbits == 0 ? 0 : (group & ((1u << gbits) - 1u));
  return IPv4Address(base | (group_value << offset_bits) | offset);
}

IPv6Address v6_host_address(const Prefix& prefix, unsigned group, std::uint64_t salt) {
  auto bytes = prefix.address().v6().bytes();
  const unsigned length = prefix.length();
  const unsigned gbits = length + 4 <= 96 ? 4u : 0u;
  for (unsigned i = 0; i < gbits; ++i) {
    if ((group >> (gbits - 1 - i)) & 1u) {
      bytes[(length + i) / 8] |= static_cast<std::uint8_t>(0x80u >> ((length + i) % 8));
    }
  }
  std::uint32_t suffix = static_cast<std::uint32_t>(mix(salt, 0xADD6));
  if (suffix == 0) suffix = 1;
  if (length <= 96) {
    bytes[12] = static_cast<std::uint8_t>(suffix >> 24);
    bytes[13] = static_cast<std::uint8_t>(suffix >> 16);
    bytes[14] = static_cast<std::uint8_t>(suffix >> 8);
    bytes[15] = static_cast<std::uint8_t>(suffix);
  } else {
    bytes[15] |= static_cast<std::uint8_t>(suffix & 0x7f) | 1u;
  }
  return IPv6Address(bytes);
}

SyntheticInternet::SyntheticInternet(const SynthConfig& config) : config_(config) {
  catalog_ = asinfo::CdnHgCatalog::paper_catalog();
  build_orgs();
  build_domains();
  build_monitoring_sites();

  // Register organizations and business types for all ASNs.
  for (const OrgSpec& org : orgs_) {
    as_orgs_.set_org(org.v4_asn, org.name);
    as_orgs_.set_org(org.v6_asn, org.name);
    org_by_asn_.emplace(org.v4_asn, org.id);
    org_by_asn_.emplace(org.v6_asn, org.id);

    const std::uint64_t h = mix(config_.seed, org.id, kTagBusiness);
    asinfo::BusinessType primary;
    if (org.hg_cdn || org.monitoring) {
      primary = asinfo::BusinessType::ComputerIT;
    } else {
      const double u = unit(h, 1);
      if (u < 0.45) primary = asinfo::BusinessType::ComputerIT;
      else if (u < 0.57) primary = asinfo::BusinessType::Education;
      else if (u < 0.65) primary = asinfo::BusinessType::ServiceBusiness;
      else if (u < 0.71) primary = asinfo::BusinessType::Finance;
      else if (u < 0.76) primary = asinfo::BusinessType::Media;
      else if (u < 0.80) primary = asinfo::BusinessType::Government;
      else if (u < 0.84) primary = asinfo::BusinessType::Retail;
      else if (u < 0.87) primary = asinfo::BusinessType::HealthCare;
      else if (u < 0.90) primary = asinfo::BusinessType::Manufacturing;
      else {
        primary = static_cast<asinfo::BusinessType>(
            pick(asinfo::kBusinessTypeCount, h, 2));
      }
    }
    asdb_.add_category(org.v4_asn, primary);
    asdb_.add_category(org.v6_asn, primary);
    // ~20% of orgs carry a second category (they are then excluded from
    // the paper's single-type business analysis).
    if (!org.hg_cdn && unit(h, 3) < 0.20) {
      const auto secondary = static_cast<asinfo::BusinessType>(
          pick(asinfo::kBusinessTypeCount, h, 4));
      asdb_.add_category(org.v4_asn, secondary);
      asdb_.add_category(org.v6_asn, secondary);
    }
  }

  // Build the RIB through the real MRT path: encode, parse back, load.
  const auto dump = mrt_dump();
  const auto bytes = mrt::encode_dump(dump);
  std::string error;
  const auto parsed = mrt::decode_dump(bytes, &error);
  if (!parsed) throw std::logic_error("synthetic MRT dump failed to parse: " + error);
  rib_ = bgp::Rib::from_mrt(*parsed);
}

int SyntheticInternet::month_index(const Date& date) const {
  const int back = config_.end_date.months_since(date);
  return std::clamp(config_.months - 1 - back, 0, config_.months - 1);
}

const OrgSpec* SyntheticInternet::org_by_asn(std::uint32_t asn) const noexcept {
  const auto it = org_by_asn_.find(asn);
  return it == org_by_asn_.end() ? nullptr : &orgs_[it->second];
}

void SyntheticInternet::build_orgs() {
  V4Allocator v4_alloc;
  V6Allocator v6_alloc;
  const std::uint64_t seed = config_.seed;
  std::uint32_t next_asn = 4200;

  const auto add_prefixes = [&](OrgSpec& org, int n4, int n6) {
    for (int i = 0; i < n4; ++i) {
      org.v4_prefixes.push_back(
          v4_alloc.allocate(sample_v4_length(mix(seed, org.id, 0x44, i))));
    }
    for (int i = 0; i < n6; ++i) {
      org.v6_prefixes.push_back(
          v6_alloc.allocate(sample_v6_length(mix(seed, org.id, 0x66, i))));
    }
  };

  // Hypergiants and CDNs (Figure 17 catalog), largest first.
  for (const std::string& name : catalog_.org_names()) {
    const asinfo::OrgProfile* profile = catalog_.profile(name);
    OrgSpec org;
    org.id = static_cast<std::uint32_t>(orgs_.size());
    org.name = name;
    org.hg_cdn = true;
    org.address_agility = profile->address_agility;
    org.structured = profile->address_agility <= 0.20;
    // Non-agile hypergiants deploy paired v4/v6 blocks per region.
    org.aligned = org.structured;
    org.v4_asn = next_asn;
    org.v6_asn = next_asn + (unit(seed, org.id, kTagSeparateAsn) <
                                     config_.separate_v6_asn_share
                                 ? 1u
                                 : 0u);
    next_asn += 2;
    int n4 = std::max(
        2, static_cast<int>(std::lround(profile->pair_weight * config_.hg_prefix_scale)));
    if (org.aligned) {
      // Structured CDNs grow by adding edge prefixes (regional PoPs), not
      // by packing more domains per prefix — the scale knob multiplies
      // their footprint here, and place() replicates each domain across a
      // cluster of those edges.
      n4 *= std::max(1, config_.scale);
    }
    const int n6 = org.aligned ? n4 : std::max(1, static_cast<int>(std::lround(n4 * 0.85)));
    add_prefixes(org, n4, n6);
    org.scan_silent = unit(seed, org.id, kTagScanSilent) < config_.scan_silent_org_share;
    org.rpki_adopter = unit(seed, org.id, kTagRpkiAdopter) < config_.rpki_adopter_share;
    orgs_.push_back(std::move(org));
  }

  // Regular organizations.
  for (int i = 0; i < config_.organization_count; ++i) {
    OrgSpec org;
    org.id = static_cast<std::uint32_t>(orgs_.size());
    char name[32];
    std::snprintf(name, sizeof name, "org-%04d", i);
    org.name = name;
    org.eyeball = unit(seed, org.id, kTagEyeball) < config_.eyeball_share;
    org.v4_asn = next_asn;
    org.v6_asn = next_asn + (unit(seed, org.id, kTagSeparateAsn) <
                                     config_.separate_v6_asn_share
                                 ? 1u
                                 : 0u);
    next_asn += 2;
    int n4 = 1;
    int n6 = 1;
    if (unit(seed, org.id, kTagSinglePrefix) >= config_.single_prefix_org_share) {
      n4 = 2 + static_cast<int>(pick(5, seed, org.id, kTagSinglePrefix, 1));
      org.aligned = unit(seed, org.id, kTagAligned) < 0.53;
      if (org.aligned) {
        // One v6 prefix per v4 prefix, services hosted pairwise.
        n6 = n4;
      } else {
        // IPv6 prefixes are larger, so many orgs consolidate on one (the
        // paper's 46.3k v4 vs 39.5k v6 unique-prefix gap; also the reason
        // the overlap coefficient saturates for most pairs).
        n6 = unit(seed, org.id, kTagV6Single) < 0.45
                 ? 1
                 : 1 + static_cast<int>(pick(static_cast<std::uint64_t>(n4), seed, org.id,
                                             kTagSinglePrefix, 2));
      }
    }
    add_prefixes(org, n4, n6);
    org.structured = unit(seed, org.id, kTagStructured) < config_.structured_org_share;
    org.scan_silent = unit(seed, org.id, kTagScanSilent) < config_.scan_silent_org_share;
    org.rpki_adopter = unit(seed, org.id, kTagRpkiAdopter) < config_.rpki_adopter_share;
    orgs_.push_back(std::move(org));
  }

  // RPKI adoption months: a share adopted before the window, the rest ramp
  // in uniformly; v6 ROAs may lag v4 (→ valid/not-found pairs).
  for (OrgSpec& org : orgs_) {
    if (!org.rpki_adopter) continue;
    const std::uint64_t h = mix(seed, org.id, kTagRpkiMonth4);
    org.rpki_v4_month = unit(h, 1) < 0.75
                            ? 0
                            : static_cast<int>(pick(
                                  static_cast<std::uint64_t>(config_.months), h, 2));
    const std::uint64_t lag_h = mix(seed, org.id, kTagRpkiLag6);
    org.rpki_v6_month =
        unit(lag_h, 1) < 0.60
            ? org.rpki_v4_month
            : std::min(config_.months - 1,
                       org.rpki_v4_month + 1 + static_cast<int>(pick(18, lag_h, 2)));
  }

  // The monitoring organization (Site24x7 role): its prefixes are added by
  // build_monitoring_sites into *other* orgs; it owns the domain identity.
  if (config_.monitoring_org) {
    OrgSpec org;
    org.id = static_cast<std::uint32_t>(orgs_.size());
    org.name = "MonitorCorp";
    org.monitoring = true;
    org.v4_asn = next_asn;
    org.v6_asn = next_asn;
    next_asn += 2;
    monitoring_org_ = org.id;
    orgs_.push_back(std::move(org));
  }
}

void SyntheticInternet::build_domains() {
  const std::uint64_t seed = config_.seed;
  const int months = config_.months;
  const int fr_month = month_index(Date{2022, 8, 10});
  const int alexa_removal_month = month_index(Date{2023, 5, 10});

  for (const OrgSpec& org : orgs_) {
    if (org.eyeball || org.monitoring) continue;
    int domain_count;
    if (org.hg_cdn) {
      // Address-agile CDNs pack far more domains per prefix (shared
      // front-end fleets), which is what pushes their pair Jaccard into
      // the lowest bin of Figure 17.
      const int per_prefix =
          org.address_agility > 0.20
              ? 20 + static_cast<int>(pick(60, seed, org.id, kTagHgDomains))
              : 4 + static_cast<int>(pick(26, seed, org.id, kTagHgDomains));
      domain_count = static_cast<int>(org.v4_prefixes.size()) * per_prefix;
    } else {
      const double u = unit(seed, org.id, kTagDomainCount);
      if (u < 0.30) {
        domain_count = 1 + static_cast<int>(pick(2, seed, org.id, kTagDomainCount, 1));
      } else if (u < 0.55) {
        domain_count = 3 + static_cast<int>(pick(3, seed, org.id, kTagDomainCount, 2));
      } else if (u < 0.85) {
        domain_count = 6 + static_cast<int>(pick(15, seed, org.id, kTagDomainCount, 3));
      } else if (u < 0.97) {
        domain_count = 21 + static_cast<int>(pick(80, seed, org.id, kTagDomainCount, 4));
      } else {
        domain_count = 101 + static_cast<int>(pick(500, seed, org.id, kTagDomainCount, 5));
      }
    }
    // The scale knob multiplies the domain universe; the per-domain draws
    // below consume fresh ids, so scale = 1 reproduces the unscaled model.
    // Structured hypergiants already scaled through their prefix count
    // (domain_count = prefixes * per_prefix above), so multiplying again
    // would grow them quadratically.
    if (!(org.hg_cdn && org.aligned)) {
      domain_count *= std::max(1, config_.scale);
    }

    for (int k = 0; k < domain_count; ++k) {
      DomainSpec domain;
      domain.id = static_cast<std::uint32_t>(domains_.size());
      const std::uint64_t h = mix(seed, domain.id, 0xD0);
      domain.v4_org = org.id;
      domain.v6_org = org.id;

      // Dataset cohorts drive the Figure 1 growth events.
      const bool fr_cohort = unit(h, kTagFrCohort) < 0.12;
      const char* tld =
          fr_cohort ? "fr" : kTlds[pick(std::size(kTlds), h, kTagTld)];
      char name[96];
      std::snprintf(name, sizeof name, "svc%d.%s.%s", k, org.name.c_str(), tld);
      domain.queried = dns::DomainName::must_parse(name);
      if (unit(h, kTagCname) < 0.25) {
        char target[96];
        std::snprintf(target, sizeof target, "d%u.edge.%s.net", domain.id,
                      org.name.c_str());
        domain.response = dns::DomainName::must_parse(target);
      } else {
        domain.response = domain.queried;
      }

      if (fr_cohort) {
        domain.birth_month = fr_month;
      } else if (unit(h, kTagBirth) < 0.38) {
        domain.birth_month = 0;
      } else {
        domain.birth_month =
            1 + static_cast<int>(pick(static_cast<std::uint64_t>(months - 1), h, kTagBirth, 1));
      }
      domain.death_month = months;
      if (domain.birth_month == 0 && unit(h, kTagAlexaCohort) < 0.06) {
        domain.death_month = alexa_removal_month;
      }

      // Dual-stack adoption: share grows over the window.
      if (unit(h, kTagDsEver) < 0.315) {
        if (unit(h, kTagDsFromBirth) < 0.72) {
          domain.ds_month = domain.birth_month;
        } else {
          domain.ds_month =
              domain.birth_month +
              static_cast<int>(pick(
                  static_cast<std::uint64_t>(std::max(1, months - domain.birth_month)), h,
                  kTagDsMonth));
        }
      } else {
        domain.ds_month = months;  // v4-only forever
      }

      // Multi-CDN / split hosting: the v6 side lives elsewhere.
      if (!org.hg_cdn && unit(h, kTagMultiOrg) < config_.multi_org_domain_share) {
        // Pick any hosting org deterministically (skip eyeballs/monitoring).
        for (int attempt = 0; attempt < 16; ++attempt) {
          const auto candidate = static_cast<std::uint32_t>(
              pick(orgs_.size(), h, kTagMultiOrg, 1 + attempt));
          const OrgSpec& other = orgs_[candidate];
          if (!other.eyeball && !other.monitoring && candidate != org.id) {
            domain.v6_org = candidate;
            break;
          }
        }
      }

      const OrgSpec& v6_org = orgs_[domain.v6_org];
      domain.v4_prefix = static_cast<int>(pick(org.v4_prefixes.size(), h, kTagIndex4));
      const bool pairwise = org.aligned && domain.v6_org == org.id;
      domain.v6_prefix = pairwise ? domain.v4_prefix
                                  : static_cast<int>(
                                        pick(v6_org.v6_prefixes.size(), h, kTagIndex6));
      domain.alt_v4_prefix =
          static_cast<int>(pick(org.v4_prefixes.size(), h, kTagIndex4, 1));
      domain.alt_v6_prefix = pairwise ? domain.alt_v4_prefix
                                      : static_cast<int>(
                                            pick(v6_org.v6_prefixes.size(), h, kTagIndex6, 1));

      const double visibility_u = unit(h, kTagVisibility);
      if (visibility_u < config_.always_visible_share) {
        domain.visibility = Visibility::Always;
      } else if (visibility_u <
                 config_.always_visible_share + config_.once_visible_share) {
        domain.visibility = Visibility::Once;
        const int window = std::max(1, domain.death_month - domain.birth_month);
        domain.once_month =
            domain.birth_month +
            static_cast<int>(pick(static_cast<std::uint64_t>(window), h, kTagOnceMonth));
      } else {
        domain.visibility = Visibility::Intermittent;
      }

      // Hosting churn over the trailing year (Figure 7 center/right).
      if (org.v4_prefixes.size() > 1 &&
          unit(h, kTagChange4) < config_.v4_prefix_change_share) {
        domain.v4_change_month = months - 1 - static_cast<int>(pick(11, h, kTagChange4, 1));
      }
      if (v6_org.v6_prefixes.size() > 1 &&
          unit(h, kTagChange6) < config_.v6_prefix_change_share) {
        domain.v6_change_month = months - 1 - static_cast<int>(pick(11, h, kTagChange6, 1));
      }
      // Long-horizon re-hosting (outside the Figure 7 trailing year):
      // drives pair turnover between the 4-year-apart snapshots.
      if (org.v4_prefixes.size() > 1 && months > 16 &&
          unit(h, kTagEarlyChange) < 0.40) {
        domain.early_v4_change_month =
            12 + static_cast<int>(pick(static_cast<std::uint64_t>(months - 14), h,
                                       kTagEarlyChange, 1));
        domain.early_v4_prefix =
            static_cast<int>(pick(org.v4_prefixes.size(), h, kTagEarlyChange, 2));
      }
      if (unit(h, kTagAddrChange) < config_.address_change_share) {
        domain.address_change_month = months - 1 - static_cast<int>(pick(11, h, kTagAddrChange, 1));
      }

      domain.agile = org.address_agility > 0.0 &&
                     unit(h, kTagAgile) < org.address_agility;
      domain.second_v4_address = unit(h, kTagSecondAddr) < 0.15;
      domains_.push_back(std::move(domain));
    }
  }

  // The monitoring domain: one identity across hundreds of prefixes.
  if (monitoring_org_) {
    DomainSpec domain;
    domain.id = static_cast<std::uint32_t>(domains_.size());
    domain.queried = dns::DomainName::must_parse("probe.monitorcorp.example");
    domain.response = domain.queried;
    domain.v4_org = *monitoring_org_;
    domain.v6_org = *monitoring_org_;
    domain.birth_month = 0;
    domain.death_month = config_.months;
    domain.ds_month = 0;
    domain.visibility = Visibility::Always;
    domains_.push_back(std::move(domain));
  }
}

void SyntheticInternet::build_monitoring_sites() {
  if (!monitoring_org_) return;
  // Dedicated ranges far above anything build_orgs can reach at any scale.
  V4Allocator v4_alloc(0x80000000u);     // 128.0.0.0 upward
  V6Allocator v6_alloc(0x00800000u);     // 2680::/16 region upward

  const std::uint64_t seed = config_.seed;
  const auto pick_host_org = [&](std::uint64_t salt) -> std::uint32_t {
    for (int attempt = 0;; ++attempt) {
      const auto candidate = static_cast<std::uint32_t>(
          pick(orgs_.size(), seed, kTagMonitorSite, salt, attempt));
      const OrgSpec& org = orgs_[candidate];
      if (!org.eyeball && !org.monitoring && !org.hg_cdn) return candidate;
    }
  };

  // Sites are deployed over time: ~40% existed at the window start, the
  // rest appear gradually (this drives most of the pair-count growth and
  // the large "new pairs" share in Figures 9/10).
  const auto site_birth = [&](std::uint64_t salt) {
    if (unit(seed, kTagSiteBirth, salt) < 0.40) return 0;
    return 1 + static_cast<int>(pick(static_cast<std::uint64_t>(config_.months - 1), seed,
                                     kTagSiteBirth, salt, 1));
  };
  // The monitoring pair grid is the full v4-site x v6-site bipartite
  // clique (one domain identity answers from every site), so to keep it a
  // fixed *share* of all pairs — the universe grows linearly in scale —
  // only the probe-side v4 fleet scales; the v6 anchor deployment stays
  // the org's fixed footprint. Scaling both sides would grow the grid
  // quadratically and drown every other pair population. The site-salt
  // ranges below stay disjoint for any scale <= 15.
  const int scale = std::max(1, config_.scale);
  for (int i = 0; i < config_.monitoring_v4_prefixes * scale; ++i) {
    const std::uint32_t org_id = pick_host_org(1000 + i);
    OrgSpec& org = orgs_[org_id];
    const unsigned v4_lengths[] = {22, 23, 24, 24};
    org.v4_prefixes.push_back(
        v4_alloc.allocate(v4_lengths[pick(4, seed, kTagMonitorSite, 3000 + i)]));
    monitoring_v4_sites_.push_back(
        {org_id, static_cast<int>(org.v4_prefixes.size() - 1), site_birth(1000 + i)});
  }
  for (int i = 0; i < config_.monitoring_v6_prefixes; ++i) {
    const std::uint32_t org_id = pick_host_org(2000 + i);
    OrgSpec& org = orgs_[org_id];
    const unsigned v6_lengths[] = {32, 40, 44, 48};
    org.v6_prefixes.push_back(
        v6_alloc.allocate(v6_lengths[pick(4, seed, kTagMonitorSite, 4000 + i)]));
    monitoring_v6_sites_.push_back(
        {org_id, static_cast<int>(org.v6_prefixes.size() - 1), site_birth(2000 + i)});
  }
}

bool SyntheticInternet::visible_at(const DomainSpec& domain, int month) const {
  if (month < domain.birth_month || month >= domain.death_month) return false;
  if (orgs_[domain.v4_org].monitoring) {
    // The monitoring domain disappears on a few dates (the paper's
    // site24x7 dips in Figures 14/15).
    const int missing[] = {month_index(Date{2023, 5, 10}), month_index(Date{2022, 3, 10}),
                           month_index(Date{2021, 6, 10}), month_index(Date{2021, 11, 10})};
    for (const int m : missing) {
      if (month == m) return false;
    }
    return true;
  }
  switch (domain.visibility) {
    case Visibility::Always:
      return true;
    case Visibility::Once:
      return month == domain.once_month;
    case Visibility::Intermittent:
      return unit(config_.seed, domain.id, static_cast<std::uint64_t>(month),
                  kTagIntermittent) < config_.intermittent_visibility;
  }
  return false;
}

SyntheticInternet::DomainPlacement SyntheticInternet::place(const DomainSpec& domain,
                                                            int month) const {
  const std::uint64_t seed = config_.seed;
  const OrgSpec& org4 = orgs_[domain.v4_org];
  const OrgSpec& org6 = orgs_[domain.v6_org];

  int i4 = domain.v4_prefix;
  if (domain.v4_change_month >= 0 && month < domain.v4_change_month) {
    i4 = domain.alt_v4_prefix;
  }
  if (domain.early_v4_change_month >= 0 && month < domain.early_v4_change_month) {
    i4 = domain.early_v4_prefix;
  }
  int i6 = domain.v6_prefix;
  if (domain.v6_change_month >= 0 && month < domain.v6_change_month) {
    i6 = domain.alt_v6_prefix;
  }
  // Structured orgs place each counterpart's services in a dedicated
  // sub-block (SP-Tuner can split those apart). Unstructured orgs use
  // shared hosting: all domains of a prefix land on a handful of shared
  // addresses, which no sub-prefix split can separate.
  const std::uint64_t slot4 = pick(3, seed, domain.id, kTagSharedSlot4);
  const std::uint64_t slot6 = pick(3, seed, domain.id, kTagSharedSlot6);
  unsigned group4 = org4.structured
                        ? static_cast<unsigned>(i6)
                        : static_cast<unsigned>(
                              pick(16, seed, org4.id, kTagGroupFree4, slot4));
  unsigned group6 = org6.structured
                        ? static_cast<unsigned>(i4)
                        : static_cast<unsigned>(
                              pick(16, seed, org6.id, kTagGroupFree6, slot6));
  std::uint64_t agile_epoch = 0;
  if (domain.agile) {
    // Address agility: the CDN re-homes the domain every month.
    i6 = static_cast<int>(
        pick(org6.v6_prefixes.size(), seed, domain.id, month, kTagAgilePrefix));
    group4 = static_cast<unsigned>(
        pick(16, seed, domain.id, static_cast<std::uint64_t>(month), kTagAgilePrefix + 100));
    agile_epoch = static_cast<std::uint64_t>(month) * 131u + 7u;
  }

  const std::uint64_t address_epoch =
      (domain.address_change_month >= 0 && month < domain.address_change_month) ? 0u : 1u;

  DomainPlacement placement;
  placement.v4_prefix = org4.v4_prefixes[static_cast<std::size_t>(i4)];
  placement.v6_prefix = org6.v6_prefixes[static_cast<std::size_t>(i6)];

  // Shared-hosting addresses are keyed by (org, prefix, slot) so many
  // domains resolve to the same host; dedicated addresses by domain id.
  // Shared addresses never churn (the whole slot would have to move).
  const std::uint64_t salt4 =
      org4.structured
          ? mix(seed, domain.id, kTagSalt4, address_epoch + agile_epoch)
          : mix(seed, org4.id, kTagSalt4 + 100,
                (static_cast<std::uint64_t>(i4) << 8) | slot4);
  placement.v4.push_back(v4_host_address(placement.v4_prefix, group4, salt4));
  if (domain.second_v4_address && org4.structured) {
    placement.v4.push_back(v4_host_address(placement.v4_prefix, group4, salt4 + 77));
  }

  // CDN edge replication, active only above scale 1 and only for the
  // structured (aligned) hypergiants: the org's prefix array is cut into
  // clusters of ~64*scale consecutive edge prefixes, a domain picks one
  // cluster and is served from a random half-subset of it. Both families
  // draw the same index sequence (the picks are keyed by domain id only
  // and an aligned org has m4 == m6), so prefix a's domain set is nearly
  // identical to its paired a6 — the unique high-Jaccard counterpart
  // detection must find — while two *different* prefixes of the same
  // cluster share only ~0.25 Jaccard (independent half-subsets) and
  // different clusters share nothing. Each element's posting list then
  // names a whole cluster, so the exact scan counts every prefix of it
  // as a candidate before keeping the one true counterpart: the
  // candidate load of CDN deployments at paper scale.
  const int scale = std::max(1, config_.scale);
  const std::uint64_t stride_h = mix(seed, domain.id, kTagReplica);
  const bool replicated = scale > 1 && org4.hg_cdn && org4.aligned;
  std::size_t cluster_base = 0;
  std::size_t cluster_size = 0;
  std::size_t member_count = 0;
  if (replicated) {
    const std::size_t m4 = org4.v4_prefixes.size();
    const std::size_t cluster_span = std::min<std::size_t>(
        static_cast<std::size_t>(64) * static_cast<std::size_t>(scale), m4);
    const std::size_t clusters = std::max<std::size_t>(1, m4 / cluster_span);
    const std::size_t c = static_cast<std::size_t>(pick(clusters, stride_h, 1));
    cluster_base = c * cluster_span;
    cluster_size = (c + 1 == clusters) ? m4 - cluster_base : cluster_span;
    member_count = std::max<std::size_t>(1, cluster_size / 2);
    for (std::size_t j = 0; j < member_count; ++j) {
      const std::size_t index =
          cluster_base + static_cast<std::size_t>(pick(cluster_size, stride_h, 2, j));
      placement.v4.push_back(v4_host_address(org4.v4_prefixes[index], group4,
                                             mix(salt4, kTagReplica, j)));
    }
  }

  // Replicated CDN edges are dual-stack from birth: at scale the v6 side
  // must mirror the v4 cluster or the aligned counterpart would sit below
  // the detection floor.
  if (month >= domain.ds_month || replicated) {
    const std::uint64_t salt6 =
        org6.structured
            ? mix(seed, domain.id, kTagSalt6, address_epoch + agile_epoch)
            : mix(seed, org6.id, kTagSalt6 + 100,
                  (static_cast<std::uint64_t>(i6) << 8) | slot6);
    placement.v6.push_back(v6_host_address(placement.v6_prefix, group6, salt6));
    if (replicated) {
      // Same cluster and the same member picks as the v4 block above:
      // aligned orgs have m6 == m4, so the indices land on the paired
      // prefixes and the two families carry matching edge sets.
      for (std::size_t j = 0; j < member_count; ++j) {
        const std::size_t index =
            cluster_base + static_cast<std::size_t>(pick(cluster_size, stride_h, 2, j));
        placement.v6.push_back(v6_host_address(org6.v6_prefixes[index], group6,
                                               mix(salt6, kTagReplica, j)));
      }
    }
  }
  std::sort(placement.v4.begin(), placement.v4.end());
  placement.v4.erase(std::unique(placement.v4.begin(), placement.v4.end()),
                     placement.v4.end());
  return placement;
}

dns::ResolutionSnapshot SyntheticInternet::snapshot_at(int month) const {
  dns::ResolutionSnapshot snapshot(date_of_month(month));
  for (const DomainSpec& domain : domains_) {
    if (!visible_at(domain, month)) continue;

    dns::DomainResolution entry;
    entry.queried = domain.queried;
    entry.response_name = domain.response;

    if (monitoring_org_ && orgs_[domain.v4_org].monitoring) {
      // The monitoring domain answers with one address per site.
      for (const auto& site : monitoring_v4_sites_) {
        if (month < site.birth_month) continue;
        const Prefix& prefix =
            orgs_[site.org_id].v4_prefixes[static_cast<std::size_t>(site.prefix_index)];
        entry.v4.push_back(v4_host_address(prefix, 0, mix(config_.seed, site.org_id, 0x515)));
      }
      for (const auto& site : monitoring_v6_sites_) {
        if (month < site.birth_month) continue;
        const Prefix& prefix =
            orgs_[site.org_id].v6_prefixes[static_cast<std::size_t>(site.prefix_index)];
        entry.v6.push_back(v6_host_address(prefix, 0, mix(config_.seed, site.org_id, 0x616)));
      }
    } else {
      auto placement = place(domain, month);
      entry.v4 = std::move(placement.v4);
      entry.v6 = std::move(placement.v6);
    }
    std::sort(entry.v4.begin(), entry.v4.end());
    std::sort(entry.v6.begin(), entry.v6.end());
    snapshot.add(std::move(entry));
  }
  return snapshot;
}

std::vector<mrt::MrtRecord> SyntheticInternet::mrt_dump_at(int month) const {
  const std::uint64_t seed = config_.seed;
  const std::uint32_t timestamp = 1726000000;  // fixed collector time

  // Monitoring-site prefixes born after `month` are not announced yet.
  std::set<std::pair<std::uint32_t, int>> unborn;
  for (const auto& site : monitoring_v4_sites_) {
    if (site.birth_month > month) unborn.insert({site.org_id, site.prefix_index});
  }
  std::set<std::pair<std::uint32_t, int>> unborn_v6;
  for (const auto& site : monitoring_v6_sites_) {
    if (site.birth_month > month) unborn_v6.insert({site.org_id, site.prefix_index});
  }

  std::vector<mrt::MrtRecord> records;
  mrt::PeerIndexTable peers;
  peers.collector_bgp_id = {192, 0, 2, 250};
  peers.view_name = "sibling-prefixes-synth";
  peers.peers.push_back({{192, 0, 2, 1}, IPAddress::must_parse("5.0.0.1"), 64500});
  peers.peers.push_back({{192, 0, 2, 2}, IPAddress::must_parse("2600:1::1"), 64501});
  records.push_back({timestamp, peers});

  const std::uint32_t transits[] = {3356, 1299, 174, 6939, 2914};
  std::uint32_t sequence = 0;
  for (const OrgSpec& org : orgs_) {
    const auto emit = [&](const Prefix& prefix, std::uint32_t origin) {
      mrt::RibRecord rib;
      rib.sequence = sequence++;
      rib.prefix = prefix;
      const std::uint32_t transit =
          transits[pick(std::size(transits), seed, origin, kTagTransit, sequence)];
      mrt::RibEntry entry;
      entry.peer_index = 0;
      entry.originated_time = timestamp - 86400;
      entry.attributes = mrt::PathAttributes::sequence({64500, transit, origin});
      if (prefix.family() == Family::v4) {
        entry.attributes.next_hop_v4 = *IPv4Address::from_string("5.0.0.1");
      } else {
        entry.attributes.next_hop_v6 = *IPv6Address::from_string("2600:1::1");
      }
      rib.entries.push_back(entry);
      // A second peer's view for roughly half the prefixes.
      if (unit(seed, sequence, kTagSecondPeer) < 0.5) {
        mrt::RibEntry second = entry;
        second.peer_index = 1;
        second.attributes =
            mrt::PathAttributes::sequence({64501, transits[0], origin});
        rib.entries.push_back(second);
      }
      records.push_back({timestamp, std::move(rib)});
    };
    for (std::size_t i = 0; i < org.v4_prefixes.size(); ++i) {
      if (unborn.contains({org.id, static_cast<int>(i)})) continue;
      emit(org.v4_prefixes[i], org.v4_asn);
    }
    for (std::size_t i = 0; i < org.v6_prefixes.size(); ++i) {
      if (unborn_v6.contains({org.id, static_cast<int>(i)})) continue;
      emit(org.v6_prefixes[i], org.v6_asn);
    }
  }
  return records;
}

std::vector<mrt::MrtRecord> SyntheticInternet::bgp4mp_updates_at(int month) const {
  const std::uint32_t timestamp = 1726000000;
  std::vector<mrt::MrtRecord> records;
  const auto emit_announce = [&](const Prefix& prefix, std::uint32_t origin) {
    mrt::Bgp4mpUpdate update;
    update.peer_asn = 64500;
    update.local_asn = 65550;
    update.peer_address = IPAddress::must_parse("5.0.0.1");
    update.local_address = IPAddress::must_parse("5.0.0.2");
    update.attributes = mrt::PathAttributes::sequence({64500, 3356, origin});
    if (prefix.family() == Family::v4) {
      update.attributes.next_hop_v4 = *IPv4Address::from_string("5.0.0.1");
    } else {
      update.attributes.next_hop_v6 = *IPv6Address::from_string("2600:1::1");
    }
    update.announced.push_back(prefix);
    records.push_back(
        {timestamp + static_cast<std::uint32_t>(month) * 2592000u, std::move(update)});
  };
  for (const auto& site : monitoring_v4_sites_) {
    if (site.birth_month != month) continue;
    const OrgSpec& org = orgs_[site.org_id];
    emit_announce(org.v4_prefixes[static_cast<std::size_t>(site.prefix_index)], org.v4_asn);
  }
  for (const auto& site : monitoring_v6_sites_) {
    if (site.birth_month != month) continue;
    const OrgSpec& org = orgs_[site.org_id];
    emit_announce(org.v6_prefixes[static_cast<std::size_t>(site.prefix_index)], org.v6_asn);
  }
  return records;
}

std::vector<rpki::Roa> SyntheticInternet::roas_at(int month) const {
  const std::uint64_t seed = config_.seed;
  std::vector<rpki::Roa> roas;
  for (const OrgSpec& org : orgs_) {
    if (!org.rpki_adopter) continue;
    const auto emit = [&](const Prefix& prefix, std::uint32_t origin, std::uint64_t salt) {
      rpki::Roa roa;
      roa.prefix = prefix;
      roa.asn = origin;
      if (unit(seed, org.id, kTagRoaWrong, salt) < config_.rpki_wrong_origin_share) {
        roa.asn = origin + 7;  // mis-issued → invalid announcements
      }
      const bool short_maxlen =
          unit(seed, org.id, kTagRoaMaxLen, salt) < config_.rpki_short_maxlen_share;
      roa.max_length = static_cast<std::uint8_t>(
          short_maxlen ? prefix.length()
                       : std::min(prefix.max_length(), prefix.length() + 8));
      roas.push_back(roa);
    };
    if (month >= org.rpki_v4_month) {
      for (std::size_t i = 0; i < org.v4_prefixes.size(); ++i) {
        emit(org.v4_prefixes[i], org.v4_asn, i);
      }
    }
    if (month >= org.rpki_v6_month) {
      for (std::size_t i = 0; i < org.v6_prefixes.size(); ++i) {
        emit(org.v6_prefixes[i], org.v6_asn, 1000 + i);
      }
    }
  }
  return roas;
}

std::vector<core::DualStackProbe> SyntheticInternet::probes() const {
  const std::uint64_t seed = config_.seed;
  const int last = config_.months - 1;

  // Pools: end-visible dual-stack domains and eyeball prefixes.
  std::vector<const DomainSpec*> ds_pool;
  for (const DomainSpec& domain : domains_) {
    if (orgs_[domain.v4_org].monitoring) continue;
    if (visible_at(domain, last) && last >= domain.ds_month && !domain.agile &&
        domain.v4_org == domain.v6_org) {
      ds_pool.push_back(&domain);
    }
  }
  std::vector<const OrgSpec*> eyeballs;
  for (const OrgSpec& org : orgs_) {
    if (org.eyeball && !org.v4_prefixes.empty() && !org.v6_prefixes.empty()) {
      eyeballs.push_back(&org);
    }
  }
  if (ds_pool.empty() || eyeballs.empty()) return {};

  std::vector<core::DualStackProbe> probes;
  probes.reserve(static_cast<std::size_t>(config_.probe_count));
  for (int i = 0; i < config_.probe_count; ++i) {
    const std::uint64_t h = mix(seed, 0x9807, i);
    const double kind = unit(h, kTagProbeKind);
    const DomainSpec& domain = *ds_pool[pick(ds_pool.size(), h, kTagProbeDomain)];
    const auto placement = place(domain, last);
    const OrgSpec& eyeball = *eyeballs[pick(eyeballs.size(), h, kTagProbeEyeball)];
    const Prefix eyeball_v4 =
        eyeball.v4_prefixes[pick(eyeball.v4_prefixes.size(), h, kTagProbeEyeball, 1)];
    const Prefix eyeball_v6 =
        eyeball.v6_prefixes[pick(eyeball.v6_prefixes.size(), h, kTagProbeEyeball, 2)];

    core::DualStackProbe probe;
    if (kind < config_.probe_full_coverage_share) {
      // Fully covered: both addresses in hosting prefixes.
      probe.v4 = IPAddress(
          v4_host_address(placement.v4_prefix, static_cast<unsigned>(domain.v6_prefix),
                          mix(h, 1)));
      if (unit(h, kTagProbeSame) < config_.probe_same_group_share) {
        probe.v6 = IPAddress(v6_host_address(
            placement.v6_prefix, static_cast<unsigned>(domain.v4_prefix), mix(h, 2)));
      } else {
        // Cross-placed: v6 inside a different domain's hosting prefix.
        const DomainSpec& other = *ds_pool[pick(ds_pool.size(), h, kTagProbeDomain, 1)];
        const auto other_placement = place(other, last);
        probe.v6 = IPAddress(v6_host_address(
            other_placement.v6_prefix, static_cast<unsigned>(other.v4_prefix), mix(h, 3)));
      }
    } else if (kind <
               config_.probe_full_coverage_share + config_.probe_partial_coverage_share) {
      probe.v4 = IPAddress(
          v4_host_address(placement.v4_prefix, static_cast<unsigned>(domain.v6_prefix),
                          mix(h, 4)));
      probe.v6 = IPAddress(v6_host_address(eyeball_v6, 0, mix(h, 5)));
    } else {
      probe.v4 = IPAddress(v4_host_address(eyeball_v4, 0, mix(h, 6)));
      probe.v6 = IPAddress(v6_host_address(eyeball_v6, 0, mix(h, 7)));
    }
    probes.push_back(probe);
  }
  return probes;
}

scan::PortScanDataset SyntheticInternet::port_scan() const {
  const std::uint64_t seed = config_.seed;
  const int last = config_.months - 1;
  scan::PortScanDataset dataset;

  const auto base_ports = [&](const DomainSpec& domain) {
    scan::PortMask mask = 0;
    const std::uint64_t h = mix(seed, domain.id, kTagPortBase);
    if (unit(h, 1) < 0.95) mask |= scan::port_bit(80) | scan::port_bit(443);
    if (unit(h, 2) < 0.22) mask |= scan::port_bit(22);
    if (unit(h, 3) < 0.08) mask |= scan::port_bit(25);
    if (unit(h, 4) < 0.07) mask |= scan::port_bit(53);
    if (unit(h, 5) < 0.05) mask |= scan::port_bit(21);
    if (mask == 0) mask = scan::port_bit(80);
    return mask;
  };

  for (const DomainSpec& domain : domains_) {
    if (!visible_at(domain, last)) continue;
    if (orgs_[domain.v4_org].monitoring) {
      // Monitoring probes answer on 443 everywhere.
      for (const auto& site : monitoring_v4_sites_) {
        if (orgs_[site.org_id].scan_silent || last < site.birth_month) continue;
        const Prefix& prefix =
            orgs_[site.org_id].v4_prefixes[static_cast<std::size_t>(site.prefix_index)];
        dataset.add_open(
            IPAddress(v4_host_address(prefix, 0, mix(seed, site.org_id, 0x515))), 443);
      }
      for (const auto& site : monitoring_v6_sites_) {
        if (orgs_[site.org_id].scan_silent || last < site.birth_month) continue;
        const Prefix& prefix =
            orgs_[site.org_id].v6_prefixes[static_cast<std::size_t>(site.prefix_index)];
        dataset.add_open(
            IPAddress(v6_host_address(prefix, 0, mix(seed, site.org_id, 0x616))), 443);
      }
      continue;
    }

    const auto placement = place(domain, last);
    const scan::PortMask v4_mask = base_ports(domain);
    scan::PortMask v6_mask = v4_mask;
    // Per-family drift: a port may be closed on one family or extra ports
    // open on IPv6 (the Czyz et al. observation).
    const std::uint64_t fh = mix(seed, domain.id, kTagPortFlip);
    if (unit(fh, 1) < config_.scan_port_flip_probability) {
      v6_mask &= static_cast<scan::PortMask>(~scan::port_bit(22));
    }
    if (unit(fh, 2) < config_.scan_port_flip_probability) {
      v6_mask |= scan::port_bit(123);
    }

    if (!orgs_[domain.v4_org].scan_silent) {
      for (const IPv4Address& address : placement.v4) {
        for (const std::uint16_t port : scan::kWellKnownPorts) {
          if ((v4_mask & scan::port_bit(port)) != 0) {
            dataset.add_open(IPAddress(address), port);
          }
        }
      }
    }
    if (!orgs_[domain.v6_org].scan_silent && last >= domain.ds_month) {
      for (const IPv6Address& address : placement.v6) {
        for (const std::uint16_t port : scan::kWellKnownPorts) {
          if ((v6_mask & scan::port_bit(port)) != 0) {
            dataset.add_open(IPAddress(address), port);
          }
        }
      }
    }
  }
  return dataset;
}

}  // namespace sp::synth
