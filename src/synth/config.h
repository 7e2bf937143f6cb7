// Configuration of the synthetic Internet model.
//
// The generator reproduces, at a configurable scale, the statistical
// structure the paper measures: organizations with v4/v6 prefix sets and
// sibling ASes, hypergiant/CDN deployments (with address-agile CDNs),
// a Site24x7-style monitoring organization whose single domain spans
// hundreds of third-party prefixes, dataset growth events (.fr ccTLD
// addition, Alexa removal), dual-stack adoption growth, domain visibility
// churn, prefix/address dynamics, RPKI deployment growth, vantage-point
// probes and port-scan behaviour.
//
// Every quantity is derived deterministically from `seed`, so all benches
// and tests are reproducible.
#pragma once

#include <cstdint>

#include "netbase/date.h"

namespace sp::synth {

struct SynthConfig {
  std::uint64_t seed = 42;

  /// Universe scale multiplier toward paper-scale corpora. Multiplies
  /// per-org domain counts and monitoring-site counts, and (above 1)
  /// switches hypergiant CDNs to replicated edge deployments, where each
  /// domain is served from several prefixes per family. scale = 1 is
  /// bit-identical to the pre-knob generator on every seed.
  int scale = 1;

  /// Snapshot range: `months` monthly snapshots ending at `end_date`
  /// (the paper: 49 snapshots, Sep 2020 - Sep 2024).
  int months = 49;
  Date end_date{2024, 9, 11};

  /// Regular (non-HG/CDN) organizations hosting content.
  int organization_count = 3000;
  /// Fraction of organizations that are eyeball/access networks hosting no
  /// domains (they matter for probe coverage and RPKI shares).
  double eyeball_share = 0.20;

  /// Scale factor for hypergiant/CDN prefix counts relative to the paper's
  /// Figure 17 pair counts (Amazon 4564 pairs × scale ≈ prefixes).
  double hg_prefix_scale = 0.05;

  /// Mean content domains per regular org (heavy-tailed around this).
  double domains_per_org = 18.0;

  /// Dual-stack share of domains at the start and end of the window
  /// (paper: 25.2% → 31.8%).
  double ds_share_start = 0.252;
  double ds_share_end = 0.318;

  /// Share of regular orgs with a single prefix per family. Together with
  /// the monitoring org's all-perfect pair grid this drives the fraction
  /// of perfect-match pairs in the default case (~52% overall in the
  /// paper; ~34% among non-monitoring pairs).
  double single_prefix_org_share = 0.26;

  /// Share of orgs that allocate services to per-counterpart sub-blocks
  /// ("subnet discipline"). SP-Tuner-MS can split structured orgs' pairs
  /// into perfect matches; unstructured orgs keep mixed sub-prefixes at
  /// any depth, bounding the tuned perfect-match share (~82% overall).
  double structured_org_share = 0.75;

  /// Probability that an org registers a distinct ASN for its IPv6
  /// deployment (sibling ASes under one organization name).
  double separate_v6_asn_share = 0.35;

  /// Share of content domains whose IPv6 is served by a *different*
  /// organization (multi-CDN / split hosting → different-org pairs).
  double multi_org_domain_share = 0.06;

  /// The Site24x7-like monitoring org: one domain, many third-party
  /// prefixes, each hosting only that domain.
  bool monitoring_org = true;
  int monitoring_v4_prefixes = 66;
  int monitoring_v6_prefixes = 24;

  /// Domain visibility over the trailing year (paper Figure 7): share
  /// always visible, share visible exactly once; the rest intermittent.
  double always_visible_share = 0.40;
  double once_visible_share = 0.20;
  double intermittent_visibility = 0.72;

  /// Fraction of consistent DS domains changing v4/v6 prefix within the
  /// trailing year (paper: ~9% v4, ~6% v6) and changing addresses (~17%).
  double v4_prefix_change_share = 0.09;
  double v6_prefix_change_share = 0.06;
  double address_change_share = 0.08;

  /// RPKI adoption: share of orgs that ever create ROAs, ramping in over
  /// the window; mis-issued ROAs produce invalid ROV statuses.
  double rpki_adopter_share = 0.72;
  double rpki_wrong_origin_share = 0.08;
  double rpki_short_maxlen_share = 0.65;

  /// Port scanning: orgs silently dropping probes, and the per-service
  /// port-profile noise between the v4 and v6 side of one host.
  double scan_silent_org_share = 0.33;
  double scan_port_flip_probability = 0.12;

  /// Vantage-point probes (the RIPE Atlas role).
  int probe_count = 2000;
  double probe_full_coverage_share = 0.43;
  double probe_partial_coverage_share = 0.32;
  /// Among fully covered probes, share placed inside one detected pair.
  double probe_same_group_share = 0.96;

  friend bool operator==(const SynthConfig&, const SynthConfig&) = default;
};

}  // namespace sp::synth
