// LookupEngine — point queries against a loaded sibling database.
//
// The operational question the published lists exist to answer is a point
// lookup: "given this IPv4 (or IPv6) address or prefix, what is its
// sibling prefix on the other family, with what confidence?" The engine
// builds one in-memory index over a SiblingDB snapshot: a Patricia trie
// over both families, one node per distinct stored prefix, that answers
// address lookups (as host-prefix queries) and longest-prefix-match
// queries for whole prefixes alike. Its size is O(pairs), so building
// one per snapshot load is cheap and a hyper-specific /25–/32 or /49+
// prefix costs what any other prefix costs.
//
// When several records share one matched prefix (best-match ties), the
// engine answers with the highest-similarity record, breaking ties by
// file order, so answers are deterministic for a given snapshot.
//
// query_many shards a batch over a core::WorkerPool (the PR-1 detection
// pool). The engine itself is immutable after construction and safe for
// concurrent query() calls; it holds a pointer into the SiblingDB it was
// built from, which must outlive it (SiblingService bundles the two).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/worker_pool.h"
#include "obs/metrics.h"
#include "serve/sibdb.h"
#include "trie/prefix_trie.h"

namespace sp::serve {

/// One lookup result: the stored prefix that matched the query, its
/// sibling on the other family, and the detection evidence.
struct SiblingAnswer {
  Prefix matched;  // most specific stored prefix covering the query
  Prefix sibling;  // counterpart prefix of the answering record
  double similarity = 0.0;
  std::uint32_t shared_domains = 0;
  std::uint32_t v4_domain_count = 0;
  std::uint32_t v6_domain_count = 0;

  [[nodiscard]] friend bool operator==(const SiblingAnswer&, const SiblingAnswer&) = default;
};

class LookupEngine {
 public:
  /// Indexes `db`; the database must outlive the engine.
  explicit LookupEngine(const SiblingDB& db);

  LookupEngine(LookupEngine&&) noexcept = default;
  LookupEngine& operator=(LookupEngine&&) noexcept = default;
  LookupEngine(const LookupEngine&) = delete;
  LookupEngine& operator=(const LookupEngine&) = delete;

  /// Longest-prefix match for a single address of either family (the
  /// prefix query of its host prefix).
  [[nodiscard]] std::optional<SiblingAnswer> query(const IPAddress& address) const;

  /// Longest-prefix match for a whole prefix: the most specific stored
  /// prefix containing `prefix` (an exact match qualifies).
  [[nodiscard]] std::optional<SiblingAnswer> query(const Prefix& prefix) const;

  /// Batched lookup; answers[i] corresponds to addresses[i]. With a pool,
  /// the batch is sharded across its workers; without one it runs inline.
  [[nodiscard]] std::vector<std::optional<SiblingAnswer>> query_many(
      std::span<const IPAddress> addresses, core::WorkerPool* pool = nullptr) const;

  /// Distinct indexed prefixes per family.
  [[nodiscard]] std::size_t v4_prefix_count() const noexcept { return v4_count_; }
  [[nodiscard]] std::size_t v6_prefix_count() const noexcept { return v6_count_; }

 private:
  [[nodiscard]] SiblingAnswer answer_from(std::uint32_t record, Family query_family) const;

  const SiblingDB* db_;
  PrefixTrie<std::uint32_t> trie_;  // both families -> representative record
  std::size_t v4_count_ = 0;
  std::size_t v6_count_ = 0;

  // Global-registry batch metrics, one update per query_many call (the
  // per-address cost stays a plain loop); a trace span covers each batch.
  obs::Histogram batch_us_;      // serve.batch_us
  obs::Counter batch_queries_;   // serve.batch_queries
};

}  // namespace sp::serve
