// Tests for the generic SetCorpus detection input (paper section 3.7) and
// its equivalence with the DNS corpus on identical data.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/detect.h"
#include "test_fixtures.h"

namespace sp::core {
namespace {

Prefix p(const char* text) { return Prefix::must_parse(text); }

TEST(SetCorpus, DetectsFromArbitraryElements) {
  SetCorpus corpus;
  // Elements 1..3 shared by one v4/v6 prefix pair, element 9 elsewhere.
  corpus.add(p("20.1.0.0/16"), 1);
  corpus.add(p("20.1.0.0/16"), 2);
  corpus.add(p("20.1.0.0/16"), 3);
  corpus.add(p("2620:100::/48"), 1);
  corpus.add(p("2620:100::/48"), 2);
  corpus.add(p("2620:100::/48"), 3);
  corpus.add(p("20.2.0.0/16"), 9);
  corpus.add(p("2620:200::/48"), 9);
  corpus.finalize();

  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].v4, p("20.1.0.0/16"));
  EXPECT_EQ(pairs[0].v6, p("2620:100::/48"));
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 1.0);
  EXPECT_EQ(pairs[0].shared_domains, 3u);
  EXPECT_DOUBLE_EQ(pairs[1].similarity, 1.0);
}

TEST(SetCorpus, DuplicateAddsCollapse) {
  SetCorpus corpus;
  corpus.add(p("20.1.0.0/16"), 5);
  corpus.add(p("20.1.0.0/16"), 5);
  corpus.add(p("2620:100::/48"), 5);
  corpus.finalize();
  EXPECT_EQ(corpus.domains_of(p("20.1.0.0/16")).size(), 1u);
  EXPECT_EQ(corpus.detect_index().v4.postings_of(5).size(), 1u);
}

TEST(SetCorpus, UnknownLookupsAreEmpty) {
  SetCorpus corpus;
  corpus.add(p("20.1.0.0/16"), 1);
  corpus.finalize();
  EXPECT_TRUE(corpus.domains_of(p("20.9.0.0/16")).empty());
  EXPECT_TRUE(corpus.detect_index().v4.postings_of(99).empty());
  EXPECT_TRUE(corpus.detect_index().v6.postings_of(1).empty());
  EXPECT_TRUE(detect_sibling_prefixes(corpus).empty());  // no v6 side at all
}

TEST(SetCorpus, BestMatchSemanticsMatchDnsCorpus) {
  // Build the same data through both corpus types; pair lists must agree.
  testsupport::ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 1).announce("2620:100::/48", 2).announce("2620:200::/48", 3);
  builder.announce("20.9.9.0/24", 4);
  builder.host("d1.example.org", {"20.1.1.1"}, {"2620:100::1"});
  builder.host("d2.example.org", {"20.1.1.2"}, {"2620:100::2"});
  builder.host("d3.example.org", {"20.1.1.3"}, {"2620:200::3"});
  builder.host("d4.example.org", {"20.9.9.4"}, {"2620:200::4"});
  const auto dns_corpus = builder.corpus();
  const auto dns_pairs = detect_sibling_prefixes(dns_corpus);

  SetCorpus generic;
  for (const Family family : {Family::v4, Family::v6}) {
    const DetectIndex::Side& side = dns_corpus.detect_index().side(family);
    for (std::uint32_t dense = 0; dense < side.prefix_count(); ++dense) {
      for (const DomainId id : side.elements_of(dense)) generic.add(side.prefixes[dense], id);
    }
  }
  generic.finalize();
  const auto generic_pairs = detect_sibling_prefixes(generic);
  EXPECT_EQ(generic_pairs, dns_pairs);
}

TEST(SetCorpus, AddAfterFinalizeThrows) {
  SetCorpus corpus;
  corpus.add(p("20.1.0.0/16"), 1);
  EXPECT_FALSE(corpus.finalized());
  corpus.finalize();
  EXPECT_TRUE(corpus.finalized());
  EXPECT_THROW(corpus.add(p("20.2.0.0/16"), 2), std::logic_error);
  // The rejected add must not have corrupted anything.
  EXPECT_TRUE(corpus.domains_of(p("20.2.0.0/16")).empty());
  EXPECT_EQ(corpus.detect_index().v4.prefix_count(), 1u);
}

TEST(SetCorpus, MaxElementIdIsRejected) {
  // The posting CSR needs an offset at id + 1, which wraps to 0 in 32-bit
  // arithmetic for the largest id (DetectIndex::kElementLimit): that one
  // id is refused, loudly, in both families.
  SetCorpus corpus;
  EXPECT_THROW(corpus.add(p("20.1.0.0/16"), 0xFFFFFFFFu), std::out_of_range);
  EXPECT_THROW(corpus.add(p("2620:100::/48"), 0xFFFFFFFFu), std::out_of_range);
  // Nothing was recorded, and the corpus still works.
  corpus.add(p("20.1.0.0/16"), 7);
  corpus.add(p("2620:100::/48"), 7);
  corpus.finalize();
  EXPECT_EQ(corpus.detect_index().v4.element_count(), 8u);
  EXPECT_EQ(detect_sibling_prefixes(corpus).size(), 1u);
}

TEST(SetCorpus, DetectIndexRequiresFinalize) {
  SetCorpus corpus;
  corpus.add(p("20.1.0.0/16"), 1);
  EXPECT_THROW((void)corpus.detect_index(), std::logic_error);
  EXPECT_THROW((void)detect_sibling_prefixes(corpus), std::logic_error);
}

TEST(SetCorpus, FinalizeIsIdempotent) {
  SetCorpus corpus;
  corpus.add(p("20.1.0.0/16"), 1);
  corpus.add(p("2620:100::/48"), 1);
  corpus.finalize();
  corpus.finalize();
  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 1.0);
}

TEST(SetCorpus, DuplicateObservationsDoNotInflateSimilarity) {
  // The same (prefix, element) observation repeated many times must count
  // once everywhere: set sizes, shared counts, and the detection index.
  SetCorpus corpus;
  for (int repeat = 0; repeat < 5; ++repeat) {
    corpus.add(p("20.1.0.0/16"), 1);
    corpus.add(p("20.1.0.0/16"), 2);
    corpus.add(p("2620:100::/48"), 1);
  }
  corpus.add(p("2620:100::/48"), 2);
  corpus.finalize();

  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 1.0);
  EXPECT_EQ(pairs[0].shared_domains, 2u);
  EXPECT_EQ(pairs[0].v4_domain_count, 2u);
  EXPECT_EQ(pairs[0].v6_domain_count, 2u);
}

TEST(SetCorpus, ElementsPresentInOnlyOneFamily) {
  // Family-exclusive elements (v4-only ports, v6-only rDNS names) must not
  // generate candidates; only the shared element links the pair. The
  // v6-only id is far above every v4 element id, exercising the posting
  // bounds guard of the flat index.
  SetCorpus corpus;
  corpus.add(p("20.1.0.0/16"), 1);   // v4-only
  corpus.add(p("20.1.0.0/16"), 2);   // shared
  corpus.add(p("2620:100::/48"), 2);
  corpus.add(p("2620:100::/48"), 900);  // v6-only, beyond the v4 id range
  corpus.finalize();

  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].shared_domains, 1u);
  // Jaccard: 1 shared of (2 + 2 - 1) = 1/3.
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 1.0 / 3.0);

  // Entirely disjoint element spaces yield no pairs at all.
  SetCorpus disjoint;
  disjoint.add(p("20.1.0.0/16"), 1);
  disjoint.add(p("2620:100::/48"), 2);
  disjoint.finalize();
  EXPECT_TRUE(detect_sibling_prefixes(disjoint).empty());
}

TEST(SetCorpus, MetricsApply) {
  SetCorpus corpus;
  // v4 set {1,2}, v6 set {1,2,3,4}: jaccard 1/2, overlap 1.
  corpus.add(p("20.1.0.0/16"), 1);
  corpus.add(p("20.1.0.0/16"), 2);
  for (DomainId id : {1u, 2u, 3u, 4u}) corpus.add(p("2620:100::/48"), id);
  corpus.finalize();

  const auto jaccard_pairs = detect_sibling_prefixes(corpus, {Metric::Jaccard});
  const auto overlap_pairs = detect_sibling_prefixes(corpus, {Metric::Overlap});
  ASSERT_EQ(jaccard_pairs.size(), 1u);
  ASSERT_EQ(overlap_pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(jaccard_pairs[0].similarity, 0.5);
  EXPECT_DOUBLE_EQ(overlap_pairs[0].similarity, 1.0);
}

}  // namespace
}  // namespace sp::core
