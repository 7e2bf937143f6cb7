// Tests for the DomainName value type.
#include "dns/name.h"

#include <gtest/gtest.h>

namespace sp::dns {
namespace {

TEST(DomainName, ParsesAndCanonicalizes) {
  const auto name = DomainName::from_string("WWW.Example.ORG");
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->text(), "www.example.org");
  EXPECT_EQ(name->to_string(), "www.example.org");
}

TEST(DomainName, TrailingDotIsStripped) {
  EXPECT_EQ(DomainName::must_parse("example.org."), DomainName::must_parse("example.org"));
}

TEST(DomainName, RootName) {
  const auto root = DomainName::from_string(".");
  ASSERT_TRUE(root.has_value());
  EXPECT_TRUE(root->is_root());
  EXPECT_EQ(root->to_string(), ".");
}

TEST(DomainName, RejectsMalformedNames) {
  for (const char* bad : {"exa mple.org", "example..org", "-bad.org", "bad-.org",
                          "exa$mple.org", ".leading.dot"}) {
    EXPECT_FALSE(DomainName::from_string(bad).has_value()) << bad;
  }
  const std::string long_label(64, 'a');
  EXPECT_FALSE(DomainName::from_string(long_label + ".org").has_value());
  std::string long_name;
  for (int i = 0; i < 60; ++i) long_name += "abcd.";
  long_name += "org";  // > 253 octets
  EXPECT_FALSE(DomainName::from_string(long_name).has_value());
}

TEST(DomainName, AcceptsEdgeCases) {
  EXPECT_TRUE(DomainName::from_string("_dmarc.example.org").has_value());
  EXPECT_TRUE(DomainName::from_string("xn--nxasmq6b.example").has_value());
  EXPECT_TRUE(DomainName::from_string("123.example").has_value());
  const std::string label63(63, 'a');
  EXPECT_TRUE(DomainName::from_string(label63 + ".org").has_value());
}

TEST(DomainName, CaseInsensitiveEqualityAndHash) {
  const auto a = DomainName::must_parse("Example.ORG");
  const auto b = DomainName::must_parse("example.org");
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::hash<DomainName>{}(a), std::hash<DomainName>{}(b));
}

}  // namespace
}  // namespace sp::dns
