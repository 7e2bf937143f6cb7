// sp_lint selftest: every rule fires on its seeded fixture with the
// exact file:line diagnostics, every suppression fixture silences it
// with the written reason, and the real tree lints clean — the same
// assertion tier1.sh stage 7 and the CI lint job make via the CLI.
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/rules.h"

namespace {

using sp::lint::Finding;

const std::string kFixtureDir = std::string(SP_SOURCE_DIR) + "/tests/lint_fixtures/";

/// Lints one fixture; the label keeps fixture paths stable in findings
/// (and, for serve/, inside the path-scoped rules).
std::vector<Finding> lint_fixture(const std::string& name) {
  return sp::lint::lint_file(kFixtureDir + name, name);
}

struct Expected {
  std::size_t line;
  const char* rule;
};

void expect_findings(const std::vector<Finding>& found, const std::vector<Expected>& expected) {
  ASSERT_EQ(found.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(found[i].line, expected[i].line) << found[i].message;
    EXPECT_EQ(found[i].rule, expected[i].rule);
    EXPECT_FALSE(found[i].suppressed) << found[i].file << ":" << found[i].line;
  }
}

TEST(LintSelftest, DeterminismFixtureFires) {
  expect_findings(lint_fixture("determinism_bad.cpp"), {{9, "determinism"},
                                                        {10, "determinism"},
                                                        {11, "determinism"},
                                                        {13, "determinism"},
                                                        {15, "determinism"}});
}

TEST(LintSelftest, DeterminismSuppressionSilences) {
  const auto found = lint_fixture("determinism_ok.cpp");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].line, 6u);
  EXPECT_EQ(found[0].rule, "determinism");
  EXPECT_TRUE(found[0].suppressed);
  EXPECT_EQ(found[0].suppress_reason, "fixture: documents the suppression syntax");
}

TEST(LintSelftest, AtomicsFixtureFires) {
  expect_findings(lint_fixture("atomics_bad.cpp"), {{7, "atomics"}, {10, "atomics"}});
}

TEST(LintSelftest, AtomicsSuppressionSilences) {
  const auto found = lint_fixture("atomics_ok.cpp");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].line, 7u);
  EXPECT_TRUE(found[0].suppressed);
  EXPECT_EQ(found[0].suppress_reason, "fixture: counter read after the pool joins");
}

TEST(LintSelftest, MmapFixtureFires) {
  const auto found = lint_fixture("serve/mmap_bad.cpp");
  expect_findings(found, {{10, "mmap-safety"}, {13, "mmap-safety"}, {17, "mmap-safety"}});
  EXPECT_NE(found[0].message.find("const_cast"), std::string::npos);
  EXPECT_NE(found[1].message.find("no bounds check"), std::string::npos);
  EXPECT_NE(found[2].message.find("non-const pointer"), std::string::npos);
}

TEST(LintSelftest, MmapBoundsCheckAndSuppressionPass) {
  const auto found = lint_fixture("serve/mmap_ok.cpp");
  ASSERT_EQ(found.size(), 1u);  // only the suppressed release const_cast
  EXPECT_EQ(found[0].line, 18u);
  EXPECT_TRUE(found[0].suppressed);
  EXPECT_EQ(found[0].suppress_reason, "fixture: munmap-style release, not a write");
}

TEST(LintSelftest, MmapRulesAreScopedToServe) {
  // The same violations outside a serve/ directory are not mmap findings.
  const auto found = sp::lint::lint_file(kFixtureDir + "serve/mmap_bad.cpp", "mmap_bad.cpp");
  EXPECT_TRUE(found.empty());
}

TEST(LintSelftest, HeaderFixtureFires) {
  expect_findings(lint_fixture("header_bad.h"),
                  {{5, "header-hygiene"}, {7, "header-hygiene"}});
}

TEST(LintSelftest, HeaderSuppressionSilences) {
  const auto found = lint_fixture("header_ok.h");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].line, 5u);
  EXPECT_TRUE(found[0].suppressed);
}

TEST(LintSelftest, LockOrderFixtureFires) {
  expect_findings(lint_fixture("lock_bad.h"), {{7, "lock-order"}});
}

TEST(LintSelftest, LockOrderAnnotationAndSuppressionPass) {
  const auto found = lint_fixture("lock_ok.h");
  ASSERT_EQ(found.size(), 1u);  // the annotated member is clean; Exempt is suppressed
  EXPECT_EQ(found[0].line, 13u);
  EXPECT_TRUE(found[0].suppressed);
}

TEST(LintSelftest, EmptyReasonIsItselfAFinding) {
  const auto found = lint_fixture("suppression_bad.cpp");
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].line, 7u);
  EXPECT_EQ(found[0].rule, "suppression");
  EXPECT_FALSE(found[0].suppressed);
  EXPECT_EQ(found[1].line, 8u);
  EXPECT_EQ(found[1].rule, "atomics");
  EXPECT_FALSE(found[1].suppressed);  // a reasonless suppression silences nothing
}

TEST(LintSelftest, MissingFileIsAnIoFinding) {
  const auto found = sp::lint::lint_file(kFixtureDir + "does_not_exist.cpp");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].rule, "io");
}

// The acceptance gate: the real tree has zero unsuppressed findings, and
// every suppression in it carries a reason.
TEST(LintSelftest, RealTreeLintsClean) {
  std::vector<std::string> roots;
  for (const std::string& root : sp::lint::default_roots()) {
    roots.push_back(std::string(SP_SOURCE_DIR) + "/" + root);
  }
  const sp::lint::LintReport report = sp::lint::lint_paths(roots);
  EXPECT_GT(report.files_scanned, 100u);  // the walk found the real tree
  for (const Finding& finding : report.findings) {
    EXPECT_TRUE(finding.suppressed) << finding.file << ":" << finding.line << " ["
                                    << finding.rule << "] " << finding.message;
    if (finding.suppressed) {
      EXPECT_FALSE(finding.suppress_reason.empty());
    }
  }
}

TEST(LintSelftest, FixturesAreExcludedFromTheWalk) {
  EXPECT_FALSE(sp::lint::lintable_path("tests/lint_fixtures/determinism_bad.cpp"));
  EXPECT_FALSE(sp::lint::lintable_path("build/CMakeFiles/probe.cpp"));
  EXPECT_TRUE(sp::lint::lintable_path("tests/lint_selftest_test.cpp"));
  EXPECT_TRUE(sp::lint::lintable_path("src/serve/sibdb.cpp"));
  EXPECT_FALSE(sp::lint::lintable_path("docs/notes.md"));
}

TEST(LintSelftest, JsonReportShape) {
  const sp::lint::LintReport report =
      sp::lint::lint_paths({kFixtureDir + "suppression_bad.cpp"});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"files_scanned\":1"), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\":2"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"suppression\""), std::string::npos);
}

}  // namespace
