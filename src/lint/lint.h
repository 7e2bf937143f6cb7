// sp::lint driver — walks the tree, builds the shared ProjectIndex
// (index.h), runs the per-file rule catalog (rules.h) and the
// cross-file semantic passes (semantic.h) over it, applies each file's
// sp-lint suppressions, audits the suppressions for staleness, and
// aggregates a report for tools/sp_lint, scripts/tier1.sh stage 7, and
// the CI lint job.
//
// Pass ordering matters: suppressions are applied only after both the
// per-file rules and the semantic passes have produced their findings,
// so an entry's use-tracking sees every rule that could consume it; the
// stale-suppression audit runs last. Findings of rules `suppression`
// and `stale-suppression` are themselves unsuppressable — the escape
// hatch cannot excuse its own rot.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/finding.h"
#include "lint/rules.h"

namespace sp::lint {

struct LintOptions {
  /// DESIGN.md path for the lock-rank §3.5 table cross-check; empty
  /// skips the cross-check (annotation consistency and derived-edge
  /// verification still run).
  std::string design_md_path;
  /// layers.def path for the layering pass; empty skips the pass.
  std::string layers_def_path;
  /// When nonempty, the report keeps only findings of this rule.
  std::string rule_filter;

  /// Options with design_md_path/layers_def_path filled in for
  /// `<root>/DESIGN.md` and `<root>/src/lint/layers.def` when those
  /// files exist — what the CLI uses when run from a repo checkout.
  [[nodiscard]] static LintOptions detect(const std::string& root);
};

struct LintReport {
  std::vector<Finding> findings;  // suppressed ones included, flagged
  std::size_t files_scanned = 0;

  [[nodiscard]] std::size_t unsuppressed_count() const noexcept {
    std::size_t n = 0;
    for (const Finding& finding : findings) n += finding.suppressed ? 0 : 1;
    return n;
  }
  [[nodiscard]] std::size_t suppressed_count() const noexcept {
    return findings.size() - unsuppressed_count();
  }

  /// Machine-readable report: {"files_scanned":N,"unsuppressed":N,
  /// "suppressed":N,"findings":[{file,line,rule,message,suppressed,
  /// reason}...]} — what tier1.sh and ci.yml assert on.
  [[nodiscard]] std::string to_json() const;
};

/// The directories sp_lint walks by default, relative to the repo root.
[[nodiscard]] const std::vector<std::string>& default_roots();

/// True for files the walker lints (.h/.hpp/.cpp/.cc outside build
/// trees and the linter's own violation fixtures).
[[nodiscard]] bool lintable_path(const std::string& path);

/// Lints one on-disk file through the full pipeline — per-file rules,
/// the semantic passes a single file can sustain (lock-rank annotation
/// consistency and derived edges, snapshot-escape; layering and the
/// DESIGN.md cross-check need the tree and are skipped), suppressions,
/// and the stale audit. `label` is the path recorded in findings and
/// used for path-based rule applicability (defaults to `path`). Missing
/// files produce an `io` finding. Sorted by (line, rule).
[[nodiscard]] std::vector<Finding> lint_file(const std::string& path,
                                             const std::string& label = {});

/// Walks `roots` (files or directories, recursively), indexes every
/// lintable file, and runs the full pipeline. Paths in findings are as
/// discovered. Deterministic: directory entries are visited in sorted
/// order and findings are sorted by (file, line, rule).
[[nodiscard]] LintReport lint_paths(const std::vector<std::string>& roots,
                                    const LintOptions& options = {});

}  // namespace sp::lint
