// sp_lint — the project-invariant static analyzer CLI.
//
//   sp_lint [--json] [--root <dir>] [--rule <name>] [path...]
//
// With no paths, walks the default roots (src examples tests tools
// fuzz) under --root (default: current directory). Runs the per-file
// rule catalog plus the cross-file semantic passes — lock-rank (against
// DESIGN.md §3.5 when present), layering (against src/lint/layers.def
// when present), snapshot-escape, and the stale-suppression audit.
// Prints file:line diagnostics (or a JSON report with --json) and exits
// 1 when any unsuppressed finding remains — the contract tier1.sh
// stage 6 and the CI lint job enforce. Suppressed findings are listed
// with their reasons so the escape hatches stay auditable.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--root <dir>] [--rule <name>] [path...]\n"
               "  --json          machine-readable report on stdout\n"
               "  --root <dir>    directory the default roots are relative to\n"
               "  --rule <name>   report only findings of one rule\n"
               "  --design <md>   DESIGN.md for the lock-rank cross-check\n"
               "                  (default: <root>/DESIGN.md when present)\n"
               "  --layers <def>  layering declaration for the layering pass\n"
               "                  (default: <root>/src/lint/layers.def when present)\n"
               "  path...         files or directories to lint instead of the defaults\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string root = ".";
  std::string rule;
  std::string design;
  std::string layers;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--rule") == 0 && i + 1 < argc) {
      rule = argv[++i];
    } else if (std::strcmp(argv[i], "--design") == 0 && i + 1 < argc) {
      design = argv[++i];
    } else if (std::strcmp(argv[i], "--layers") == 0 && i + 1 < argc) {
      layers = argv[++i];
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      paths.emplace_back(argv[i]);
    }
  }

  std::error_code ec;
  std::filesystem::current_path(root, ec);
  if (ec) {
    std::fprintf(stderr, "sp_lint: cannot chdir to %s\n", root.c_str());
    return 2;
  }
  // Auto-detection only makes sense for the whole-tree walk: the
  // DESIGN.md cross-check asserts every documented lock is annotated
  // *somewhere*, which is vacuously violated when linting one file.
  sp::lint::LintOptions options;
  if (paths.empty()) {
    paths = sp::lint::default_roots();
    options = sp::lint::LintOptions::detect(".");
  }
  if (!design.empty()) options.design_md_path = design;
  if (!layers.empty()) options.layers_def_path = layers;
  options.rule_filter = rule;

  const sp::lint::LintReport report = sp::lint::lint_paths(paths, options);
  if (json) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    for (const sp::lint::Finding& finding : report.findings) {
      if (finding.suppressed) {
        std::printf("%s:%zu: suppressed [%s] (%s)\n", finding.file.c_str(), finding.line,
                    finding.rule.c_str(), finding.suppress_reason.c_str());
      } else {
        std::printf("%s:%zu: [%s] %s\n", finding.file.c_str(), finding.line,
                    finding.rule.c_str(), finding.message.c_str());
      }
    }
    std::printf("sp_lint: %zu files, %zu findings (%zu suppressed)\n", report.files_scanned,
                report.unsuppressed_count(), report.suppressed_count());
  }
  return report.unsuppressed_count() == 0 ? 0 : 1;
}
