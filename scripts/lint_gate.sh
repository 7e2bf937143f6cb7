#!/usr/bin/env bash
# The lint gate: sp_lint over the whole tree — the per-file rule catalog
# plus the cross-file semantic passes (DESIGN.md §3.10): lock-rank
# against the §3.5 table, the layering DAG against src/lint/layers.def,
# the snapshot-escape rule, and the stale-suppression audit (both auto-
# detected from the repo root). Every finding must either be fixed or
# carry an explicit sp-lint suppression with a reason; zero unsuppressed
# findings is the bar, over at least 100 files (fewer means a wrong cwd).
# Tier-1 stage 7 and CI's lint job both run this script.
#
#   scripts/lint_gate.sh    # runs build/tools/sp_lint (target sp_lint_cli)
set -euo pipefail
cd "$(dirname "$0")/.."

# sp_lint exits 1 when a finding is unsuppressed; the check below lists
# the findings before the gate fails.
LINT_STATUS=0
./build/tools/sp_lint --json > build/sp_lint_report.json || LINT_STATUS=$?
python3 - <<'EOF'
import json
report = json.load(open("build/sp_lint_report.json"))
print(f"sp_lint: {report['files_scanned']} files, "
      f"{report['unsuppressed']} unsuppressed, {report['suppressed']} suppressed")
if report["files_scanned"] < 100:
    raise SystemExit("sp_lint walked suspiciously few files — wrong cwd?")
if report["unsuppressed"] != 0:
    for finding in report["findings"]:
        if not finding["suppressed"]:
            print(f"  {finding['file']}:{finding['line']}: "
                  f"[{finding['rule']}] {finding['message']}")
    raise SystemExit(1)
EOF
exit "$LINT_STATUS"
