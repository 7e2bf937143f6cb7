#!/usr/bin/env bash
# sp_pipeline's `.zone` input held to its snapshot-CSV input. In a temp
# dir: run `sp_pipeline --demo` (it writes demo_rib.mrt, demo_snapshot.csv
# and demo_siblings.csv), render the snapshot as a zone file (each
# response name's A/AAAA records once, plus `queried CNAME response`
# where the two names differ), run the one-shot pipeline on the RIB and
# that zone, and require its sibling list to match demo_siblings.csv byte
# for byte. Runs the binaries of the tier-1 tree, build/.
set -euo pipefail
BUILD="$(cd "$(dirname "$0")/../build" && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

"$BUILD/examples/sp_pipeline" --demo > demo.out
python3 - demo_snapshot.csv demo.zone <<'EOF'
import csv, sys
rows = list(csv.reader(open(sys.argv[1], newline="")))
assert rows[1] == ["queried", "response", "v4_addrs", "v6_addrs"], rows[:2]
lines, seen = [], set()
for queried, response, v4, v6 in rows[2:]:
    if response not in seen:
        seen.add(response)
        lines += [f"{response}. A {a}" for a in v4.split("|") if a]
        lines += [f"{response}. AAAA {a}" for a in v6.split("|") if a]
    if queried != response:
        lines.append(f"{queried}. CNAME {response}.")
open(sys.argv[2], "w").write("\n".join(lines) + "\n")
EOF
"$BUILD/examples/sp_pipeline" demo_rib.mrt demo.zone zone.csv 28 96
cmp demo_siblings.csv zone.csv
echo "zone-vs-csv: $(($(wc -l < zone.csv) - 1)) pairs, byte-identical to the CSV path"
