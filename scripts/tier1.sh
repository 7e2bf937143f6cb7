#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the sanitizer
# suites of scripts/sanitizer_suites.sh: a ThreadSanitizer pass over the
# threaded engines (parallel detection, SP-Tuner, the campaign DAG, delta
# hot-reload, obs metrics/tracing) and an ASan/UBSan pass over the serve
# path (.sibdb loader, lookup engine, RCU service), the campaign
# scheduler and resume, the parser-heavy I/O (the CSV cursor against its
# reference, snapshots and sibling lists, Happy Eyeballs, manifest
# UTF-8, zone files, MRT dumps and the RIB round trip) and the flat
# corpus build, the TCP front-end smoke (scripts/tcp_smoke.sh: sp_soak's
# external mode against a real sp_serve --listen, /metrics, SIGINT, a
# dead stdout pipe), a
# chaos soak smoke (seeded fault injection against an in-process serve
# path — plain with RSS/p99 bounds, and under ASan — plus a
# SIGINT-and-resume smoke on sp_pipeline), sp_pipeline's `.zone` input
# held byte for byte to its snapshot-CSV input, and the project linter
# (sp_lint) over the whole tree.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

# Stage 1: the canonical tier-1 build and test run (see ROADMAP.md).
cmake -B build -S .
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

# Stage 2: race the threaded code paths under ThreadSanitizer (the
# parallel engines, serve hot reload, the campaign DAG and its in-memory
# month hand-offs, obs, net, stream, chaos). Stage 3: a memory-safety
# pass under AddressSanitizer + UBSan over the serve path, the campaign
# runner, the byte-level parsers, the RIB round trip and the flat corpus.
# scripts/sanitizer_suites.sh keeps the one list of targets and filters
# per sanitizer; CI's tsan-threads and asan-serve-pipeline jobs run it
# too.
scripts/sanitizer_suites.sh thread
scripts/sanitizer_suites.sh address

# Stage 4: end-to-end smoke of the TCP front-end, the real binaries
# over a real socket: sp_soak's external mode against a running
# sp_serve --listen (its probes check each answer against the oracle of
# the generation that gave it, and a final sweep compares every fixture
# key's answer with an oracle), a /metrics scrape, SIGINT to exit 0, and the
# dead-stdout-pipe check. CI's TCP job runs the same script.
scripts/tcp_smoke.sh

# Stage 5: chaos soak smoke — sp_soak runs a seeded fault schedule
# (query bursts, slow and mid-frame-disconnecting readers, connection
# floods, RELOAD churn with valid, delta and corrupt images) against an
# in-process serve path and audits every invariant: liveness,
# corrupt-swap rejection, per-generation query conservation, a
# byte-correct final sweep against a fresh oracle. Two flavors (stage 4
# runs the external mode against a real sp_serve):
#
# (a) plain build with hard resource bounds. The RSS ceiling is the
#     regression net for snapshot retention: a snapshot must be freed
#     once nothing pins it, with only its generation's tally kept. The
#     fixtures' snapshots are small and this run peaks at ~6 MB, so
#     64 MB trips when snapshots pile up under reload churn or a
#     snapshot starts to cost tens of MB regardless of its pair count.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
./build/tools/sp_soak --dir "$SMOKE_DIR/soak" --seconds 12 --seed 7 \
  --max-rss-kb 65536 --max-p99-us 50000
#
# (b) the same driver under ASan/UBSan: memory-safety over the whole
#     serving stack while faults fly (no RSS/p99 bounds — ASan inflates
#     both).
cmake --build build-asan -j "$JOBS" --target sp_soak
./build-asan/tools/sp_soak --dir "$SMOKE_DIR/soak-asan" --seconds 12 --seed 8

# Signal-and-resume smoke: a real SIGINT to a real sp_pipeline process
# mid-campaign. The signal goes out once manifest.json exists (the runner
# saves it after every stage), so at least one stage has finished and
# most of the campaign has not. The graceful stop must exit 130, and the
# resume must re-run at least one stage and converge to a complete
# manifest. The library-level byte-identity proof lives in
# pipeline_signal_test; this checks the process-level signal plumbing.
./build/examples/sp_pipeline run "$SMOKE_DIR/camp" --months 12 --orgs 1500 --threads 2 \
  > "$SMOKE_DIR/camp.out" 2>&1 &
CAMP_PID=$!
for _ in $(seq 1000); do
  [ -e "$SMOKE_DIR/camp/manifest.json" ] && break
  sleep 0.01
done
kill -INT "$CAMP_PID" 2> /dev/null || true
wait "$CAMP_PID" && CAMP_STATUS=0 || CAMP_STATUS=$?
if [ "$CAMP_STATUS" -ne 130 ]; then
  echo "tier1: sp_pipeline SIGINT exited $CAMP_STATUS (want 130)" >&2
  cat "$SMOKE_DIR/camp.out" >&2
  exit 1
fi
./build/examples/sp_pipeline resume "$SMOKE_DIR/camp" --threads 2 | tee "$SMOKE_DIR/resume.out"
grep -qE '^OK: [1-9][0-9]* done,' "$SMOKE_DIR/resume.out" \
  || { echo "tier1: the resume re-ran no stage, so no stop was checked" >&2; exit 1; }

# Stage 6: sp_pipeline's `.zone` input end to end, the one product path
# into the zone parser and CNAME resolution: the demo's snapshot rendered
# as a zone file must yield the demo's sibling list byte for byte.
scripts/zone_vs_csv.sh

# Stage 7: the project linter, zero unsuppressed findings
# (scripts/lint_gate.sh, which CI's lint job runs too).
cmake --build build -j "$JOBS" --target sp_lint_cli
scripts/lint_gate.sh
