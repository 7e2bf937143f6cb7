#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then a ThreadSanitizer
# pass over the threaded engines (parallel detection, SP-Tuner, sketch
# detection, obs metrics/tracing), an ASan/UBSan pass over the
# parser-heavy I/O (CSV fuzz round-trip, Happy Eyeballs, manifest
# UTF-8) and the flat corpus build, a loopback end-to-end smoke of the sp_serve TCP front-end, a
# sketch-vs-exact identity smoke on a scaled universe, an
# incremental-vs-scratch stream identity smoke, a chaos soak smoke
# (seeded fault injection against the serve path — plain with RSS/p99
# bounds, under ASan, and in external mode against a real sp_serve —
# plus a SIGINT-and-resume smoke on sp_pipeline), and the project
# linter (sp_lint) over the whole tree.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

# Stage 1: the canonical tier-1 build and test run (see ROADMAP.md).
cmake -B build -S .
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

# Stage 2: race the threaded code paths under ThreadSanitizer. Only the
# thread-bearing test binaries are built — the figure benches and examples
# don't need instrumentation. The serve suite covers the RCU hot-reload
# race and the pooled batch lookups; the pipeline suite covers the DAG
# scheduler's drain loop on the fork-join worker pool (layered-graph
# stress, N stages at once on N workers) and a real two-worker campaign
# (PipelineResume.SerialAndDag, byte-identical to the serial schedule);
# the obs suites race sharded metric increments and trace spans against
# concurrent scrapes/serialization.
# The net suites race the epoll workers: pipelined QUERY traffic over
# several connections against RELOAD hot-swaps, slow-reader
# backpressure, and the acceptor's inbox handoff. The sketch suites
# race the shard-parallel signature build and the sketch detection
# workers against each other (every test asserts byte-identity with
# the exact engine, so a race would also surface as a wrong answer).
# The stream suites race the delta re-scan workers (byte-identity with
# the exact engine across thread counts) and delta hot-reloads against
# concurrent sp_serve queries. The chaos soak suite races the entire
# serving stack at once — probe threads, fault injection, RELOAD churn —
# and the signal suite races the graceful-stop flag against the DAG
# scheduler's in-flight stages.
cmake -B build-tsan -S . -DSP_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" --target core_detect_parallel_test \
  core_sptuner_parallel_test serve_lookup_test serve_service_test \
  core_worker_pool_test pipeline_stage_graph_test pipeline_resume_test \
  obs_metrics_test obs_trace_test net_server_test net_protocol_test \
  sketch_detect_test sketch_signature_test \
  stream_detector_test stream_spdl_test stream_serve_delta_test \
  chaos_scenario_test chaos_soak_test pipeline_signal_test
(cd build-tsan && ctest --output-on-failure -j "$JOBS" \
  -R 'DetectParallel|Parallel|Serve|PipelineStageGraph|PipelineResume\.SerialAndDag|PipelineSignal|WorkerPool|Obs|NetServer|NetProtocol|Sketch|Signature|Lsh|SynthScale|Stream|Chaos')

# Stage 3: memory-safety pass over the byte-level parsers and the flat
# corpus under AddressSanitizer + UBSan. The CSV suite includes a seeded
# fuzz-style round-trip property test (adversarial quote/CR/LF/comma
# fields), so this stage doubles as a bounded fuzz run on both CSV
# parsers. The corpus, reference-corpus, SetCorpus and SP-Tuner suites
# drive the sorted-edge build's uint32 offset arithmetic over its CSRs
# and SP-Tuner's spans into them.
cmake -B build-asan -S . -DSP_SANITIZE=address,undefined
cmake --build build-asan -j "$JOBS" --target io_csv_test \
  he_happy_eyeballs_test pipeline_manifest_test \
  core_corpus_detect_test core_corpus_reference_test core_setcorpus_test core_sptuner_test
(cd build-asan && ctest --output-on-failure -j "$JOBS" \
  -R 'Csv|HappyEyeballs|PipelineManifest|DualStackCorpus|DetectSiblings|SetCorpus|SpTuner|CorpusReference')

# Stage 4: loopback end-to-end smoke of the TCP front-end — the real
# binaries, a real socket. Convert a tiny fixture, start sp_serve
# --listen on an ephemeral port (the LISTENING line is the contract),
# drive it with sp_loadgen for 5 s, and scrape /metrics over plain HTTP.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cat > "$SMOKE_DIR/pairs.csv" <<'CSV'
v4_prefix,v6_prefix,similarity,shared_domains,v4_domains,v6_domains
20.0.0.0/8,2620::/16,0.9,3,4,5
CSV
./build/examples/sp_serve --convert "$SMOKE_DIR/pairs.csv" "$SMOKE_DIR/pairs.sibdb"
./build/examples/sp_serve --listen 127.0.0.1:0 "$SMOKE_DIR/pairs.sibdb" --workers 2 \
  > "$SMOKE_DIR/serve.out" 2> "$SMOKE_DIR/serve.err" &
SERVE_PID=$!
for _ in $(seq 100); do
  grep -q '^LISTENING ' "$SMOKE_DIR/serve.out" && break
  sleep 0.1
done
PORT="$(sed -n 's/^LISTENING .*:\([0-9]*\)$/\1/p' "$SMOKE_DIR/serve.out")"
[ -n "$PORT" ] || { echo "tier1: sp_serve --listen never bound" >&2; exit 1; }
./build/tools/sp_loadgen --host 127.0.0.1 --port "$PORT" \
  --connections 2 --pipeline 4 --batch 64 --duration 5000 --v4-space 16.0.0.0/4 --json \
  | tee "$SMOKE_DIR/loadgen.json"
python3 - "$SMOKE_DIR/loadgen.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["ok"], report.get("error")
assert report["keys_answered"] > 0 and report["hits"] > 0, report
print(f"net smoke: {report['qps']:.0f} keys/s, {report['hits']} hits")
EOF
if command -v curl > /dev/null; then
  curl -sf "http://127.0.0.1:$PORT/metrics" | grep -q '"net.queries"' \
    || { echo "tier1: /metrics scrape failed" >&2; exit 1; }
fi
kill -INT "$SERVE_PID" && wait "$SERVE_PID"

# SIGPIPE regression: a supervisor tailing our stdout can exit first
# (`| head -1` reads the LISTENING line and quits), so the STOPPED line
# written at shutdown hits a dead pipe. Without the SIG_IGN(SIGPIPE) in
# sp_serve's main() the write kills the process (exit 141 / SIGPIPE);
# with it the write fails harmlessly and shutdown completes with 0.
./build/examples/sp_serve --listen 127.0.0.1:0 "$SMOKE_DIR/pairs.sibdb" --workers 1 \
  > >(head -1 > "$SMOKE_DIR/sigpipe.out") 2> /dev/null &
SIGPIPE_PID=$!
for _ in $(seq 100); do
  grep -q '^LISTENING ' "$SMOKE_DIR/sigpipe.out" 2> /dev/null && break
  sleep 0.1
done
sleep 0.3  # let the head reader exit so the stdout pipe is truly dead
kill -INT "$SIGPIPE_PID"
wait "$SIGPIPE_PID" && SIGPIPE_STATUS=0 || SIGPIPE_STATUS=$?
if [ "$SIGPIPE_STATUS" -ne 0 ]; then
  echo "tier1: sp_serve died writing to a dead stdout pipe (status $SIGPIPE_STATUS)" >&2
  exit 1
fi

# Stage 5: sketch-at-scale smoke — both detection engines on a scaled
# universe (replicated hypergiant edge clusters, the regime the sketch
# filter exists for); sp_sketch_scale exits non-zero on any byte
# difference between the sketch and exact outputs. Small org/month
# counts keep the universe build to a few seconds; the checked-in
# BENCH_sketch.json carries the full scale-10 numbers.
./build/examples/sp_sketch_scale --scale 2 --orgs 8 --months 3 --threads 2

# Stage 6: incremental-vs-scratch smoke — the stream engine chained
# across three synthetic months, memcmp-compared against a from-scratch
# exact run after every month (sp_stream_smoke exits non-zero on the
# first byte difference; see DESIGN.md §3.8 for the dirty-set argument).
./build/examples/sp_stream_smoke --months 3 --threads 2

# Stage 7: chaos soak smoke — sp_soak runs a seeded fault schedule
# (query bursts, slow and mid-frame-disconnecting readers, connection
# floods, RELOAD churn with valid, delta and corrupt images) against the
# serve path and audits every invariant: liveness, corrupt-swap
# rejection, per-generation query conservation, a byte-correct final
# sweep against a fresh oracle. Three flavors:
#
# (a) plain build with hard resource bounds. The RSS ceiling is the
#     regression net for snapshot retention: a snapshot must be freed
#     once nothing pins it, with only its generation's tally kept. The
#     fixtures' snapshots are small and this run peaks at ~6 MB, so
#     64 MB trips when snapshots pile up under reload churn or a
#     snapshot starts to cost tens of MB regardless of its pair count.
./build/tools/sp_soak --dir "$SMOKE_DIR/soak" --seconds 12 --seed 7 \
  --max-rss-kb 65536 --max-p99-us 50000
#
# (b) the same driver under ASan/UBSan: memory-safety over the whole
#     serving stack while faults fly (no RSS/p99 bounds — ASan inflates
#     both).
cmake --build build-asan -j "$JOBS" --target sp_soak
./build-asan/tools/sp_soak --dir "$SMOKE_DIR/soak-asan" --seconds 12 --seed 8
#
# (c) external mode against a real sp_serve --listen process — the
#     actual shipped binary, its signal handling and stdout contract
#     included. In-process-only audits (conservation, RSS) don't apply;
#     liveness, rejection and the final sweep do.
./build/examples/sp_serve --listen 127.0.0.1:0 "$SMOKE_DIR/pairs.sibdb" --workers 2 \
  > "$SMOKE_DIR/soak-serve.out" 2> "$SMOKE_DIR/soak-serve.err" &
SOAK_SERVE_PID=$!
for _ in $(seq 100); do
  grep -q '^LISTENING ' "$SMOKE_DIR/soak-serve.out" && break
  sleep 0.1
done
SOAK_PORT="$(sed -n 's/^LISTENING .*:\([0-9]*\)$/\1/p' "$SMOKE_DIR/soak-serve.out")"
[ -n "$SOAK_PORT" ] || { echo "tier1: soak sp_serve never bound" >&2; exit 1; }
./build/tools/sp_soak --dir "$SMOKE_DIR/soak-ext" --seconds 10 --seed 9 \
  --connect "127.0.0.1:$SOAK_PORT"
kill -INT "$SOAK_SERVE_PID" && wait "$SOAK_SERVE_PID"

# Signal-and-resume smoke: a real SIGINT to a real sp_pipeline process
# mid-campaign. Graceful stop exits 130 (or 0 if the campaign won the
# race and finished); resume must then converge to a complete manifest.
# The library-level byte-identity proof lives in pipeline_signal_test;
# this checks the process-level signal plumbing.
./build/examples/sp_pipeline run "$SMOKE_DIR/camp" --months 12 --orgs 1500 --threads 2 \
  > "$SMOKE_DIR/camp.out" 2>&1 &
CAMP_PID=$!
sleep 1
kill -INT "$CAMP_PID" 2> /dev/null || true
wait "$CAMP_PID" && CAMP_STATUS=0 || CAMP_STATUS=$?
if [ "$CAMP_STATUS" -ne 130 ] && [ "$CAMP_STATUS" -ne 0 ]; then
  echo "tier1: sp_pipeline SIGINT exited $CAMP_STATUS (want 130 or 0)" >&2
  cat "$SMOKE_DIR/camp.out" >&2
  exit 1
fi
./build/examples/sp_pipeline resume "$SMOKE_DIR/camp" --threads 2

# Stage 8: the project linter — the per-file rule catalog plus the
# cross-file semantic passes (DESIGN.md §3.10): lock-rank against the
# §3.5 table, the layering DAG against src/lint/layers.def, the
# snapshot-escape rule, and the stale-suppression audit (both auto-
# detected from the repo root). Every finding in the tree must either
# be fixed or carry an explicit sp-lint suppression with a reason; zero
# unsuppressed findings is the bar.
cmake --build build -j "$JOBS" --target sp_lint_cli
./build/tools/sp_lint --json > build/sp_lint_report.json
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
