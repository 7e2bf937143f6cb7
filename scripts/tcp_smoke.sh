#!/usr/bin/env bash
# End-to-end smoke of the sp_serve TCP front-end: the shipped binaries,
# a real socket. In a temp dir:
#   1. convert a one-row sibling list to .sibdb;
#   2. start `sp_serve --listen 127.0.0.1:0` and read the bound port off
#      its LISTENING line (the stdout contract);
#   3. run sp_soak's external mode against it: seeded query bursts,
#      misbehaving clients and RELOAD churn (valid, delta and corrupt
#      images), with each probe answer compared with the oracle of the
#      generation that gave it, then a final sweep that compares every
#      fixture key's answer with an oracle. The report must be ok, the
#      probes must have checked answers, and the sweep must compare keys
#      and find no mismatch;
#   4. scrape /metrics over plain HTTP; it must carry net.queries;
#   5. SIGINT: the server must print its STOPPED line and exit 0;
#   6. the dead-stdout-pipe check (below).
# Runs the binaries of the tier-1 tree, build/ (sp_serve and sp_soak).
set -euo pipefail
BUILD="$(cd "$(dirname "$0")/../build" && pwd)"
WORK="$(mktemp -d)"
SERVE_PID=""
trap '[ -z "$SERVE_PID" ] || kill "$SERVE_PID" 2> /dev/null; rm -rf "$WORK"' EXIT
cd "$WORK"

fail() {
  echo "tcp-smoke: $*" >&2
  exit 1
}

cat > pairs.csv <<'CSV'
v4_prefix,v6_prefix,similarity,shared_domains,v4_domains,v6_domains
20.0.0.0/8,2620::/16,0.9,3,4,5
CSV
"$BUILD/examples/sp_serve" --convert pairs.csv pairs.sibdb

"$BUILD/examples/sp_serve" --listen 127.0.0.1:0 pairs.sibdb --workers 2 \
  > serve.out 2> serve.err &
SERVE_PID=$!
for _ in $(seq 100); do
  grep -q '^LISTENING ' serve.out && break
  sleep 0.1
done
PORT="$(sed -n 's/^LISTENING .*:\([0-9]*\)$/\1/p' serve.out)"
[ -n "$PORT" ] || fail "sp_serve --listen never bound"

# sp_soak exits 1 on any violation; the report says which.
SOAK_STATUS=0
"$BUILD/tools/sp_soak" --dir "$WORK/soak" --seconds 10 --seed 9 \
  --connect "127.0.0.1:$PORT" --json > soak.json || SOAK_STATUS=$?
python3 - soak.json "$SOAK_STATUS" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
problems = list(report["violations"])
if not report["ok"] or sys.argv[2] != "0":
    problems.append(f"soak report not ok (exit {sys.argv[2]})")
if report["probe_keys_checked"] == 0:
    problems.append("the probes checked no answer")
if report["sweep_keys"] == 0:
    problems.append("the final sweep compared no keys")
if report["sweep_mismatches"] != 0:
    problems.append(f"the final sweep found {report['sweep_mismatches']} mismatches")
if problems:
    sys.exit("tcp-smoke: " + "; ".join(problems))
print(f"tcp-smoke: soak ok, {report['events']} events, {report['client_queries']} "
      f"keys, {report['corrupt_reloads']} corrupt RELOADs rejected, "
      f"{report['probe_keys_checked']} probe answers checked, final sweep "
      f"{report['sweep_keys']} keys / 0 mismatches")
EOF

curl -sf "http://127.0.0.1:$PORT/metrics" > metrics.json \
  || fail "/metrics scrape failed"
grep -q '"net.queries"' metrics.json || fail "/metrics lacks net.queries"

kill -INT "$SERVE_PID"
wait "$SERVE_PID" && SERVE_STATUS=0 || SERVE_STATUS=$?
SERVE_PID=""
[ "$SERVE_STATUS" -eq 0 ] || fail "sp_serve exited $SERVE_STATUS on SIGINT (want 0)"
grep -q '^STOPPED ' serve.out || fail "sp_serve printed no STOPPED line on SIGINT"
cat serve.err

# SIGPIPE regression: a supervisor tailing our stdout can exit first
# (`| head -1` reads the LISTENING line and quits), so the STOPPED line
# written at shutdown hits a dead pipe. Without the SIG_IGN(SIGPIPE) in
# sp_serve's main() the write kills the process (exit 141 / SIGPIPE);
# with it the write fails harmlessly and shutdown completes with 0.
"$BUILD/examples/sp_serve" --listen 127.0.0.1:0 pairs.sibdb --workers 1 \
  > >(head -1 > sigpipe.out) 2> /dev/null &
SIGPIPE_PID=$!
for _ in $(seq 100); do
  grep -q '^LISTENING ' sigpipe.out 2> /dev/null && break
  sleep 0.1
done
sleep 0.3  # let the head reader exit so the stdout pipe is truly dead
kill -INT "$SIGPIPE_PID"
wait "$SIGPIPE_PID" && SIGPIPE_STATUS=0 || SIGPIPE_STATUS=$?
if [ "$SIGPIPE_STATUS" -ne 0 ]; then
  echo "tcp-smoke: sp_serve died writing to a dead stdout pipe (status $SIGPIPE_STATUS)" >&2
  exit 1
fi
echo "tcp-smoke: SIGINT gave STOPPED and exit 0, with a live and a dead stdout pipe"
