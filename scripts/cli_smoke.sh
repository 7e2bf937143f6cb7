#!/usr/bin/env bash
# End-to-end smoke of the command-line front-ends, in a temp dir:
#   1. `sp_pipeline run <dir> --months 2 --orgs 200` publishes two months;
#   2. one stdin session on `sp_serve siblings-<d0>.sibdb`: a v4 hit, a v6
#      hit, a prefix hit, a miss and a malformed line; `RELOAD
#      delta-<d1>.spdl`; the same keys again; a bare `RELOAD`; `STATS`.
#      The HIT/MISS/ERR/RELOADED lines and their gen= numbers are checked,
#      and the post-delta answers must equal those of a session on
#      siblings-<d1>.sibdb, apart from gen=. The prefix key is one the
#      delta removes, so its answer must change;
#   3. sp_serve --listen rejects a port that is not 0-65535 digits and a
#      non-numeric --workers with the usage error (exit 2), and `:0`
#      still binds an ephemeral port;
#   4. sp_pipeline run/resume reject an unknown flag and a flag with no
#      value (exit 2, naming the flag).
#
#   scripts/cli_smoke.sh [<sp_pipeline> <sp_serve>]
#
# The binaries default to the tier-1 tree, build/examples/; ctest passes
# its own (tests/CMakeLists.txt).
set -euo pipefail
BUILD="$(cd "$(dirname "$0")/.." && pwd)/build"
PIPELINE="$(realpath "${1:-$BUILD/examples/sp_pipeline}")"
SERVE="$(realpath "${2:-$BUILD/examples/sp_serve}")"
WORK="$(mktemp -d)"
SERVE_PID=""
trap '[ -z "$SERVE_PID" ] || kill "$SERVE_PID" 2> /dev/null; rm -rf "$WORK"' EXIT
cd "$WORK"

fail() {
  echo "cli-smoke: $*" >&2
  exit 1
}
trap 'fail "line $LINENO exited $?"' ERR

# expect_usage_error <flag-or-text> <command...>: exit 2, <text> on stderr.
expect_usage_error() {
  local text="$1"
  shift
  local status=0
  timeout 10 "$@" > usage.out 2> usage.err || status=$?
  [ "$status" -eq 2 ] || fail "'$*' exited $status (want 2)"
  grep -qF -- "$text" usage.err || fail "'$*' did not name $text: $(cat usage.err)"
}

# 1. Two published months.
"$PIPELINE" run camp --months 2 --orgs 200 > camp.out
mapfile -t LISTS < <(ls camp/siblings-*.csv)
[ "${#LISTS[@]}" -eq 2 ] || fail "the campaign published ${#LISTS[@]} lists (want 2)"
D0="$(basename "${LISTS[0]}" .csv)"
D0="${D0#siblings-}"
D1="$(basename "${LISTS[1]}" .csv)"
D1="${D1#siblings-}"

# 2. Keys from month 0's list: the network addresses of its first pair,
# and a v4 prefix that month 1 no longer lists.
FIRST="$(sed -n 2p "camp/siblings-$D0.csv")"
V4_KEY="$(echo "$FIRST" | cut -d, -f1 | cut -d/ -f1)"
V6_KEY="$(echo "$FIRST" | cut -d, -f2 | cut -d/ -f1)"
PREFIX_KEY="$(comm -23 <(tail -n +2 "camp/siblings-$D0.csv" | cut -d, -f1 | sort -u) \
                       <(tail -n +2 "camp/siblings-$D1.csv" | cut -d, -f1 | sort -u) | sed -n 1p)"
[ -n "$PREFIX_KEY" ] || fail "month 1 kept every v4 prefix of month 0"
KEYS="$(printf '%s\n' "$V4_KEY" "$V6_KEY" "$PREFIX_KEY" 192.0.2.1 not-an-address)"

printf '%s\nRELOAD %s\n%s\nRELOAD\nSTATS\n' "$KEYS" "$WORK/camp/delta-$D1.spdl" "$KEYS" \
  | "$SERVE" "camp/siblings-$D0.sibdb" > session.out 2> session.err
echo "$KEYS" | "$SERVE" "camp/siblings-$D1.sibdb" > month1.out 2> month1.err

line() { sed -n "${1}p" session.out; }
for n in 1 2 3; do
  case "$(line $n)" in
    "HIT $(echo "$KEYS" | sed -n "${n}p") "*" gen=1") ;;
    *) fail "line $n is not a gen=1 HIT: $(line $n)" ;;
  esac
done
[ "$(line 4)" = "MISS 192.0.2.1" ] || fail "line 4 is not a MISS: $(line 4)"
[ "$(line 5)" = "ERR bad address: not-an-address" ] || fail "line 5 is not an ERR: $(line 5)"
[ "$(line 6)" = "RELOADED $WORK/camp/delta-$D1.spdl gen=2" ] \
  || fail "the delta RELOAD answered: $(line 6)"
for n in 7 8 9 10 11; do
  case "$(line $n)" in
    HIT*" gen=2" | MISS* | ERR*) ;;
    *) fail "line $n is not a gen=2 answer: $(line $n)" ;;
  esac
done
strip_gen() { sed 's/ gen=[0-9]*$//'; }
diff <(sed -n 7,11p session.out | strip_gen) <(sed -n 1,5p month1.out | strip_gen) \
  || fail "the post-delta answers differ from a session on siblings-$D1.sibdb"
[ "$(line 3 | strip_gen)" != "$(line 9 | strip_gen)" ] \
  || fail "the answer for $PREFIX_KEY did not change across the delta"
cmp "camp/delta-$D1.sibdb" "camp/siblings-$D1.sibdb" \
  || fail "the patched delta-$D1.sibdb differs from siblings-$D1.sibdb"
[ "$(line 12)" = "RELOADED $WORK/camp/delta-$D1.sibdb gen=3" ] \
  || fail "the bare RELOAD answered: $(line 12)"
case "$(line 13)" in
  "STATS gen=3 queries=8 hits="*) ;;
  *) fail "STATS does not report gen=3 and 8 queries: $(line 13)" ;;
esac
grep -q '^STATS gen=1 served=4 ' session.out || fail "STATS lacks gen=1 served=4"
grep -q '^STATS gen=2 served=4 ' session.out || fail "STATS lacks gen=2 served=4"

# 3. sp_serve --listen arguments.
DB="camp/siblings-$D0.sibdb"
expect_usage_error "usage:" "$SERVE" --listen 127.0.0.1:abc "$DB"
expect_usage_error "usage:" "$SERVE" --listen 127.0.0.1:70000 "$DB"
expect_usage_error "usage:" "$SERVE" --listen 127.0.0.1: "$DB"
expect_usage_error "usage:" "$SERVE" --listen 127.0.0.1:-1 "$DB"
expect_usage_error "usage:" "$SERVE" --listen 127.0.0.1:0 "$DB" --workers abc
expect_usage_error "usage:" "$SERVE" --listen 127.0.0.1:0 "$DB" --workers
"$SERVE" --listen 127.0.0.1:0 "$DB" --workers 1 > listen.out 2> listen.err &
SERVE_PID=$!
for _ in $(seq 100); do
  grep -q '^LISTENING ' listen.out && break
  sleep 0.1
done
grep -qE '^LISTENING 127\.0\.0\.1:[1-9][0-9]*$' listen.out \
  || fail "--listen 127.0.0.1:0 bound no ephemeral port: $(cat listen.out listen.err)"
kill -INT "$SERVE_PID"
wait "$SERVE_PID" && SERVE_STATUS=0 || SERVE_STATUS=$?
SERVE_PID=""
[ "$SERVE_STATUS" -eq 0 ] || fail "sp_serve exited $SERVE_STATUS on SIGINT (want 0)"

# 4. sp_pipeline flags. None of these may run a stage.
cp camp/manifest.json manifest.before
expect_usage_error "--thread" "$PIPELINE" resume camp --thread 4
expect_usage_error "--threads" "$PIPELINE" resume camp --threads
expect_usage_error "--months" "$PIPELINE" run fresh --months
expect_usage_error "--bogus" "$PIPELINE" run fresh --bogus 1
cmp -s manifest.before camp/manifest.json || fail "a rejected resume touched the manifest"
[ ! -e fresh ] || fail "a rejected run created its run directory"

echo "cli-smoke: ok (months $D0, $D1)"
