#!/usr/bin/env bash
# Integration smoke for the rascd solve service (DESIGN.md §10).
#
# Usage: bench/service_smoke.sh
#
# Drills the full robustness cycle end to end against the real
# binaries (CI runs this with ASan+UBSan builds):
#
#   1. boot rascd on an ephemeral port, serve concurrent load
#   2. SIGTERM drain: exit 0, the .rasc text is the only state on disk
#   3. kill -9 under live load, restart, verify every *acknowledged*
#      LOAD/ADD survived (zero accepted-work loss)
#   4. rasctool --certify on the recovered .rasc: the independent
#      certifier accepts a solve of the text the daemon kept
#   5. RETRACT round-trip: withdraw a constraint online (the daemon
#      re-solves the edited system), kill -9, restart — the retraction
#      survives because
#      the durable text gained a "retract N;" statement before the Ok
#   6. rasctool SIGINT: cooperative cancel (exit 14, or 0 if the solve
#      won the race), and a rerun of the same command exits 0
#   7. proof logging across the trust boundary: SOLVE proof=1 streams
#      a derivation log the standalone rasccheck accepts, kill -9
#      under live load + a simulated torn tail is truncated on warm
#      boot, the re-solved log passes the checker again, and so does
#      the log a RETRACT on the proof-enabled system rewrites
#
# The binaries must already be built (cmake --build build -j).

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$REPO_ROOT/build}"
RASCD="$BUILD/examples/rascd"
CLIENT="$BUILD/examples/rascdclient"
RASCTOOL="$BUILD/examples/rasctool"
RASCCHECK="$BUILD/examples/rasccheck"

for B in "$RASCD" "$CLIENT" "$RASCTOOL" "$RASCCHECK"; do
  [ -x "$B" ] || { echo "error: $B not built" >&2; exit 1; }
done

WORK="$(mktemp -d)"
DATA="$WORK/data"
DAEMON_PID=""
# On exit the script must leave no process of its own behind: the
# daemon is killed here, and every other child must have been waited
# for. pgrep never lists itself, so any child it finds fails the run.
cleanup() {
  local RC=$?
  if [ -n "$DAEMON_PID" ]; then
    kill -9 "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
  if pgrep -P $$ >"$WORK/left"; then
    echo "FAIL: child process(es) still running at exit:" \
         "$(tr '\n' ' ' <"$WORK/left")" >&2
    xargs kill -9 <"$WORK/left" 2>/dev/null || true
    RC=1
  fi
  rm -rf "$WORK"
  exit "$RC"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }
pass() { echo "ok: $*"; }

start_daemon() {
  rm -f "$WORK/port"
  "$RASCD" --data "$DATA" --port 0 --port-file "$WORK/port" \
           --max-sessions 4 --session-deadline 30 \
           2>"$WORK/rascd.log" &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$WORK/port" ] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on boot: $(cat "$WORK/rascd.log")"
    sleep 0.1
  done
  fail "daemon never wrote its port file"
}

rpc() { "$CLIENT" --port-file "$WORK/port" "$@"; }

# --- 1. boot + concurrent load -----------------------------------------

start_daemon
rpc ping >/dev/null || fail "ping"
rpc load smoke "$REPO_ROOT/examples/privilege.rasc" >/dev/null || fail "load"
rpc solve smoke >/dev/null || fail "solve (status in stderr above)"
rpc bench --connections 4 --ops 12 --json >"$WORK/bench1.json" \
  || fail "concurrent bench"
grep -q '"errors": *0' "$WORK/bench1.json" \
  || fail "bench reported errors: $(cat "$WORK/bench1.json")"
pass "boot + concurrent load ($(grep -o '"ops_ok": *[0-9]*' "$WORK/bench1.json"))"

# --- 2. SIGTERM drain ---------------------------------------------------

kill -TERM "$DAEMON_PID"
RC=0; wait "$DAEMON_PID" || RC=$?
DAEMON_PID=""
[ "$RC" -eq 0 ] || fail "drain exit code $RC: $(cat "$WORK/rascd.log")"
[ -f "$DATA/smoke.rasc" ] || fail "no durable text after drain"
for F in "$DATA"/*; do
  case "$F" in *.rasc) ;; *) fail "drain left state besides the text: $F" ;; esac
done
pass "SIGTERM drain (exit 0, text only)"

# --- 3. kill -9 under live load, restart, verify acknowledged work ------

start_daemon
# An acknowledged system: the text hit disk before the Ok came back.
printf 'language regex "g*";\nconstant c;\nvar X0 X1;\nc <= X0;\nX0 <= X1;\nquery c in X1;\n' \
  >"$WORK/dur.rasc"
rpc load dur "$WORK/dur.rasc" >/dev/null || fail "load dur"
rpc solve dur >/dev/null || fail "solve dur"
# Live load when the axe falls. The client binary itself goes to the
# background, not the rpc function: "$!" of a backgrounded function is
# a subshell, and killing that would leave the client running.
"$CLIENT" --port-file "$WORK/port" bench --connections 4 --ops 200 \
  >/dev/null 2>&1 &
BENCH_PID=$!
sleep 0.5
{ kill -9 "$DAEMON_PID" && wait "$DAEMON_PID"; } 2>/dev/null || true
DAEMON_PID=""
kill "$BENCH_PID" 2>/dev/null || true
wait "$BENCH_PID" 2>/dev/null || true

start_daemon
grep -q "systems resident" "$WORK/rascd.log" || fail "no warm-boot banner"
OUT="$(rpc entail dur "c in X1")" || fail "entail after recovery"
grep -q "holds=true" <<<"$OUT" || fail "acknowledged work lost: $OUT"
pass "kill -9 + restart recovered acknowledged state"

# --- 4. independent certification of the recovered text -----------------

kill -TERM "$DAEMON_PID"; wait "$DAEMON_PID" || fail "second drain failed"
DAEMON_PID=""
[ -f "$DATA/dur.rasc" ] || fail "no recovered text to certify"
"$RASCTOOL" --certify "$DATA/dur.rasc" \
  >/dev/null || fail "certifier rejected a solve of the recovered text"
pass "rasctool --certify accepts a solve of the recovered text"

# --- 5. RETRACT round-trip surviving kill -9 ----------------------------

start_daemon
OUT="$(rpc entail dur "c in X1")" || fail "entail before retract"
grep -q "holds=true" <<<"$OUT" || fail "unexpected pre-retract state: $OUT"
# Withdraw "X0 <= X1" (constraint 1 of dur.rasc): the re-solve of the
# edited system reports its status, and the answer flips.
OUT="$(rpc retract dur 1)" || fail "retract"
grep -q "status=solved" <<<"$OUT" \
  || fail "retract did not re-solve the edited system: $OUT"
OUT="$(rpc entail dur "c in X1")" || fail "entail after retract"
grep -q "holds=false" <<<"$OUT" || fail "retract had no effect: $OUT"
OUT="$(rpc entail dur "c in X0")" || fail "entail X0 after retract"
grep -q "holds=true" <<<"$OUT" || fail "retract removed too much: $OUT"
# The axe again: the acknowledged retraction must ride the durable
# text ("retract 1;" was appended before the Ok) through a hard kill.
{ kill -9 "$DAEMON_PID" && wait "$DAEMON_PID"; } 2>/dev/null || true
DAEMON_PID=""
start_daemon
OUT="$(rpc entail dur "c in X1")" || fail "entail after retract+kill"
grep -q "holds=false" <<<"$OUT" || fail "acknowledged RETRACT lost: $OUT"
kill -TERM "$DAEMON_PID"; wait "$DAEMON_PID" || fail "post-retract drain failed"
DAEMON_PID=""
pass "RETRACT round-trip (re-solved, survived kill -9)"

# --- 6. rasctool SIGINT: cancel, then rerun ------------------------------

# A banded chain: ~6n constraints whose transitive closure has O(n^2)
# derived edges, so the solve runs long enough for the signal to land.
python3 - "$WORK/big.rasc" <<'EOF'
import sys
n = 700
with open(sys.argv[1], "w") as f:
    f.write('language regex "g*";\nconstant c;\n')
    f.write("var " + " ".join(f"V{i}" for i in range(n)) + ";\n")
    f.write("c <= V0;\n")
    for i in range(n):
        for d in range(1, 7):
            if i + d < n:
                f.write(f"V{i} <= [g] V{i+d};\n")
    f.write(f"query c in V{n-1};\n")
EOF
"$RASCTOOL" "$WORK/big.rasc" >/dev/null &
TOOL_PID=$!
sleep 0.05
kill -INT "$TOOL_PID" 2>/dev/null || true
RC=0; wait "$TOOL_PID" || RC=$?
# 14 = cancelled by the signal; 0 = the solve won the race. Both fine,
# and either way a rerun of the same command must finish.
{ [ "$RC" -eq 14 ] || [ "$RC" -eq 0 ]; } || fail "SIGINT exit code $RC"
"$RASCTOOL" "$WORK/big.rasc" >/dev/null || fail "rerun after SIGINT failed"
pass "rasctool SIGINT cancel (exit $RC) + clean rerun"

# --- 7. proof logging across the trust boundary -------------------------

start_daemon
OUT="$(rpc solve dur --proof)" || fail "solve --proof"
grep -q "proof=streaming" <<<"$OUT" || fail "proof not streaming: $OUT"
[ -f "$DATA/dur.rprf" ] || fail "no proof log on disk"
# The daemon fsyncs a sealed trailer after every proof-enabled solve,
# so the standalone checker can validate the log while rascd is live.
"$RASCCHECK" "$DATA/dur.rprf" >/dev/null \
  || fail "rasccheck rejected the live daemon's log"
# The axe under live load, then make the torn tail deterministic: a
# hard kill can leave a half-written frame, which we simulate so the
# truncation path is exercised on every run, not only on lucky races.
"$CLIENT" --port-file "$WORK/port" bench --connections 4 --ops 200 \
  >/dev/null 2>&1 &
BENCH_PID=$!
sleep 0.3
{ kill -9 "$DAEMON_PID" && wait "$DAEMON_PID"; } 2>/dev/null || true
DAEMON_PID=""
kill "$BENCH_PID" 2>/dev/null || true
wait "$BENCH_PID" 2>/dev/null || true
printf 'PRFC-half-a-frame' >>"$DATA/dur.rprf"
"$RASCCHECK" "$DATA/dur.rprf" >/dev/null 2>&1 \
  && fail "rasccheck accepted a torn log"

start_daemon
grep -q "truncated torn tail" "$WORK/rascd.log" \
  || fail "warm boot did not truncate the torn proof tail: $(cat "$WORK/rascd.log")"
"$RASCCHECK" "$DATA/dur.rprf" >/dev/null \
  || fail "truncated log no longer checks"
# Re-opt-in: the restarted daemon re-solves with a fresh log.
OUT="$(rpc solve dur --proof)" || fail "solve --proof after recovery"
grep -q "proof=streaming" <<<"$OUT" || fail "proof not rebuilt: $OUT"
"$RASCCHECK" "$DATA/dur.rprf" >/dev/null \
  || fail "rasccheck rejected the rebuilt log"
# RETRACT on the proof-enabled system: its re-solve rewrites the log,
# which proves exactly the durable text ending in "retract 0;".
OUT="$(rpc retract dur 0)" || fail "retract on the proved system"
grep -q "status=solved" <<<"$OUT" || fail "proved retract: $OUT"
OUT="$(rpc entail dur "c in X0")" || fail "entail after proved retract"
grep -q "holds=false" <<<"$OUT" || fail "proved retract had no effect: $OUT"
"$RASCCHECK" "$DATA/dur.rprf" >/dev/null \
  || fail "rasccheck rejected the post-retract log"
"$RASCCHECK" "$DATA/dur.rprf" --system "$DATA/dur.rasc" >/dev/null \
  || fail "post-retract log does not prove the durable text"
kill -TERM "$DAEMON_PID"; wait "$DAEMON_PID" || fail "final drain failed"
DAEMON_PID=""
pass "proof log: streamed, torn tail truncated, rebuilt, checker-clean across RETRACT"

echo "service smoke: all checks passed"
