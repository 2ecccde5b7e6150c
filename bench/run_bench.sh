#!/usr/bin/env bash
# Runs the solver scaling benchmark and records the trajectory in
# BENCH_solver.json.
#
# Usage: bench/run_bench.sh [label] [rounds]
#
#   label   tag stored with this run (default: git describe / "dev")
#   rounds  independent repetitions per size (default: 5)
#
# Each round is a separate process invocation of
# bench_sec4_core_scaling; per size we keep the min and median of
# wall time across rounds. Min is the robust statistic on shared
# machines (interference only ever adds time), median is reported as
# a sanity check. Results are appended as a new entry under "runs" in
# BENCH_solver.json next to the repo root, so successive sessions
# build a before/after trajectory on the same file.
#
# The binary must already be built (cmake --build build -j).

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="${BENCH_BIN:-$REPO_ROOT/build/bench/bench_sec4_core_scaling}"
OUT="${BENCH_OUT:-$REPO_ROOT/BENCH_solver.json}"
LABEL="${1:-$(git -C "$REPO_ROOT" rev-parse --short HEAD 2>/dev/null || echo dev)}"
ROUNDS="${2:-5}"
MIN_TIME="${BENCH_MIN_TIME:-0.5}"
# Every section's entry is aggregated and appended by this one script.
ENTRY="$REPO_ROOT/bench/bench_entry.py"

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not built (run: cmake --build build -j)" >&2
  exit 1
fi

TMPDIR_BENCH="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_BENCH"' EXIT

for R in $(seq 1 "$ROUNDS"); do
  # Old google-benchmark: --benchmark_min_time takes a plain double.
  # The filter is anchored: a bare 'BM_SolveDag' also matches
  # BM_SolveDagAdversarial, whose runs the --by-size aggregation below
  # would file under BM_SolveDag's sizes.
  "$BIN" --benchmark_filter='^BM_SolveDag/' \
         --benchmark_min_time="$MIN_TIME" \
         --benchmark_format=json >"$TMPDIR_BENCH/round_$R.json"
  echo "round $R/$ROUNDS done" >&2
done

python3 "$ENTRY" "$OUT" "$LABEL" bench_sec4_core_scaling:BM_SolveDag gbench \
  $(seq -f "$TMPDIR_BENCH/round_%g.json" 1 "$ROUNDS") --by-size \
  --counter edges:int --counter edges_per_s:max0:max_edges_per_s

# --- Thread-scaling sweep (DESIGN.md §8) -------------------------------
# Runs bench_parallel_batch (the BM_BatchSolve pool sweep at widths
# 1/2/4/8) and appends a "parallel" entry. Every round is one process
# invocation covering all pool widths, so the configurations are
# interleaved A/B across rounds; per configuration we keep min and median (min-of-9 by
# default — the robust statistic on shared machines). Skipped when the
# parallel bench binary is not built.

PAR_BIN="${BENCH_PARALLEL_BIN:-$REPO_ROOT/build/bench/bench_parallel_batch}"
PAR_ROUNDS="${BENCH_PARALLEL_ROUNDS:-9}"

# The widest configuration the parallel sweep reaches (pool width 8). Speedup claims from a host with fewer hardware threads
# than that are meaningless — warn loudly and stamp the entry so a
# reader of BENCH_solver.json can tell honest flat numbers from a
# regression.
MAX_SWEPT_THREADS=8
HW_THREADS="$(nproc 2>/dev/null || echo 1)"
if [ "$HW_THREADS" -lt "$MAX_SWEPT_THREADS" ]; then
  echo "==========================================================" >&2
  echo "WARNING: this host has $HW_THREADS hardware thread(s) but the" >&2
  echo "parallel sweep goes up to pool width $MAX_SWEPT_THREADS. Thread-scaling" >&2
  echo "numbers recorded below measure overhead, NOT speedup." >&2
  echo "Re-record the 'parallel' entry on a machine with >=$MAX_SWEPT_THREADS" >&2
  echo "cores before quoting multi-core results (EXPERIMENTS.md)." >&2
  echo "==========================================================" >&2
fi

if [ -x "$PAR_BIN" ]; then
  for R in $(seq 1 "$PAR_ROUNDS"); do
    "$PAR_BIN" --benchmark_min_time="$MIN_TIME" \
               --benchmark_format=json >"$TMPDIR_BENCH/par_$R.json"
    echo "parallel sweep round $R/$PAR_ROUNDS done" >&2
  done

  python3 "$ENTRY" "$OUT" "$LABEL" parallel gbench \
    $(seq -f "$TMPDIR_BENCH/par_%g.json" 1 "$PAR_ROUNDS") \
    --counter edges:r3 --counter systems_per_s:r3 \
    --min-threads "$MAX_SWEPT_THREADS"
else
  echo "note: $PAR_BIN not built; skipping thread-scaling sweep" >&2
fi

# --- Observability overhead A/B (DESIGN.md §9) -------------------------
# Runs bench_trace_overhead (the Section 4 DAG closure with the
# observability layer off / tracing on / metrics on) and appends an
# "observability" entry. Every round is one process invocation covering
# all three configurations, so off and on are interleaved A/B across
# rounds (min-of-9 by default); the "overhead_pct" fields compare the
# on-configurations' min against the off min per size. Skipped when the
# overhead bench binary is not built.

OBS_BIN="${BENCH_OBS_BIN:-$REPO_ROOT/build/bench/bench_trace_overhead}"
OBS_ROUNDS="${BENCH_OBS_ROUNDS:-9}"

if [ -x "$OBS_BIN" ]; then
  for R in $(seq 1 "$OBS_ROUNDS"); do
    "$OBS_BIN" --benchmark_min_time="$MIN_TIME" \
               --benchmark_format=json >"$TMPDIR_BENCH/obs_$R.json"
    echo "observability round $R/$OBS_ROUNDS done" >&2
  done

  python3 "$ENTRY" "$OUT" "$LABEL" observability gbench \
    $(seq -f "$TMPDIR_BENCH/obs_%g.json" 1 "$OBS_ROUNDS") \
    --counter edges:int --overhead-base BM_SolveObservabilityOff
else
  echo "note: $OBS_BIN not built; skipping observability A/B" >&2
fi

# --- Proof-emission overhead A/B (DESIGN.md §12) -----------------------
# Runs bench_proof_overhead (the Section 4 DAG closure with proof
# logging off / streaming to a temp file) and appends a "proof" entry.
# Every round is one process invocation covering both configurations,
# so off and on are interleaved A/B across rounds (min-of-9 by
# default); "overhead_pct" compares the on-configuration's min against
# the off min per size. Skipped when the proof bench is not built.

PROOF_BIN="${BENCH_PROOF_BIN:-$REPO_ROOT/build/bench/bench_proof_overhead}"
PROOF_ROUNDS="${BENCH_PROOF_ROUNDS:-9}"

if [ -x "$PROOF_BIN" ]; then
  for R in $(seq 1 "$PROOF_ROUNDS"); do
    "$PROOF_BIN" --benchmark_min_time="$MIN_TIME" \
                 --benchmark_format=json >"$TMPDIR_BENCH/proof_$R.json"
    echo "proof round $R/$PROOF_ROUNDS done" >&2
  done

  python3 "$ENTRY" "$OUT" "$LABEL" proof gbench \
    $(seq -f "$TMPDIR_BENCH/proof_%g.json" 1 "$PROOF_ROUNDS") \
    --counter edges:int --counter proof_bytes:int \
    --overhead-base BM_SolveProofOff
else
  echo "note: $PROOF_BIN not built; skipping proof-emission A/B" >&2
fi

# --- eBPF front-end pipeline (DESIGN.md §13) ---------------------------
# Runs bench_ebpf: raw bytecode -> decode/CFG, the three lowerings,
# and the per-application full pipeline (bytes to answered query).
# Every round is one process invocation covering all stages,
# interleaved A/B across rounds (min-of-9 by default). The pooled
# batch shape is perfbench's ebpf-batch. Appends an "ebpf" entry keyed by
# benchmark name with min/median ms and the throughput counters, plus
# BM_EbpfPipelineFlow's heap allocations per program (allocs_per_program).
# Skipped when the ebpf bench is not built.

EBPF_BIN="${BENCH_EBPF_BIN:-$REPO_ROOT/build/bench/bench_ebpf}"
EBPF_ROUNDS="${BENCH_EBPF_ROUNDS:-9}"
EBPF_MIN_TIME="${BENCH_EBPF_MIN_TIME:-0.05}"

if [ -x "$EBPF_BIN" ]; then
  for R in $(seq 1 "$EBPF_ROUNDS"); do
    "$EBPF_BIN" --benchmark_min_time="$EBPF_MIN_TIME" \
                --benchmark_format=json >"$TMPDIR_BENCH/ebpf_$R.json"
    echo "ebpf round $R/$EBPF_ROUNDS done" >&2
  done

  # Rates vary by round and keep the best; allocs_per_program is a
  # count that repeats exactly and is kept from the last round.
  python3 "$ENTRY" "$OUT" "$LABEL" ebpf gbench \
    $(seq -f "$TMPDIR_BENCH/ebpf_%g.json" 1 "$EBPF_ROUNDS") \
    --counter programs_per_s:max1 --counter insns_per_s:max1 \
    --counter violations:max1 --counter uninit_reads:max1 \
    --counter ctx_flows:max1 --counter systems:max1 \
    --counter allocs_per_program:r3
else
  echo "note: $EBPF_BIN not built; skipping ebpf pipeline" >&2
fi

# --- Section 7 flow table (DESIGN.md §3) ------------------------------
# Runs bench_sec7_flow once (a table, not a google-benchmark binary) and
# appends a "sec7_flow" entry with its rows: the pair and call automata
# sizes (|S|/|F|) and the primal/dual seconds per program. Skipped when
# the binary is not built.

SEC7_BIN="${BENCH_SEC7_BIN:-$REPO_ROOT/build/bench/bench_sec7_flow}"

if [ -x "$SEC7_BIN" ]; then
  "$SEC7_BIN" >"$TMPDIR_BENCH/sec7.txt"

  python3 "$ENTRY" "$OUT" "$LABEL" sec7_flow table "$TMPDIR_BENCH/sec7.txt"
else
  echo "note: $SEC7_BIN not built; skipping the Section 7 table" >&2
fi

# --- Solve-service latency (DESIGN.md §10) -----------------------------
# Boots rascd on an ephemeral port, drives it with the rascdclient
# load harness (N concurrent connections, an ADD/SOLVE/ENTAIL mix
# against private systems, Busy backoff honored), and appends a
# "service" entry with client-observed p50/p99 per-op latency. The
# server-side log2 histograms for the same run are captured via STATS
# and stored alongside. Skipped when the service binaries are not
# built.

RASCD_BIN="${BENCH_RASCD_BIN:-$REPO_ROOT/build/examples/rascd}"
RASCD_CLIENT="${BENCH_RASCD_CLIENT:-$REPO_ROOT/build/examples/rascdclient}"
SVC_CONNECTIONS="${BENCH_SERVICE_CONNECTIONS:-4}"
SVC_OPS="${BENCH_SERVICE_OPS:-60}"

if [ -x "$RASCD_BIN" ] && [ -x "$RASCD_CLIENT" ]; then
  SVC_DIR="$TMPDIR_BENCH/service"
  mkdir -p "$SVC_DIR"
  "$RASCD_BIN" --data "$SVC_DIR/data" --port 0 \
               --port-file "$SVC_DIR/port" 2>"$SVC_DIR/rascd.log" &
  RASCD_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$SVC_DIR/port" ] && break
    sleep 0.1
  done
  if [ -s "$SVC_DIR/port" ]; then
    "$RASCD_CLIENT" --port-file "$SVC_DIR/port" bench \
        --connections "$SVC_CONNECTIONS" --ops "$SVC_OPS" --json \
        --stats-out "$SVC_DIR/stats.json" >"$SVC_DIR/bench.json" \
      || echo "warning: service bench failed" >&2
    "$RASCD_CLIENT" --port-file "$SVC_DIR/port" drain >/dev/null 2>&1 || true
    wait "$RASCD_PID" 2>/dev/null || true

    python3 "$ENTRY" "$OUT" "$LABEL" service service "$SVC_DIR"
  else
    echo "warning: rascd never came up; skipping service entry" >&2
    kill -9 "$RASCD_PID" 2>/dev/null || true
  fi
else
  echo "note: service binaries not built; skipping service latency" >&2
fi
