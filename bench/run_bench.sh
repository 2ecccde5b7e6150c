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

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not built (run: cmake --build build -j)" >&2
  exit 1
fi

TMPDIR_BENCH="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_BENCH"' EXIT

for R in $(seq 1 "$ROUNDS"); do
  # Old google-benchmark: --benchmark_min_time takes a plain double.
  "$BIN" --benchmark_filter='BM_SolveDag' \
         --benchmark_min_time="$MIN_TIME" \
         --benchmark_format=json >"$TMPDIR_BENCH/round_$R.json"
  echo "round $R/$ROUNDS done" >&2
done

python3 - "$OUT" "$LABEL" "$TMPDIR_BENCH" "$ROUNDS" <<'EOF'
import json, os, statistics, sys

out_path, label, tmpdir, rounds = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])

per_size = {}  # size -> {"ms": [..], "edges": N, "edges_per_s": [..]}
for r in range(1, rounds + 1):
    with open(os.path.join(tmpdir, f"round_{r}.json")) as f:
        doc = json.load(f)
    for b in doc["benchmarks"]:
        size = int(b["name"].removesuffix("/real_time").rsplit("/", 1)[1])
        rec = per_size.setdefault(size, {"ms": [], "edges": 0, "edges_per_s": []})
        rec["ms"].append(b["real_time"] / 1e6)  # ns -> ms
        rec["edges"] = int(b.get("edges", 0))
        rec["edges_per_s"].append(b.get("edges_per_s", 0.0))

entry = {
    "label": label,
    "benchmark": "bench_sec4_core_scaling:BM_SolveDag",
    "rounds": rounds,
    "hardware_threads": os.cpu_count(),
    "sizes": {
        str(size): {
            "min_ms": round(min(rec["ms"]), 3),
            "median_ms": round(statistics.median(rec["ms"]), 3),
            "edges": rec["edges"],
            "max_edges_per_s": round(max(rec["edges_per_s"])),
        }
        for size, rec in sorted(per_size.items())
    },
}

doc = {"runs": []}
if os.path.exists(out_path):
    with open(out_path) as f:
        doc = json.load(f)
doc.setdefault("runs", []).append(entry)
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"appended run '{label}' to {out_path}")
for size, rec in sorted(per_size.items()):
    print(f"  /{size}: min {min(rec['ms']):.2f} ms, "
          f"median {statistics.median(rec['ms']):.2f} ms, "
          f"{rec['edges']} edges")
EOF

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

  python3 - "$OUT" "$LABEL" "$TMPDIR_BENCH" "$PAR_ROUNDS" <<'EOF'
import json, os, statistics, sys

out_path, label, tmpdir, rounds = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])

per_cfg = {}  # benchmark name -> {"ms": [...], "counters": {...}}
for r in range(1, rounds + 1):
    with open(os.path.join(tmpdir, f"par_{r}.json")) as f:
        doc = json.load(f)
    for b in doc["benchmarks"]:
        rec = per_cfg.setdefault(b["name"].removesuffix("/real_time"), {"ms": [], "counters": {}})
        rec["ms"].append(b["real_time"] / 1e6)  # ns -> ms
        for k in ("edges", "systems_per_s"):
            if k in b:
                rec["counters"][k] = round(float(b[k]), 3)

MAX_SWEPT_THREADS = 8
entry = {
    "label": label,
    "benchmark": "parallel",
    "rounds": rounds,
    "hardware_threads": os.cpu_count(),
    "configs": {
        name: {
            "min_ms": round(min(rec["ms"]), 3),
            "median_ms": round(statistics.median(rec["ms"]), 3),
            **rec["counters"],
        }
        for name, rec in sorted(per_cfg.items())
    },
}
if (os.cpu_count() or 1) < MAX_SWEPT_THREADS:
    entry["note"] = (
        f"host has {os.cpu_count()} hardware thread(s) < max swept "
        f"pool width {MAX_SWEPT_THREADS}; these numbers measure parallel-mode "
        "overhead, not speedup -- re-record on multi-core hardware")

doc = {"runs": []}
if os.path.exists(out_path):
    with open(out_path) as f:
        doc = json.load(f)
doc.setdefault("runs", []).append(entry)
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"appended 'parallel' entry for '{label}' to {out_path}")
for name, rec in sorted(per_cfg.items()):
    print(f"  {name}: min {min(rec['ms']):.2f} ms, "
          f"median {statistics.median(rec['ms']):.2f} ms")
EOF
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

  python3 - "$OUT" "$LABEL" "$TMPDIR_BENCH" "$OBS_ROUNDS" <<'EOF'
import json, os, statistics, sys

out_path, label, tmpdir, rounds = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])

per_cfg = {}  # benchmark name -> {"ms": [...], "edges": N}
for r in range(1, rounds + 1):
    with open(os.path.join(tmpdir, f"obs_{r}.json")) as f:
        doc = json.load(f)
    for b in doc["benchmarks"]:
        rec = per_cfg.setdefault(b["name"].removesuffix("/real_time"), {"ms": [], "edges": 0})
        rec["ms"].append(b["real_time"] / 1e6)  # ns -> ms
        rec["edges"] = int(b.get("edges", 0))

configs = {
    name: {
        "min_ms": round(min(rec["ms"]), 3),
        "median_ms": round(statistics.median(rec["ms"]), 3),
        "edges": rec["edges"],
    }
    for name, rec in sorted(per_cfg.items())
}
# Overhead of each on-configuration vs the off baseline, per size.
for name, cfg in configs.items():
    if "Off" in name:
        continue
    size = name.rsplit("/", 1)[1]
    base = configs.get(f"BM_SolveObservabilityOff/{size}")
    if base and base["min_ms"] > 0:
        cfg["overhead_pct"] = round(
            100.0 * (cfg["min_ms"] - base["min_ms"]) / base["min_ms"], 2)

entry = {
    "label": label,
    "benchmark": "observability",
    "rounds": rounds,
    "hardware_threads": os.cpu_count(),
    "configs": configs,
}

doc = {"runs": []}
if os.path.exists(out_path):
    with open(out_path) as f:
        doc = json.load(f)
doc.setdefault("runs", []).append(entry)
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"appended 'observability' entry for '{label}' to {out_path}")
for name, cfg in sorted(configs.items()):
    extra = f", overhead {cfg['overhead_pct']}%" if "overhead_pct" in cfg else ""
    print(f"  {name}: min {cfg['min_ms']:.2f} ms{extra}")
EOF
else
  echo "note: $OBS_BIN not built; skipping observability A/B" >&2
fi

# --- Incremental re-solve A/B (DESIGN.md §11) --------------------------
# Runs bench_incremental: undoing one constraint of the n=800 DAG
# system by a fresh solve of the edited system vs by retract() (cone
# invalidation + frontier re-closure), both under the same
# provenance-tracking options. Every round is one process invocation
# covering both sides, so fresh and retract are interleaved A/B across
# rounds (min-of-9 by default); "speedup" compares the two mins. The
# retract side uses google-benchmark manual time (the untimed part of
# each iteration rebuilds and re-solves the system that the timed
# retract consumes), so a smaller min time keeps rounds short without
# losing iterations. Skipped when the incremental bench is not built.

INC_BIN="${BENCH_INC_BIN:-$REPO_ROOT/build/bench/bench_incremental}"
INC_ROUNDS="${BENCH_INC_ROUNDS:-9}"
INC_MIN_TIME="${BENCH_INC_MIN_TIME:-0.05}"

if [ -x "$INC_BIN" ]; then
  for R in $(seq 1 "$INC_ROUNDS"); do
    "$INC_BIN" --benchmark_min_time="$INC_MIN_TIME" \
               --benchmark_format=json >"$TMPDIR_BENCH/inc_$R.json"
    echo "incremental round $R/$INC_ROUNDS done" >&2
  done

  python3 - "$OUT" "$LABEL" "$TMPDIR_BENCH" "$INC_ROUNDS" <<'EOF'
import json, os, statistics, sys

out_path, label, tmpdir, rounds = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])

per_cfg = {}  # benchmark name -> {"ms": [...], "counters": {...}}
for r in range(1, rounds + 1):
    with open(os.path.join(tmpdir, f"inc_{r}.json")) as f:
        doc = json.load(f)
    for b in doc["benchmarks"]:
        rec = per_cfg.setdefault(b["name"].removesuffix("/real_time"), {"ms": [], "counters": {}})
        rec["ms"].append(b["real_time"] / 1e6)  # ns -> ms
        for k in ("edges", "retracted_edges", "requeued_edges"):
            if k in b:
                rec["counters"][k] = int(b[k])

configs = {
    name: {
        "min_ms": round(min(rec["ms"]), 3),
        "median_ms": round(statistics.median(rec["ms"]), 3),
        **rec["counters"],
    }
    for name, rec in sorted(per_cfg.items())
}

entry = {
    "label": label,
    "benchmark": "incremental",
    "rounds": rounds,
    "hardware_threads": os.cpu_count(),
    "configs": configs,
}
fresh = min((c["min_ms"] for n, c in configs.items()
             if n.startswith("BM_EditFreshSolve")), default=None)
retract = min((c["min_ms"] for n, c in configs.items()
               if n.startswith("BM_RetractReclose")), default=None)
if fresh and retract:
    entry["speedup_fresh_over_retract"] = round(fresh / retract, 2)

doc = {"runs": []}
if os.path.exists(out_path):
    with open(out_path) as f:
        doc = json.load(f)
doc.setdefault("runs", []).append(entry)
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"appended 'incremental' entry for '{label}' to {out_path}")
for name, cfg in sorted(configs.items()):
    print(f"  {name}: min {cfg['min_ms']:.2f} ms, "
          f"median {cfg['median_ms']:.2f} ms")
if fresh and retract:
    print(f"  speedup (fresh/retract): {fresh / retract:.2f}x")
EOF
else
  echo "note: $INC_BIN not built; skipping incremental A/B" >&2
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

  python3 - "$OUT" "$LABEL" "$TMPDIR_BENCH" "$PROOF_ROUNDS" <<'EOF'
import json, os, statistics, sys

out_path, label, tmpdir, rounds = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])

per_cfg = {}  # benchmark name -> {"ms": [...], "counters": {...}}
for r in range(1, rounds + 1):
    with open(os.path.join(tmpdir, f"proof_{r}.json")) as f:
        doc = json.load(f)
    for b in doc["benchmarks"]:
        rec = per_cfg.setdefault(b["name"].removesuffix("/real_time"), {"ms": [], "counters": {}})
        rec["ms"].append(b["real_time"] / 1e6)  # ns -> ms
        for k in ("edges", "proof_bytes"):
            if k in b:
                rec["counters"][k] = int(b[k])

configs = {
    name: {
        "min_ms": round(min(rec["ms"]), 3),
        "median_ms": round(statistics.median(rec["ms"]), 3),
        **rec["counters"],
    }
    for name, rec in sorted(per_cfg.items())
}
# Overhead of proof-on vs the proof-off baseline, per size.
for name, cfg in configs.items():
    if not name.startswith("BM_SolveProofOn"):
        continue
    size = name.rsplit("/", 1)[1]
    base = configs.get(f"BM_SolveProofOff/{size}")
    if base and base["min_ms"] > 0:
        cfg["overhead_pct"] = round(
            100.0 * (cfg["min_ms"] - base["min_ms"]) / base["min_ms"], 2)

entry = {
    "label": label,
    "benchmark": "proof",
    "rounds": rounds,
    "hardware_threads": os.cpu_count(),
    "configs": configs,
}

doc = {"runs": []}
if os.path.exists(out_path):
    with open(out_path) as f:
        doc = json.load(f)
doc.setdefault("runs", []).append(entry)
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"appended 'proof' entry for '{label}' to {out_path}")
for name, cfg in sorted(configs.items()):
    extra = f", overhead {cfg['overhead_pct']}%" if "overhead_pct" in cfg else ""
    print(f"  {name}: min {cfg['min_ms']:.2f} ms{extra}")
EOF
else
  echo "note: $PROOF_BIN not built; skipping proof-emission A/B" >&2
fi

# --- eBPF front-end pipeline (DESIGN.md §13) ---------------------------
# Runs bench_ebpf: raw bytecode -> decode/CFG, the three lowerings,
# and the per-application full pipeline (bytes to answered query).
# Every round is one process invocation covering all stages,
# interleaved A/B across rounds (min-of-9 by default). The pooled
# batch shape is perfbench's ebpf-batch. Appends an "ebpf" entry keyed by
# benchmark name with min/median ms and the throughput counters.
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

  python3 - "$OUT" "$LABEL" "$TMPDIR_BENCH" "$EBPF_ROUNDS" <<'EOF'
import json, os, statistics, sys

out_path, label, tmpdir, rounds = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])

per_cfg = {}  # benchmark name -> {"ms": [...], "counters": {...}}
for r in range(1, rounds + 1):
    with open(os.path.join(tmpdir, f"ebpf_{r}.json")) as f:
        doc = json.load(f)
    for b in doc["benchmarks"]:
        rec = per_cfg.setdefault(b["name"].removesuffix("/real_time"), {"ms": [], "counters": {}})
        rec["ms"].append(b["real_time"] / 1e6)  # ns -> ms
        for k in ("programs_per_s", "insns_per_s", "violations",
                  "uninit_reads", "ctx_flows", "systems"):
            if k in b:
                # Rate counters vary by round; keep the best.
                cur = rec["counters"].get(k, 0)
                rec["counters"][k] = max(cur, round(b[k], 1))

configs = {
    name: {
        "min_ms": round(min(rec["ms"]), 3),
        "median_ms": round(statistics.median(rec["ms"]), 3),
        **rec["counters"],
    }
    for name, rec in sorted(per_cfg.items())
}

entry = {
    "label": label,
    "benchmark": "ebpf",
    "rounds": rounds,
    "hardware_threads": os.cpu_count(),
    "configs": configs,
}

doc = {"runs": []}
if os.path.exists(out_path):
    with open(out_path) as f:
        doc = json.load(f)
doc.setdefault("runs", []).append(entry)
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"appended 'ebpf' entry for '{label}' to {out_path}")
for name, cfg in sorted(configs.items()):
    print(f"  {name}: min {cfg['min_ms']:.2f} ms, "
          f"median {cfg['median_ms']:.2f} ms")
EOF
else
  echo "note: $EBPF_BIN not built; skipping ebpf pipeline" >&2
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

    python3 - "$OUT" "$LABEL" "$SVC_DIR" <<'EOF'
import json, os, sys

out_path, label, svc_dir = sys.argv[1], sys.argv[2], sys.argv[3]
bench_path = os.path.join(svc_dir, "bench.json")
if not (os.path.exists(bench_path) and os.path.getsize(bench_path)):
    sys.exit("no service bench output; skipping entry")
with open(bench_path) as f:
    bench = json.load(f)

entry = {
    "label": label,
    "benchmark": "service",
    "hardware_threads": os.cpu_count(),
    **{k: bench[k] for k in ("connections", "ops_per_connection",
                             "ops_ok", "busy_retries", "errors",
                             "p50_us", "p99_us") if k in bench},
}
# Server-side log2 latency histograms (service.op.*_us) for the run.
stats_path = os.path.join(svc_dir, "stats.json")
if os.path.exists(stats_path) and os.path.getsize(stats_path):
    with open(stats_path) as f:
        stats = json.load(f)
    entry["server_op_histograms"] = {
        k: v for k, v in stats.get("histograms", {}).items()
        if k.startswith("service.op.")}

doc = {"runs": []}
if os.path.exists(out_path):
    with open(out_path) as f:
        doc = json.load(f)
doc.setdefault("runs", []).append(entry)
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"appended 'service' entry for '{label}' to {out_path}")
print(f"  {entry.get('connections')} connections x "
      f"{entry.get('ops_per_connection')} ops: "
      f"p50 {entry.get('p50_us')} us, p99 {entry.get('p99_us')} us, "
      f"{entry.get('busy_retries')} busy retries, "
      f"{entry.get('errors')} errors")
EOF
  else
    echo "warning: rascd never came up; skipping service entry" >&2
    kill -9 "$RASCD_PID" 2>/dev/null || true
  fi
else
  echo "note: service binaries not built; skipping service latency" >&2
fi
