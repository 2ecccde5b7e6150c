#!/usr/bin/env python3
"""Appends one bench/run_bench.sh section's result to the trajectory
file (BENCH_solver.json) and prints a summary of it.

  bench_entry.py OUT LABEL BENCHMARK gbench ROUND.json... [options]
      google-benchmark JSON, one file per round in round order. Per
      benchmark name (the "/real_time" suffix dropped) the entry keeps
      the min and median wall ms over the rounds plus the counters
      named by --counter KEY:RULE[:AS] (stored as AS, default KEY):
        int    the last round's value, as an integer
        r3     the last round's value, rounded to 3 places
        max1   the best round's value, rounded to 1 place
        max0   the best round's value, rounded to an integer
      A counter a benchmark does not report is left out. --by-size
      keys the entry's "sizes" by the numeric argument of the name
      instead of its "configs" by name; --overhead-base NAME adds
      "overhead_pct" (min vs NAME/<size>'s min) to every other
      benchmark; --min-threads N notes a host with fewer hardware
      threads than the widest configuration swept.
  bench_entry.py OUT LABEL BENCHMARK table TABLE.txt
      bench_sec7_flow's table: one row per program.
  bench_entry.py OUT LABEL BENCHMARK service DIR
      rascdclient bench --json output (DIR/bench.json) with the
      server's service.op.* histograms (DIR/stats.json).
"""

import argparse
import json
import os
import statistics
import sys

RULES = {
    "int": lambda vals: int(vals[-1]),
    "r3": lambda vals: round(float(vals[-1]), 3),
    "max1": lambda vals: max(round(v, 1) for v in vals),
    "max0": lambda vals: round(max(vals)),
}


def gbench(args):
    counters = []
    for spec in args.counter:
        key, rule, *dest = spec.split(":")
        counters.append((key, RULES[rule], dest[0] if dest else key))

    ms, values = {}, {}  # name -> [ms per round], name -> key -> [values]
    for path in args.rounds:
        with open(path) as f:
            doc = json.load(f)
        for b in doc["benchmarks"]:
            name = b["name"].removesuffix("/real_time")
            ms.setdefault(name, []).append(b["real_time"] / 1e6)  # ns -> ms
            for key, _, _ in counters:
                if key in b:
                    values.setdefault(name, {}).setdefault(key, []).append(b[key])

    configs = {}
    for name in sorted(ms):
        cfg = {"min_ms": round(min(ms[name]), 3),
               "median_ms": round(statistics.median(ms[name]), 3)}
        for key, rule, dest in counters:
            if key in values.get(name, {}):
                cfg[dest] = rule(values[name][key])
        configs[name] = cfg
    if args.overhead_base:
        for name, cfg in configs.items():
            family, size = name.rsplit("/", 1)
            base = configs.get(f"{args.overhead_base}/{size}")
            if family != args.overhead_base and base and base["min_ms"] > 0:
                cfg["overhead_pct"] = round(
                    100.0 * (cfg["min_ms"] - base["min_ms"]) / base["min_ms"], 2)

    entry = {"rounds": len(args.rounds), "hardware_threads": os.cpu_count()}
    if args.by_size:
        size = lambda name: int(name.rsplit("/", 1)[1])
        entry["sizes"] = {str(size(n)): configs[n]
                          for n in sorted(configs, key=size)}
    else:
        entry["configs"] = configs
    threads = os.cpu_count() or 1
    if args.min_threads and threads < args.min_threads:
        entry["note"] = (
            f"host has {os.cpu_count()} hardware thread(s) < max swept "
            f"pool width {args.min_threads}; these numbers measure parallel-mode "
            "overhead, not speedup -- re-record on multi-core hardware")
    lines = []
    for name, cfg in configs.items():
        extra = f", overhead {cfg['overhead_pct']}%" if "overhead_pct" in cfg else ""
        lines.append(f"  {name}: min {cfg['min_ms']:.2f} ms, "
                     f"median {cfg['median_ms']:.2f} ms{extra}")
    return entry, lines


def table(args):
    rows = {}
    with open(args.table) as f:
        for line in f:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) != 5 or cells[0] in ("program", "") or cells[0].startswith("-"):
                continue
            rows[cells[0]] = dict(zip(("pair_S_F", "call_S_F", "primal_s", "dual_s"),
                                      cells[1:]))
    lines = [f"  {name}: primal {row['primal_s']}, dual {row['dual_s']}"
             for name, row in rows.items()]
    return {"hardware_threads": os.cpu_count(), "rows": rows}, lines


def service(args):
    bench_path = os.path.join(args.dir, "bench.json")
    if not (os.path.exists(bench_path) and os.path.getsize(bench_path)):
        sys.exit("no service bench output; skipping entry")
    with open(bench_path) as f:
        bench = json.load(f)
    entry = {"hardware_threads": os.cpu_count(),
             **{k: bench[k] for k in ("connections", "ops_per_connection",
                                      "ops_ok", "busy_retries", "errors",
                                      "p50_us", "p99_us") if k in bench}}
    stats_path = os.path.join(args.dir, "stats.json")
    if os.path.exists(stats_path) and os.path.getsize(stats_path):
        with open(stats_path) as f:
            stats = json.load(f)
        entry["server_op_histograms"] = {
            k: v for k, v in stats.get("histograms", {}).items()
            if k.startswith("service.op.")}
    lines = [f"  {entry.get('connections')} connections x "
             f"{entry.get('ops_per_connection')} ops: "
             f"p50 {entry.get('p50_us')} us, p99 {entry.get('p99_us')} us, "
             f"{entry.get('busy_retries')} busy retries, "
             f"{entry.get('errors')} errors"]
    return entry, lines


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("out")
    p.add_argument("label")
    p.add_argument("benchmark")
    sub = p.add_subparsers(dest="kind", required=True)
    g = sub.add_parser("gbench")
    g.add_argument("rounds", nargs="+")
    g.add_argument("--counter", action="append", default=[])
    g.add_argument("--by-size", action="store_true")
    g.add_argument("--overhead-base")
    g.add_argument("--min-threads", type=int)
    g.set_defaults(run=gbench)
    t = sub.add_parser("table")
    t.add_argument("table")
    t.set_defaults(run=table)
    s = sub.add_parser("service")
    s.add_argument("dir")
    s.set_defaults(run=service)
    args = p.parse_args()

    body, lines = args.run(args)
    entry = {"label": args.label, "benchmark": args.benchmark, **body}
    doc = {"runs": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc.setdefault("runs", []).append(entry)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"appended '{args.benchmark}' entry for '{args.label}' to {args.out}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
