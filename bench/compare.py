#!/usr/bin/env python3
"""Run the benchmark on one or two checkouts and compare the results.

Standard library only.

  compare.py run --side base=DIR [--side head=DIR] --runs N --out FILE
                 [--workloads a,b] [--seed S] [--seconds T] [--trace 0|1]
      Runs `bash bench/run.sh` inside each DIR, N times per workload. Run i
      uses seed S + i on every side, and the order of the sides alternates
      (reversed on odd i) so drift in the machine hits both alike. Every run
      is appended to FILE as one JSON line.

  compare.py report FILE [FILE ...] [--bench BENCHMARK.json]
                 [--base NAME] [--head NAME]
      Prints the median and quartiles of every (workload, metric) pair per
      side, and the spread (Q3 - Q1) / median. A pair whose spread exceeds
      the metric's bound is "unresolved". With two sides, the head median is
      checked against the base median and the bound in BENCHMARK.json; the
      exit status is 1 if any pair regressed or any run was incorrect.

Example: two sets of five runs of one commit, alternating:
  python3 bench/compare.py run --side a=. --side b=. --runs 5 --out r.jsonl
  python3 bench/compare.py report r.jsonl --base a --head b
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_bench(path):
    with open(path) as f:
        bench = json.load(f)
    metrics = {}
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            metrics[m["name"]] = dict(m, kind=kind)
    return bench, metrics


def run(args):
    bench, _ = load_bench(args.bench)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    sides = []
    for spec in args.side:
        name, _, path = spec.partition("=")
        if not path:
            sys.exit(f"--side wants NAME=DIR, got {spec!r}")
        sides.append((name, os.path.abspath(path)))
    with open(args.out, "a") as out:
        for i in range(args.runs):
            order = sides if i % 2 == 0 else list(reversed(sides))
            for workload in workloads:
                for name, path in order:
                    seed = args.seed + i
                    cmd = bench["command"] + [
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(args.trace)]
                    start = time.monotonic()
                    proc = subprocess.run(cmd, cwd=path, capture_output=True,
                                          text=True)
                    wall = time.monotonic() - start
                    lines = proc.stdout.strip().splitlines()
                    record = {"side": name, "workload": workload, "seed": seed,
                              "run": i, "trace": args.trace,
                              "wall_s": round(wall, 3),
                              "exit": proc.returncode, "result": None}
                    if proc.returncode == 0 and lines:
                        record["result"] = json.loads(lines[-1])
                    else:
                        sys.stderr.write(proc.stderr[-2000:])
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"{name:>8} {workload:<14} seed {seed:<4} "
                          f"exit {proc.returncode} {wall:6.1f} s", flush=True)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(args):
    _, metrics = load_bench(args.bench)
    records = []
    for path in args.files:
        with open(path) as f:
            records.extend(json.loads(line) for line in f if line.strip())
    sides = sorted({r["side"] for r in records})
    base = args.base or (sides[0] if sides else None)
    head = args.head or (sides[1] if len(sides) > 1 else None)
    values = {}
    status = 0
    for r in records:
        result = r["result"]
        if result is None or not result["correct"]:
            print(f"run failed or incorrect: {r['side']} {r['workload']} "
                  f"seed {r['seed']} exit {r['exit']}")
            status = 1
            continue
        for name, m in result["metrics"].items():
            values.setdefault((r["workload"], name), {}).setdefault(
                r["side"], []).append(m["value"])
    print(f"{'workload':<14} {'metric':<32} {'side':>6} {'n':>3} "
          f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  verdict")
    for (workload, name), by_side in sorted(values.items()):
        m = metrics.get(name, {})
        bound = m.get("bound")
        stats = {}
        for side, vals in sorted(by_side.items()):
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            stats[side] = (vals, med, spread)
            note = ""
            if bound is not None and spread > bound:
                note = "unresolved (spread > bound)"
            elif bound is not None and spread > bound / 3:
                note = "spread > bound/3"
            print(f"{workload:<14} {name:<32} {side:>6} {len(vals):>3} "
                  f"{med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f}  {note}")
        if bound is None or base not in stats or head not in stats:
            continue
        base_vals, base_med, base_spread = stats[base]
        head_vals, head_med, head_spread = stats[head]
        lower = m["better"] == "lower"
        worse = ((head_med - base_med) if lower else (base_med - head_med)) / base_med
        all_better = (max(head_vals) < min(base_vals)) if lower else (
            min(head_vals) > max(base_vals))
        if max(base_spread, head_spread) > bound and not all_better:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSION"
            status = 1
        else:
            verdict = "ok"
        print(f"{'':<14} {'':<32} {head + ' vs ' + base:>10}: "
              f"{-worse:+.3%} (bound {bound:.0%}) {verdict}")
    walls = [r["wall_s"] for r in records]
    if walls:
        print(f"{len(walls)} runs, wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s, total {sum(walls):.0f} s")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--side", action="append", required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--workloads", default="")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("report")
    p.add_argument("files", nargs="+")
    p.add_argument("--base")
    p.add_argument("--head")
    args = parser.parse_args()
    if args.mode == "run":
        run(args)
        return 0
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
