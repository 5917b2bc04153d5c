#!/usr/bin/env python3
"""Perf-regression gate over bench_kernel_throughput JSON results.

Compares a freshly measured BENCH_kernel.json against the committed
baseline and fails (exit 1) when any kernel variant regressed beyond the
tolerance band. Stdlib only — runs anywhere CI has a python3.

    $ for i in 1 2 3 4 5; do ./build-release/bench/bench_kernel_throughput \
          --quick true --json fresh-$i.json; done
    $ scripts/bench_trend.py --baseline BENCH_kernel.json \
          --fresh fresh-*.json --mode normalized --tolerance 0.10

Rows are keyed by (kernel, shards) and compared on balls_per_sec
(higher is better). Given several --fresh files (repeated runs of one
binary), each row is gated on its median over them: one short run is
noisier than the tolerance band on a shared host, the median of five
is not. Two modes:

  absolute    each row must reach baseline * (1 - tolerance). Right when
              baseline and fresh ran on the same machine.
  normalized  (default) per-row speed ratios fresh/baseline are computed
              and each row must reach median-of-the-OTHER-rows' ratios
              * (1 - tolerance). A uniformly slower CI runner shifts
              every ratio equally and passes; one kernel regressing
              relative to the others fails (the leave-one-out scale
              keeps the regressed row from dragging its own bar down).
              This is the mode for gating against a committed baseline
              that was measured on different hardware. A genuine
              single-kernel speedup can trip the other rows — that is
              the cue to regenerate the committed baseline.

--synthetic-slowdown PCT is a self-test hook: it slows the fastest
fresh (median) row down by PCT percent before comparing, so CI can assert the
gate actually trips (the run must then exit 1).

Exit codes: 0 within tolerance, 1 regression detected, 2 usage/IO error.
"""

import argparse
import json
import statistics
import sys


def load_rows(path):
    """Returns {(kernel, shards): balls_per_sec} from a bench JSON."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as error:
        sys.exit(f"bench_trend: cannot read {path}: {error}")
    rows = {}
    for row in doc.get("results", []):
        key = (row.get("kernel", "?"), int(row.get("shards", 1)))
        speed = float(row.get("balls_per_sec", 0.0))
        if speed <= 0.0:
            sys.exit(f"bench_trend: {path}: row {key} has no "
                     "balls_per_sec — refusing to gate on it")
        rows[key] = speed
    if not rows:
        sys.exit(f"bench_trend: {path}: no results[] rows")
    return rows


def main():
    parser = argparse.ArgumentParser(
        description="fail when bench_kernel_throughput regressed beyond "
                    "the tolerance band")
    parser.add_argument("--baseline", default="BENCH_kernel.json",
                        help="committed baseline JSON (default: "
                             "BENCH_kernel.json)")
    parser.add_argument("--fresh", required=True, nargs="+",
                        help="freshly measured JSON(s) to gate; with "
                             "several, each row's median is gated")
    parser.add_argument("--mode", choices=("absolute", "normalized"),
                        default="normalized")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional slowdown (default 0.10)")
    parser.add_argument("--synthetic-slowdown", type=float, default=0.0,
                        metavar="PCT",
                        help="self-test: slow the fastest fresh row down "
                             "by PCT%% before comparing")
    parser.add_argument("--report", default="",
                        help="also write the comparison table here")
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        sys.exit("bench_trend: --tolerance must be in [0, 1)")

    baseline = load_rows(args.baseline)
    runs = [load_rows(path) for path in args.fresh]
    fresh = {key: statistics.median(run[key] for run in runs if key in run)
             for key in set().union(*runs)}

    if args.synthetic_slowdown > 0.0:
        victim = max(fresh, key=fresh.get)
        fresh[victim] *= 1.0 - args.synthetic_slowdown / 100.0
        print(f"bench_trend: synthetic {args.synthetic_slowdown:g}% "
              f"slowdown applied to {victim[0]} shards={victim[1]}")

    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        sys.exit("bench_trend: baseline and fresh share no "
                 "(kernel, shards) rows")
    for key in sorted(set(baseline) ^ set(fresh)):
        side = "baseline" if key in baseline else "fresh"
        print(f"bench_trend: note: {key[0]} shards={key[1]} only in "
              f"{side}; skipped")

    ratios = {key: fresh[key] / baseline[key] for key in shared}

    def scale_for(key):
        if args.mode == "absolute":
            return 1.0
        others = [ratios[k] for k in shared if k != key]
        return statistics.median(others) if others else 1.0

    lines = [f"bench_trend: mode={args.mode} "
             f"tolerance={args.tolerance:.0%}"]
    failures = 0
    for key in shared:
        kernel, shards = key
        floor = scale_for(key) * (1.0 - args.tolerance)
        verdict = "ok" if ratios[key] >= floor else "REGRESSED"
        failures += verdict != "ok"
        lines.append(
            f"  {kernel:<10} shards={shards}  "
            f"baseline {baseline[key]:14,.0f} balls/s  "
            f"fresh {fresh[key]:14,.0f} balls/s  "
            f"ratio {ratios[key]:.3f}  floor {floor:.3f}  {verdict}")
    lines.append(
        f"bench_trend: {'FAIL' if failures else 'PASS'} — "
        f"{failures} of {len(shared)} row(s) below the floor")

    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(report)
        except OSError as error:
            sys.exit(f"bench_trend: cannot write {args.report}: {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
