#!/usr/bin/env python3
"""A/B comparison of two checkouts on one end-to-end benchmark workload.

Runs each checkout's own bench/e2e/run_bench.py --workload W in
alternating pairs, flipping which side goes first every pair, so slow
drift of the machine lands on both sides alike. Each checkout builds into
its own <checkout>/.bench_build/e2e. For every end-to-end metric of
BENCHMARK.json it prints both medians, the first side's q1-q3, how many
pairs the second side won, the exact two-sided sign-test p-value (ties
dropped) and a verdict against the metric's bound (see verdict()), then
every pair's values.

  mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
  python3 scripts/ab.py ../parent . --workload steady --pairs 10
  python3 scripts/ab.py ../parent . --workload steady --pairs 10 --seed 7

Exit status: 0 when every run was correct, 1 otherwise.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run_once(checkout, workload, seed, seconds):
    """One run_bench.py run; returns (correct, {metric: value})."""
    argv = [sys.executable, str(checkout / "bench" / "e2e" / "run_bench.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return False, {}
    values = {k: m["value"] for k, m in last["metrics"].items()}
    return proc.returncode == 0 and last["correct"], values


def sign_test(wins, losses):
    """Exact two-sided sign-test p-value of `wins` against `losses`."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2.0 ** n)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(a, b, better, bound):
    """B's runs against A's under a relative `bound` on the median.

    'worse' when B's median is worse than A's by more than the bound,
    'unresolved' when A's q1-q3 width exceeds the bound (A's own spread
    could hide such a change), 'ok' otherwise; a B whose every run beats
    every A run is 'ok' however wide A spreads.

    >>> verdict([100, 101, 99, 100], [98, 97, 99, 98], "higher", 0.25)
    'ok'
    >>> verdict([100, 101, 99, 100], [70, 71, 69, 70], "higher", 0.25)
    'worse'
    >>> verdict([1.0, 1.1, 1.0, 1.05], [1.4, 1.3, 1.35, 1.4], "lower", 0.25)
    'worse'
    >>> verdict([60, 80, 120, 140], [98, 99, 101, 102], "higher", 0.25)
    'unresolved'
    >>> verdict([60, 80, 120, 140], [150, 160, 155, 170], "higher", 0.25)
    'ok'
    """
    sign = 1 if better == "higher" else -1
    if min(sign * y for y in b) > max(sign * x for x in a):
        return "ok"
    med_a = statistics.median(a)
    q1, q3 = quartiles(a)
    if q3 - q1 > bound * abs(med_a):
        return "unresolved"
    change = sign * (statistics.median(b) - med_a) / abs(med_a)
    return "worse" if change < -bound else "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("first", type=Path, help="baseline checkout (A)")
    parser.add_argument("second", type=Path, help="changed checkout (B)")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed, the same on both sides")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args()
    sides = (args.first.resolve(), args.second.resolve())

    runs = ([], [])  # per side: one {metric: value} per pair
    ok = True
    for pair in range(args.pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for side in order:
            correct, values = run_once(sides[side], args.workload, args.seed,
                                       args.seconds)
            if not correct:
                print(f"pair {pair + 1}: {'AB'[side]} run failed or was wrong",
                      file=sys.stderr)
                ok = False
            runs[side].append(values)
        print(f"pair {pair + 1}/{args.pairs} done ({'AB'[order[0]]} first)",
              file=sys.stderr, flush=True)

    pairs = [(a, b) for a, b in zip(*runs) if a and b]
    print(f"{args.workload}, seed {args.seed}, {len(pairs)} pairs; "
          f"A = {sides[0]}, B = {sides[1]}")
    print(f"{'metric':<20} {'better':<6} {'median A':>12} {'median B':>12} "
          f"{'B vs A':>8} {'A q1-q3':>25} {'B wins':>7} {'sign p':>8} "
          f"{'verdict':>10}")
    for name, better in BETTER.items():
        a = [p[0][name] for p in pairs if name in p[0] and name in p[1]]
        b = [p[1][name] for p in pairs if name in p[0] and name in p[1]]
        if not a:
            continue
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        losses = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        med_a, med_b = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        delta = (med_b - med_a) / med_a * 100 if med_a else float("nan")
        print(f"{name:<20} {better:<6} {med_a:>12.5g} {med_b:>12.5g} "
              f"{delta:>+7.1f}% {f'{q1:.5g}-{q3:.5g}':>25} "
              f"{f'{wins}/{len(a)}':>7} {sign_test(wins, losses):>8.3g} "
              f"{verdict(a, b, better, BOUND[name]):>10}")
    print("\nevery pair (A / B):")
    for i, (a, b) in enumerate(pairs):
        cells = "  ".join(f"{name} {a[name]:.5g} / {b[name]:.5g}"
                          for name in BETTER if name in a and name in b)
        print(f"  {i + 1:>2}: {cells}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
