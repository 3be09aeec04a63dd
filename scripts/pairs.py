#!/usr/bin/env python3
"""Paired benchmark runs of two source checkouts, alternating between them.

    python scripts/pairs.py --parent ../before --change . --workload axioms_warm --pairs 6 --seconds 6

Pair k runs perfbench/run.py --trace 0 with seed SEED + k in both
checkouts, one after the other, the parent first in even pairs and the
change first in odd ones, so that a drift of the host's speed falls on
both sides.  Before the first run every __pycache__ under either checkout
is deleted and the runs get PYTHONDONTWRITEBYTECODE=1, so that no run
loads bytecode compiled by an earlier one.  Each run uses the perfbench/
of its own checkout and changes nothing in it but perfbench/results/.

Printed: one line per pair with each end-to-end metric of the parent and
of the change, then per metric the medians of both, the number of pairs in
which the change was better, in the direction BENCHMARK.json of the change
gives, and the quartiles [q1, q3] of the parent's runs.  A metric is
flagged `worse` when the change's median is worse than the parent's by
more than the metric's bound in BENCHMARK.json, and `unresolved` when the
parent's own spread (q3 - q1) / median is wider than that bound, unless
every run of the change reads better than every run of the parent.  Exit
status 1 when a run fails or answers incorrectly, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def _checkout(text: str) -> Path:
    path = Path(text).resolve()
    if not (path / "perfbench" / "run.py").is_file() or not (path / "BENCHMARK.json").is_file():
        raise argparse.ArgumentTypeError(f"{text} is no checkout with perfbench/run.py and BENCHMARK.json")
    return path


def _positive(kind):
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"{text} is not positive")
        return value

    parse.__name__ = f"positive {kind.__name__}"  # argparse names it in its message
    return parse


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=_checkout)
    p.add_argument("--change", required=True, type=_checkout)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", required=True, type=_positive(int))
    p.add_argument("--seconds", required=True, type=_positive(float))
    p.add_argument("--seed", type=int, default=1, help="the seed of pair 0 (default 1)")
    args = p.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in workloads:
        p.error(f"unknown workload {args.workload!r}; expected one of {', '.join(workloads)}")
    args.better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    args.bound = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    return args


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise SystemExit(f"{root}: perfbench/run.py exited {out.returncode}\n{out.stderr[-2000:]}")
    line = json.loads(lines[-1])
    if not line["correct"] or line["failed"]:
        raise SystemExit(f"{root}: seed {seed} answered incorrectly or failed {line['failed']} operations")
    return {name: m["value"] for name, m in line["metrics"].items()}


def _quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(results, better: dict, bound: dict) -> list[str]:
    """One line per metric of results = [(seed, parent, change), ...]: the
    medians, the pairs the change won and the parent's quartiles, flagged
    as the module docstring says."""
    lines = []
    for name in better:
        before, after = [p[name] for _, p, _ in results], [c[name] for _, _, c in results]
        b, a = statistics.median(before), statistics.median(after)
        q1, q3 = _quartiles(before)
        sign = 1 if better[name] == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(before, after))
        flags = []
        if b and sign * (a - b) / b < -bound[name]:
            flags.append("worse")
        separated = all(sign * (c - p) > 0 for c in after for p in before)
        if b and (q3 - q1) / b > bound[name] and not separated:
            flags.append("unresolved")
        delta = f" ({(a - b) / b:+.1%})" if b else ""
        flagged = f": {', '.join(flags)}" if flags else ""
        lines.append(
            f"  {name}: {b:.4g} -> {a:.4g}{delta}, won {won}/{len(results)}, parent [{q1:.4g}, {q3:.4g}]{flagged}"
        )
    return lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    for root in {args.parent, args.change}:
        for cache in list(root.rglob("__pycache__")):
            shutil.rmtree(cache)
    names = list(args.better)
    results = []  # (seed, parent metrics, change metrics)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, parent {args.parent}, change {args.change}")
    print("seed  " + "  ".join(f"{name} parent -> change" for name in names))
    for k in range(args.pairs):
        seed = args.seed + k
        if k % 2 == 0:
            parent = _run(args.parent, args.workload, seed, args.seconds)
            change = _run(args.change, args.workload, seed, args.seconds)
        else:
            change = _run(args.change, args.workload, seed, args.seconds)
            parent = _run(args.parent, args.workload, seed, args.seconds)
        results.append((seed, parent, change))
        print(f"{seed:<4}  " + "  ".join(f"{parent[n]:.4g} -> {change[n]:.4g}" for n in names), flush=True)
    print("median, pairs the change won and the parent's quartiles:")
    for line in summary(results, args.better, args.bound):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
