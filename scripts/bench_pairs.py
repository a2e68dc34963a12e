#!/usr/bin/env python3
"""Alternating pairs of benchmark runs in two checkouts, and how often the change won.

    python3 scripts/bench_pairs.py --parent A --change B --workload disk_highmode \\
        --seeds 31 32 33 34 35 36 --seconds 30

For each seed the committed harness, `bench/run.py --workload W --seed S
--seconds T --trace 0`, runs once in each checkout, each in a fresh
interpreter, one after the other; the tree that runs first alternates from
seed to seed, so a drift of the host favours neither.  The last stdout line
of a run is its result, one JSON object.  For each end-to-end metric the
summary prints the median and quartiles of each tree, the ratio of the
medians, and in how many pairs the change was better, by the direction
BENCHMARK.json gives the metric (a tie is not a win).  The last column reads
the change's median against the metric's relative bound: "worse" when it is
worse than the parent's median by more than the bound, else "within", and
"unresolved" when the parent's quartile spread exceeds the bound relative to
its median, unless every change run beats every parent run.  The exit code
is 1 when a run is not correct or gives no result.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def directions(benchmark) -> dict:
    """{metric: "lower" or "higher"} of the end-to-end metrics of a BENCHMARK.json."""
    spec = json.loads(pathlib.Path(benchmark).read_text())
    return {entry["name"]: entry["better"] for entry in spec["end_to_end"]}


def bounds(benchmark) -> dict:
    """{metric: relative bound} of the end-to-end metrics of a BENCHMARK.json."""
    spec = json.loads(pathlib.Path(benchmark).read_text())
    return {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}


def parse(line: str) -> dict:
    """The result of one run from its last stdout line; an unreadable line is not correct."""
    try:
        result = json.loads(line)
    except (TypeError, ValueError):
        return {"correct": False, "metrics": {}}
    return result if isinstance(result, dict) else {"correct": False, "metrics": {}}


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, direction: str, bound: float) -> str:
    """"within", "worse" or "unresolved": the change's median against the parent's
    runs, by the metric's direction and relative bound (see the module docstring)."""
    sign = 1.0 if direction == "lower" else -1.0
    (p1, p2, p3), c2 = quartiles(parent), quartiles(change)[1]
    beats_all = all(sign * (c - p) < 0 for c in change for p in parent)
    if p3 - p1 > bound * abs(p2) and not beats_all:
        return "unresolved"
    return "worse" if sign * (c2 - p2) > bound * abs(p2) else "within"


def summary(pairs, better: dict, bound: dict = None) -> tuple:
    """(report lines, every run correct) of pairs (parent line, change line) of result lines;
    with bound, {metric: relative bound}, each metric's verdict is the last column."""
    results = [(parse(a), parse(b)) for a, b in pairs]
    correct = all(r.get("correct") is True for pair in results for r in pair)
    lines = [f"{len(results)} pairs; every run correct: {'yes' if correct else 'NO'}",
             f"{'metric':18s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
             f" {'change/parent':>13s} {'change won':>10s}"]
    if bound:
        lines[1] += f" {'bound':>10s}"
    for name, direction in better.items():
        values = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                  for a, b in results
                  if name in a.get("metrics", {}) and name in b.get("metrics", {})]
        if not values:
            continue
        parent, change = ([pair[i] for pair in values] for i in (0, 1))
        won = sum((b < a) if direction == "lower" else (b > a) for a, b in values)
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        ratio = f"{c2 / p2:.3f}" if p2 else "-"
        lines.append(f"{name:18s} {f'{p2:.4g} [{p1:.4g}, {p3:.4g}]':>30s}"
                     f" {f'{c2:.4g} [{c1:.4g}, {c3:.4g}]':>30s} {ratio:>13s}"
                     f" {f'{won}/{len(values)}':>10s}")
        if bound:
            lines[-1] += f" {verdict(parent, change, direction, bound[name]):>10s}"
    return lines, correct


def run(tree, workload, seed, seconds, trace=0) -> str:
    """The last stdout line of one harness run in tree, untraced unless trace is 1
    ("" if it printed nothing)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent tree")
    parser.add_argument("--change", required=True, help="checkout of the changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                        help="BENCHMARK.json giving each metric's direction and bound")
    args = parser.parse_args(argv)
    better = directions(args.benchmark)
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        lines = {tree: run(getattr(args, tree), args.workload, seed, args.seconds)
                 for tree in order}
        pairs.append((lines["parent"], lines["change"]))
        values = {tree: parse(lines[tree]).get("metrics", {}) for tree in order}
        shown = ", ".join(f"{tree} " + " ".join(f"{name}={values[tree][name]['value']:.4g}"
                                                for name in better if name in values[tree])
                          for tree in order)
        print(f"seed {seed} ({order[0]} first): {shown}", flush=True)
    lines, correct = summary(pairs, better, bounds(args.benchmark))
    print("\n".join(lines))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
