#!/usr/bin/env python3
"""Append one benchmark record per workload to BENCH_<workload>.json: the perf trajectory.

    python3 scripts/bench_record.py --seeds 1 2 3 4 5 --seconds 30

For each workload (every one BENCHMARK.json declares, or --workload W ...)
the committed harness runs once per seed with `bench/run.py --trace 0` and
once more, on the first seed, with `--trace 1`, each in a fresh interpreter
in this checkout.  The record holds the commit checked out (and whether
src/, bench/ or scripts/ differ from it), a digest of src/, the host (nproc
and CPU model, from the harness's own record), the seconds and seeds, the
median and quartiles of each end-to-end metric over the seeds, the
per-layer metrics of the traced run and its mean self time per request of
every span.

BENCH_<workload>.json is a JSON list with one record per line.  A record is
appended by writing over the closing bracket only, so the bytes of every
earlier record stay as they were.  The exit code is 1 when a run is not
correct or gives no result; nothing is appended then.
"""

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys

from bench_pairs import ROOT, directions, parse, quartiles, run

CLOSE = b"\n]\n"


def append(path, record) -> None:
    """Append record to the JSON list in path (made if missing), rewriting no earlier byte."""
    line = json.dumps(record, sort_keys=True).encode()
    path = pathlib.Path(path)
    if not path.exists():
        path.write_bytes(b"[\n" + line + CLOSE)
        return
    with open(path, "r+b") as fh:
        fh.seek(-len(CLOSE), 2)
        if fh.read() != CLOSE:
            raise ValueError(f"{path} does not end with a closing bracket of its own line")
        fh.seek(-len(CLOSE), 2)
        fh.write(b",\n" + line + CLOSE)


def checkout(tree) -> dict:
    """The commit of tree, whether its src/, bench/ or scripts/ differ from it,
    and a SHA-256 of its src/."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted(pathlib.Path(tree, "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain", "--", "src", "bench", "scripts")
    return {"commit": git("rev-parse", "HEAD"), "uncommitted": bool(status),
            "src_sha256": digest.hexdigest()}


def record(tree, workload, seeds, seconds, plain, traced, better) -> dict:
    """The record of the untraced result lines plain (one per seed) and one traced line."""
    results = [parse(line) for line in plain]
    end_to_end = {}
    for name in better:
        values = [r["metrics"][name]["value"] for r in results if name in r.get("metrics", {})]
        if values:
            q1, median, q3 = quartiles(values)
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3,
                                "unit": results[0]["metrics"][name]["unit"]}
    traced_result = parse(traced)
    full = pathlib.Path(tree, "bench", "results", f"{workload}-seed{seeds[0]}-trace1.json")
    run_record = json.loads(full.read_text()) if full.exists() else {}
    environment = run_record.get("environment", {})
    return {
        **checkout(tree),
        "workload": workload,
        "host": {"nproc": environment.get("nproc"), "cpu_model": environment.get("cpu_model")},
        "seconds": seconds,
        "seeds": list(seeds),
        "end_to_end": end_to_end,
        "per_layer": {name: entry["value"]
                      for name, entry in traced_result.get("metrics", {}).items()},
        "self_time_per_request": run_record.get("details", {}).get("self_time_per_request", {}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", default=str(ROOT), help="directory of the BENCH_*.json files")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [entry["name"] for entry in spec["workloads"]]
    better = directions(ROOT / "BENCHMARK.json")
    records = []
    for workload in workloads:
        plain = [run(ROOT, workload, seed, args.seconds) for seed in args.seeds]
        traced = run(ROOT, workload, args.seeds[0], args.seconds, trace=1)
        if not all(parse(line).get("correct") is True for line in (*plain, traced)):
            print(f"{workload}: a run is not correct; nothing appended", file=sys.stderr)
            return 1
        records.append(record(ROOT, workload, args.seeds, args.seconds, plain, traced, better))
        print(f"{workload}: " + ", ".join(f"{name}={entry['median']:.4g}"
                                          for name, entry in records[-1]["end_to_end"].items()),
              flush=True)
    for workload, entry in zip(workloads, records):
        append(pathlib.Path(args.out, f"BENCH_{workload}.json"), entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
