"""divcurl benchmark: one workload per run, end-to-end metrics or a traced per-layer run.

    python3 bench/run.py --workload disk_highmode --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  Each run sets up the workload several times
(set-up time is their median), then runs a single-client closed loop for
--seconds.  --trace 0 reports the end-to-end metrics; --trace 1 runs every
request twice, untraced then traced, and reports per-layer metrics from the
spans.  The last stdout line is one JSON object {correct, attempted, failed,
metrics}; a full record (environment, details, spans) goes to
bench/results/.  Any failed correctness check makes the run exit with 1.
"""

from __future__ import annotations

import os

# one BLAS thread, set for this process and its children before numpy loads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import glob
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPS = 3
WORKLOADS = ("disk_highmode", "crosscheck", "cli_configs")
MIN_TRACED_SHARE = 0.95
# the tail is the highest percentile that keeps this many samples above it,
# never below the median (runs with 21 or fewer samples report the median)
TAIL_BEYOND = 10

END_TO_END_UNITS = {"latency_p50_s": "s", "latency_tail_s": "s", "throughput_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

# spans whose mean self time per call is reported as the metric "<span>_s"
SELF_TIME_SPANS = (
    "disk.solve", "disk.sample", "moments.report", "moments.make_admissible", "norms.h1",
    "norms.l2", "stream.solve", "stream.velocity", "biot_savart.disk", "biot_savart.omega",
    "conformal.pullback", "conformal.sample", "conformal.verify_map", "presets.data_fn",
    "cli.check", "cli.solve", "cli.norms", "cli.stream", "cli.oracle", "cli.build_problem",
    "fieldio.write", "fieldio.load",
)
PER_REQUEST_COUNTS = ("disk.sample_points", "quadrature.cumulative_calls", "quadrature.at_calls",
                      "biot_savart.pairs", "fieldio.rows_written", "fieldio.rows_read")
PER_LAYER_UNITS = {
    **{f"{span}_s": "s" for span in SELF_TIME_SPANS},
    **{name: "count" for name in PER_REQUEST_COUNTS},
    "disk.mode_nodes_per_s": "1/s", "biot_savart.pairs_per_s": "1/s",
    "disk.nonfinite": "count", "warnings": "count", "failed_frac": "frac",
    "crosscheck.max_rel_err": "rel", "cli.import_s": "s", "presets.build_s": "s",
    "trace.overhead_frac": "frac", "trace.coverage_frac": "frac",
}


def child_env():
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def child_import_seconds(module):
    """Import time of `module` (numpy included) in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment():
    import numpy as np

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def tail(latencies):
    """(value, percentile, samples): highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n - TAIL_BEYOND - 1 < n // 2:
        return statistics.median(ordered), 50.0, n
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def setup(wl, seed, seconds, tracer=None):
    """Set the workload up SETUP_REPS times; returns (median seconds, import seconds list)."""
    times, imports = [], []
    for rep in range(SETUP_REPS):
        imported = child_import_seconds(wl.import_module)
        start = time.perf_counter()
        if tracer is not None and rep == SETUP_REPS - 1:
            with tracer.active("setup"):
                wl.prepare(seed, seconds)
        else:
            wl.prepare(seed, seconds)
        times.append(imported + time.perf_counter() - start)
        imports.append(imported)
    return statistics.median(times), imports


def timed_loop(wl, seconds):
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        records.append(wl.request(len(records)))
    return records, time.perf_counter() - start


def traced_loop(wl, seconds, tracer):
    """Pairs (untraced, traced) of the same request, in whole kind cycles."""
    pairs = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(pairs) % wl.cycle:
        i = len(pairs)
        pairs.append((wl.request(i), wl.request(i, tracer)))
    return pairs


def end_to_end(wl, records, elapsed, setup_s):
    latencies = [r.latency for r in records if r.ok] or [math.nan]
    value, percentile, n = tail(latencies)
    if wl.name == "cli_configs":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "throughput_per_s": sum(r.ok for r in records) / elapsed,
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": setup_s,
    }
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.latency)
    details = {"tail_percentile": percentile, "latency_samples": n, "timed_seconds": elapsed,
               "median_latency_by_kind": {k: statistics.median(v) for k, v in by_kind.items()}}
    return metrics, details


def per_layer(wl, pairs, tracer, imports):
    """(metrics, errors) of a traced run; errors holds failed checks of the trace itself."""
    traced = [t for _, t in pairs]
    plain = [u for u, _ in pairs]
    requests = set(range(len(pairs)))
    self_times = tracer.self_times(requests)
    n = len(pairs)
    metrics = {f"{span}_s": _mean(self_times.get(span, [])) for span in SELF_TIME_SPANS}
    for name in PER_REQUEST_COUNTS:  # counter totals per traced request
        metrics[name] = tracer.counters[name] / n
    solve_time = sum(self_times.get("disk.solve", []))
    metrics["disk.mode_nodes_per_s"] = (tracer.counters["disk.mode_nodes"] / solve_time
                                        if solve_time else 0.0)
    oracle_time = sum(sum(self_times.get(name, []))
                      for name in ("biot_savart.disk", "biot_savart.omega"))
    metrics["biot_savart.pairs_per_s"] = (tracer.counters["biot_savart.pairs"] / oracle_time
                                          if oracle_time else 0.0)
    everything = plain + traced
    metrics["disk.nonfinite"] = _mean([r.nonfinite for r in everything])
    metrics["warnings"] = _mean([sum(r.warnings.values()) for r in everything])
    metrics["failed_frac"] = sum(not r.ok for r in everything) / len(everything)
    metrics["crosscheck.max_rel_err"] = max(r.max_rel_err for r in everything)
    metrics["cli.import_s"] = statistics.median(imports) if wl.name == "cli_configs" else 0.0
    metrics["presets.build_s"] = sum(tracer.self_times({"setup"}).get("presets.build", []))
    untraced = sum(r.latency for r in plain)
    metrics["trace.overhead_frac"] = (sum(r.latency for r in traced) - untraced) / untraced
    covered = sum(tracer.children_time(r.root_span) for r in traced)
    metrics["trace.coverage_frac"] = covered / untraced
    # every call a request makes into divcurl is a span, so the request span's
    # direct children must cover its own traced time
    traced_share = covered / sum(r.latency for r in traced)
    errors = []
    if not traced_share >= MIN_TRACED_SHARE:
        errors.append(f"trace: spans cover only {traced_share:.1%} of traced request time "
                      f"(< {MIN_TRACED_SHARE:.0%})")
    return metrics, errors


def _shares(tracer, n):
    """Mean self time per request of every span name (the layer split)."""
    totals = {name: sum(v) / n for name, v in tracer.self_times(set(range(n))).items()}
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def run_one(args):
    if not os.path.isdir(os.path.join(ROOT, "src", "divcurl")):
        print(f"error: {os.path.join(ROOT, 'src', 'divcurl')} not found; run from a divcurl "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    import workloads
    from spans import Tracer

    wl = workloads.make(args.workload, ROOT, in_process=bool(args.trace))
    tracer = Tracer() if args.trace else None
    try:
        setup_s, imports = setup(wl, args.seed, args.seconds, tracer)
        if tracer is None:
            records, elapsed = timed_loop(wl, args.seconds)
            metrics, details = end_to_end(wl, records, elapsed, setup_s)
            run_errors = []
            units = END_TO_END_UNITS
        else:
            tracer.counters.clear()
            pairs = traced_loop(wl, args.seconds, tracer)
            records = [r for pair in pairs for r in pair]
            metrics, run_errors = per_layer(wl, pairs, tracer, imports)
            details = {"traced_requests": len(pairs),
                       "self_time_per_request": _shares(tracer, len(pairs))}
            units = PER_LAYER_UNITS
    finally:
        if hasattr(wl, "close"):
            wl.close()

    failed = [r for r in records if not r.ok]
    warnings_by_category = {}
    for r in records:
        for name, count in r.warnings.items():
            warnings_by_category[name] = warnings_by_category.get(name, 0) + count
    details.update(setup_reps=SETUP_REPS, warnings_by_category=warnings_by_category,
                   errors=run_errors + [f"{r.kind}: {e}" for r in failed[:20] for e in r.errors])
    result = {
        "correct": not failed and not run_errors,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    env = environment()
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "result": result,
                   "details": details, "spans": tracer.dump() if tracer else []}, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(records)} requests, "
          f"{len(failed)} failed; full record in {os.path.relpath(path, ROOT)}")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if "tail_percentile" in details:
        print(f"# latency_tail_s is p{details['tail_percentile']:.1f} "
              f"of {details['latency_samples']} samples")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    for message in details["errors"]:
        print(f"FAIL {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload, untraced then traced, each in its own interpreter."""
    status = 0
    table = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines() or ["{}"]
            print("\n".join(f"[{name} trace={trace}] {line}" for line in lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                result = {}
            if proc.returncode != 0 or not result.get("correct"):
                status = 1
                print(f"[{name} trace={trace}] FAILED (exit {proc.returncode})")
            if trace == 0 and "metrics" in result:
                table.append((name, result["metrics"]))
    print("\nend-to-end metrics")
    for name, metrics in table:
        for metric, entry in metrics.items():
            print(f"{name:14s} {metric:18s} {entry['value']:.6g} {entry['unit']}")
    print("ALL CHECKS PASSED" if status == 0 else "CORRECTNESS CHECKS FAILED")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
