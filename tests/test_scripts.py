"""Smoke runs of the experiment scripts at tiny sizes: they import library names."""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["oracle_convergence.py", "--nodes", "201", "--modes", "4", "--points", "4", "--levels", "2"],
    ["run_estimate_suite.py", "--problems", "3", "--nodes", "101", "--modes", "4"],
])
def test_script_runs(argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def load_cli_outputs():
    spec = importlib.util.spec_from_file_location("cli_outputs", SCRIPTS / "cli_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_outputs_writes_every_run(tmp_path):
    out, empty = tmp_path / "out", tmp_path / "empty"
    empty.mkdir()
    proc = subprocess.run([sys.executable, str(SCRIPTS / "cli_outputs.py"), "--out", str(out),
                           "--against", str(empty)],
                          capture_output=True, text=True, timeout=600)
    runs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(runs) == 17 and "stream-vortex_patch" in runs and "oracle-vortex_patch" in runs
    for name in runs:
        assert f"{name}: exit 0" in proc.stdout.splitlines(), proc.stderr
        assert any((out / name).iterdir()), name
        assert (out / f"{name}.stdout").exists() and (out / f"{name}.stderr").exists()
    assert (out / "oracle-vortex_patch" / "oracle_report.txt").exists()
    # nothing to compare with: every file differs, and the exit code says so
    files = sorted(p for p in out.rglob("*") if p.is_file())
    assert proc.returncode == 1 and f"{len(files)} files differ" in proc.stdout
    assert f"{files[0].relative_to(out)}: only in {out}" in proc.stdout

    differences = load_cli_outputs().differences
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    assert differences(out, copy) == []
    report = copy / "solve-cylinder" / "compat_report.txt"
    report.write_text(report.read_text().replace("tolerance,1e-08", "tolerance,1.5e-08"))
    (copy / "check-cylinder.stdout").write_text("changed\n")
    assert differences(out, copy) == [
        (pathlib.Path("check-cylinder.stdout"), "non-numeric"),
        (pathlib.Path("solve-cylinder/compat_report.txt"), "largest difference 5e-09")]


def test_largest_difference_reads_the_numbers():
    largest_difference = load_cli_outputs().largest_difference
    assert largest_difference("x,1.0,-2e-3\n", "x,1.0,-2e-3\n") == 0.0
    assert largest_difference("x,1.0,-2e-3\n", "x,1.25,-2.5e-3\n") == 0.25
    assert largest_difference("x,nan\n", "x,1\n") == float("inf")
    assert largest_difference("x,1\n", "y,1\n") is None
    assert largest_difference("1,2\n", "1,2,3\n") is None


def test_warning_locations_do_not_count_as_differences(tmp_path):
    # the same warning raised from checkouts in other directories, at other
    # lines of cli.py, compares equal; a changed message still differs
    differences = load_cli_outputs().differences
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    message = "UserWarning: data violates the k = 0 moment conditions (Gamma 1.137e+01)\n"
    (a / "solve-x.stderr").write_text(
        f"/one/src/divcurl/cli.py:343: {message}  return solve_disk(problem, tol)\n")
    (b / "solve-x.stderr").write_text(
        f"/two/checkout/src/divcurl/cli.py:345: {message}  return solve_disk(problem)\n")
    assert differences(a, b) == []
    (b / "solve-x.stderr").write_text(
        f"/two/src/divcurl/cli.py:345: {message.replace('1.137', '1.25')}  return x\n")
    assert differences(a, b) == [(pathlib.Path("solve-x.stderr"), "largest difference 1.13")]
    (b / "solve-x.stderr").write_text(
        f"/two/src/divcurl/cli.py:345: {message.replace('UserWarning', 'RuntimeWarning')}")
    assert differences(a, b) == [(pathlib.Path("solve-x.stderr"), "non-numeric")]
    # other files keep their text as it is
    (a / "solve-x.stdout").write_text(f"/one/cli.py:3: {message}")
    (b / "solve-x.stdout").write_text(f"/two/cli.py:3: {message}")
    assert (pathlib.Path("solve-x.stdout"), "non-numeric") in differences(a, b)


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(correct=True, **values):
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics})


def test_bench_pairs_summary_counts_the_pairs_the_change_won():
    bench_pairs = load_bench_pairs()
    better = bench_pairs.directions(SCRIPTS.parent / "BENCHMARK.json")
    assert better["latency_tail_s"] == "lower" and better["throughput_per_s"] == "higher"
    better = {"latency_tail_s": "lower", "throughput_per_s": "higher"}
    pairs = [(result_line(latency_tail_s=0.10, throughput_per_s=10.0),
              result_line(latency_tail_s=0.08, throughput_per_s=10.0)),
             (result_line(latency_tail_s=0.11, throughput_per_s=11.0),
              result_line(latency_tail_s=0.12, throughput_per_s=12.0)),
             (result_line(latency_tail_s=0.12, throughput_per_s=12.0),
              result_line(latency_tail_s=0.09, throughput_per_s=13.0))]
    lines, correct = bench_pairs.summary(pairs, better)
    assert correct and lines[0] == "3 pairs; every run correct: yes"
    tail, throughput = lines[2].split(), lines[3].split()
    # medians with quartiles, the ratio of the medians, and the pairs won (a tie is no win)
    assert tail == ["latency_tail_s", "0.11", "[0.105,", "0.115]", "0.09", "[0.085,", "0.105]",
                    "0.818", "2/3"]
    assert throughput[0] == "throughput_per_s" and throughput[-1] == "2/3"
    lines, correct = bench_pairs.summary(
        [(result_line(latency_tail_s=0.1), result_line(False, latency_tail_s=0.1)),
         (result_line(latency_tail_s=0.1), "Traceback (most recent call last):")], better)
    assert not correct and lines[0] == "2 pairs; every run correct: NO"
    assert lines[2].split()[-1] == "0/1"


def test_bench_pairs_reads_each_metric_against_its_bound():
    bench_pairs = load_bench_pairs()
    bound = bench_pairs.bounds(SCRIPTS.parent / "BENCHMARK.json")
    assert bound["latency_p50_s"] == 0.25 and bound["peak_rss_mb"] == 0.1
    better = {"latency_p50_s": "lower", "throughput_per_s": "higher", "peak_rss_mb": "lower",
              "setup_s": "lower"}
    bound = {"latency_p50_s": 0.25, "throughput_per_s": 0.25, "peak_rss_mb": 0.1,
             "setup_s": 0.25}
    parent = {"latency_p50_s": [1.00, 1.02, 0.98, 1.01],  # tight; the change 10 % slower
              "throughput_per_s": [10.0, 10.2, 9.8, 10.1],  # tight; the change 30 % lower
              "peak_rss_mb": [300.0, 360.0, 340.0, 310.0],  # spread 12 % of the median
              "setup_s": [1.0, 2.0, 1.5, 3.0]}  # wide, but every change run is faster
    change = {"latency_p50_s": [1.10, 1.12, 1.08, 1.11],
              "throughput_per_s": [7.0, 7.1, 6.9, 7.2],
              "peak_rss_mb": [330.0, 335.0, 332.0, 331.0],
              "setup_s": [0.5, 0.6, 0.4, 0.55]}
    pairs = [(result_line(**{name: values[i] for name, values in parent.items()}),
              result_line(**{name: values[i] for name, values in change.items()}))
             for i in range(4)]
    lines, correct = bench_pairs.summary(pairs, better, bound)
    assert correct and lines[1].split()[-1] == "bound"
    assert [line.split()[-1] for line in lines[2:]] == ["within", "worse", "unresolved",
                                                         "within"]


def test_bench_record_appends_without_rewriting_a_record(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # bench_record imports bench_pairs
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPTS / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    better = {"latency_p50_s": "lower", "throughput_per_s": "higher"}
    plain = [result_line(latency_p50_s=v, throughput_per_s=1.0 / v) for v in (0.75, 0.25, 0.5)]
    first = bench_record.record(tmp_path, "disk_highmode", [4, 5, 6], 2.0, plain,
                                result_line(**{"disk.solve_s": 0.01}), better)
    assert first["end_to_end"]["latency_p50_s"] == {"median": 0.5, "q1": 0.375, "q3": 0.625,
                                                    "unit": "s"}
    assert first["seeds"] == [4, 5, 6] and first["per_layer"] == {"disk.solve_s": 0.01}
    path = tmp_path / "BENCH_disk_highmode.json"
    bench_record.append(path, first)
    before = path.read_bytes()
    bench_record.append(path, dict(first, seeds=[7]))
    bench_record.append(path, dict(first, seeds=[8]))
    after = path.read_bytes()
    # every byte up to the first record's closing brace is kept
    assert after.startswith(before[: -len(bench_record.CLOSE)])
    assert [entry["seeds"] for entry in json.loads(after)] == [[4, 5, 6], [7], [8]]
    assert json.loads(after)[0] == json.loads(before)[0]
    path.write_bytes(before + b"trailing")
    with pytest.raises(ValueError, match="closing bracket"):
        bench_record.append(path, first)
