"""Tests of the benchmark itself: known-bad requests count as failed, good ones pass.

Run from the repository root with `python3 -m pytest bench -q`.  Sizes are
small so the suite takes seconds; the workloads' own sizes are untouched.
"""

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from divcurl import disk, presets, quadrature  # noqa: E402
from divcurl.disk import FarField  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def small_highmode():
    wl = workloads.DiskHighmode(K=16, M=801, points=256, per_kind=1)
    wl.prepare(seed=3, seconds=1.0)
    return wl


def test_highmode_requests_pass_at_small_size(small_highmode):
    for i in range(3):
        record = small_highmode.request(i)
        assert record.ok, record.errors
        assert record.latency > 0.0


def test_highmode_witness_counts_as_failed(small_highmode):
    grid = small_highmode.pool["far_field"][0].grid
    witness = inputs.witness_disk_problem(grid, small_highmode.K)
    record = small_highmode.execute(witness, "far_field", small_highmode.points[1])
    assert not record.ok
    assert any("inadmissible" in e for e in record.errors)


def test_traced_request_records_layers_and_restores_the_package(small_highmode):
    original = disk.solve_disk
    tracer = Tracer()
    record = small_highmode.request(2, tracer)  # no-slip: every spectral layer runs
    assert record.ok, record.errors
    names = {span[0] for span in tracer.spans}
    assert {"request", "disk.solve", "disk.sample", "moments.report", "norms.h1",
            "norms.l2", "stream.solve", "stream.velocity"} <= names
    assert tracer.counters["quadrature.at_calls"] > 0
    assert tracer.counters["disk.sample_points"] == 256
    assert disk.solve_disk is original
    assert quadrature.CumulativeIntegral.at is quadrature.CumulativeIntegral.__dict__["at"]
    covered = tracer.children_time(record.root_span)
    assert 0.5 * record.latency < covered <= record.latency


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0],
                    ["b", 5.0, 6.0, 0, 0]]
    self_times = tracer.self_times({0})
    assert self_times["a"] == [6.0]
    assert self_times["b"] == [2.0, 1.0]
    assert self_times["c"] == [1.0]


def test_crosscheck_requests_pass_and_witness_fails():
    wl = workloads.Crosscheck(per_kind=1)
    wl.prepare(seed=5, seconds=1.0)  # runs one disk and one Joukowski request
    tracer = Tracer()
    record = wl.request(1, tracer)
    assert record.ok, record.errors
    assert {"conformal.pullback", "presets.data_fn", "biot_savart.omega"} <= {
        span[0] for span in tracer.spans}
    witness = inputs.witness_disk_problem(inputs.cross_grid(), inputs.CROSS_K)
    bad = wl.execute_disk(witness)
    assert not bad.ok
    assert any("boundary trace" in e for e in bad.errors)


def test_ellipse_closed_form_matches_the_joukowski_oracle():
    rng = np.random.default_rng(0)
    p = rng.uniform(-4, 4, 200) + 1j * rng.uniform(-3, 3, 200)
    p = p[(p.real / 1.25) ** 2 + (p.imag / 0.75) ** 2 > 1.05]
    ours = workloads.ellipse_velocity(p)
    theirs = presets.ellipse_potential_velocity(p, 0.5, 1.0, FarField(1.0, 0.0))
    assert np.max(np.abs(ours - theirs)) < 1e-12


@pytest.mark.parametrize("in_process", [False, True])
def test_cli_witness_counts_as_failed(tmp_path, in_process):
    wl = workloads.CliConfigs(ROOT, str(tmp_path), in_process=in_process)
    cfg = inputs.write_witness_config(str(tmp_path))
    record = wl.execute("check-witness", ["check", "--config", cfg, "--strict",
                                          "--out", str(tmp_path / "out")])
    assert not record.ok
    assert "exit code 2" in record.errors[0]


def test_cli_checks_catch_wrong_and_changed_outputs(tmp_path):
    wl = workloads.CliConfigs(ROOT, str(tmp_path), in_process=True)
    out = tmp_path / "cyl"
    argv = ["solve", "--config", os.path.join(ROOT, "configs", "cylinder.cfg"), "--out", str(out)]
    assert wl.execute("solve-cylinder", argv).ok
    assert wl.execute("solve-cylinder", argv).ok  # byte-identical repeat
    dump = out / "field.csv"
    lines = dump.read_text().splitlines()
    x1, x2, v1, v2 = lines[5].split(",")
    lines[5] = ",".join([x1, x2, repr(float(v1) + 1e-6), v2])
    dump.write_text("\n".join(lines) + "\n")
    record = workloads.Record("tampered")
    wl._check_outputs(record, "solve-cylinder", str(out))
    assert any("byte-identical" in e for e in record.errors)
    record = workloads.Record("tampered")
    workloads._check_cylinder(record, str(out))
    assert any("closed form" in e for e in record.errors)


def test_benchmark_json_matches_the_reported_metrics():
    import json
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
