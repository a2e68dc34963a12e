"""Smoke runs of the experiment scripts at tiny sizes: they import library names."""

import pathlib
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


def test_cli_outputs_writes_every_run(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "cli_outputs.py"), "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    runs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
    assert len(runs) == 11 and "stream-vortex_patch" in runs and "oracle-vortex_patch" in runs
    for name in runs:
        assert any((tmp_path / name).iterdir()), name
        assert (tmp_path / f"{name}.stdout").exists() and (tmp_path / f"{name}.stderr").exists()
    assert (tmp_path / "oracle-vortex_patch" / "oracle_report.txt").exists()
