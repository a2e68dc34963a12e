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
