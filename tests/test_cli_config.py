"""How the CLI reads its problem file: report headers, overrides and config errors."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from divcurl.cli import EXIT_CONFIG, EXIT_IO, main

HEADERS = pathlib.Path(__file__).with_name("cli_headers.json")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# [DEFAULT] keys reach only the sections the file names: rmax and amplitude
# apply, weight does not ([norms] is not named)
DEFAULT_SECTION = """
[DEFAULT]
rmax = 9.0
amplitude = 0.5
weight = 3.0

[grid]
nodes = 120
grading = uniform

[modes]
k = 4

[vorticity]
preset = annular_bump
lo = 2.0
hi = 4.0

[output]
field = none
"""

# option names are case-insensitive; unknown keys are echoed in data sections only
UNKNOWN_AND_UPPER = """
[grid]
NODES = 150
Grading = uniform
unknown = 1

[modes]
K = 3

[boundary]
preset = potential_slip
Extra = yes

[far_field]
v1 = 1.0

[output]
field = none
"""

# no [grid] or [solve] section: an override fills the section with the
# built-in defaults, which the file's [DEFAULT] does not change
OVERRIDES = """
[DEFAULT]
rmax = 20.0
tolerance = 1e-6

[boundary]
preset = potential_slip

[far_field]
v1 = 1.0

[output]
field = none
"""

INADMISSIBLE = "[far_field]\nv1 = 1.0\n[output]\nfield = none\n"

CASES = {
    "default_section": (DEFAULT_SECTION, ["solve"]),
    "unknown_and_upper": (UNKNOWN_AND_UPPER, ["check"]),
    "every_override": (OVERRIDES, ["solve", "--modes", "5", "--grid-nodes", "130",
                                   "--rmax", "9.5", "--solver", "direct", "--strict"]),
    "one_override": (OVERRIDES, ["check", "--grid-nodes", "130"]),
    "strict_inadmissible": (INADMISSIBLE, ["check", "--strict", "--modes", "3"]),
}


def run_case(tmp_path, name):
    """(exit code, {report file: its '#' header lines}) of one case."""
    text, argv = CASES[name]
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / name
    code = main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
    headers = {}
    for report in sorted(os.listdir(out)):
        lines = (out / report).read_text().splitlines()
        headers[report] = "\n".join(line for line in lines if line.startswith("#"))
    return code, headers


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_headers_are_pinned(tmp_path, name):
    # cli_headers.json pins each case's exit code and report headers; it was
    # written once and is not regenerated from the code under test
    expected = json.loads(HEADERS.read_text())[name]
    if name == "default_section":  # its data carry a circulation: the solve says so
        with pytest.warns(UserWarning, match="k = 0 moment"):
            code, headers = run_case(tmp_path, name)
    else:
        code, headers = run_case(tmp_path, name)
    assert code == expected["exit"]
    assert headers == expected["headers"]


@pytest.mark.parametrize("lines, message", [
    (["preset = mode_bump", "mode = two"], "[vorticity] mode must be an integer"),
    (["preset = annular_bump", "amplitude = big"], "[vorticity] amplitude must be a number"),
    (["preset = gaussian_patch", "x0 = 2.0", "sigma = 0.5"],
     "[vorticity] preset requires key 'y0'"),
    (["preset = gaussian_patch", "x0 = 2.0", "y0 = ", "sigma = 0.5"],
     "[vorticity] y0 must be a number"),
])
def test_bad_preset_values_name_their_key(tmp_path, capsys, lines, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[vorticity]\n" + "\n".join(lines) + "\n")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("text", ["[grid]\nnodes = 1%\n", "[grid]\nnodes = %(missing)s\n"])
def test_percent_in_a_value_is_a_config_error(tmp_path, text):
    cfg = tmp_path / "pct.cfg"
    cfg.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-c", "from divcurl.cli import entry; entry()", "check",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("config error: [grid] nodes")
    assert "Traceback" not in proc.stderr


def test_interpolation_stays_on(tmp_path):
    cfg = tmp_path / "interp.cfg"
    cfg.write_text("[grid]\nnodes = %(base)s0\nbase = 15\ngrading = uniform\n"
                   "[modes]\nk = 2\n[output]\nfield = none\n")
    out = tmp_path / "out"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
    assert "# grid.nodes = 150\n" in (out / "compat_report.txt").read_text()


SMALL = "[grid]\nnodes = 120\ngrading = uniform\n[modes]\nk = 4\n"


@pytest.mark.parametrize("text, key", [
    ("[output]\nrout = far\n", "[output] rout"),
    ("[boundary]\npreset = coefficients\ncoefficients = 1,a,0,0,0\n", "[boundary] coefficients"),
    ("[norms]\nweight = -1\n", "[norms] weight"),
    ("[output]\nnr = -2\n", "[output] nr"),
    ("[solve]\nmake_admissible = true\nk_c = -3\n", "[solve] k_c"),
    ("[output]\nrout = 0.5\n", "[output] rout"),
    ("[output]\nfield = grid\n", "[output] field"),
    ("[oracle]\nn_radial = 0\n", "[oracle] n_radial"),
    ("[domain]\nr0 = inf\n", "[domain] r0"),
    ("[norms]\nweight = 300\n", "[norms] weight"),
    ("[solve]\ntolerance = -1e-8\n", "[solve] tolerance"),
])
def test_bad_values_fail_before_any_output(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL + text)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("option, points", [
    ("--points", "1,a"), ("--points", "1"), ("--points", "1,2,3"),
    ("--points-file", "x1\n1.0\n2.0\n"),
    ("--points", "nan,2;2,inf"), ("--points-file", "x1,x2\n2.0,1.0\n2.0,inf\n"),
], ids=["1,a", "1", "1,2,3", "one-column-file", "non-finite", "non-finite-file"])
def test_bad_points_name_the_option(tmp_path, capsys, option, points):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL)
    out = tmp_path / "out"
    if option == "--points-file":
        path = tmp_path / "points.csv"
        path.write_text(points)
        points = str(path)
    assert main(["oracle", "--config", str(cfg), "--out", str(out), f"{option}={points}"]) \
        == EXIT_CONFIG
    assert option in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_steep_geometric_grid_fails_before_any_output(tmp_path, capsys):
    # ratio**(nodes - 1) overflows: a config error, not a traceback
    cfg = tmp_path / "steep.cfg"
    cfg.write_text("[grid]\nnodes = 2000\ngrading = geometric\nratio = 2.0\n[modes]\nk = 4\n")
    out = tmp_path / "out"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: panel ratio 2.0 overflows" in err
    assert "([grid] nodes = 2000, ratio = 2.0)" in err
    assert not out.exists() or not any(out.iterdir())


def test_a_config_that_cannot_be_read_is_an_io_error(tmp_path, capsys):
    # configparser skips a path it cannot open: a directory must not be read
    # as the all-default problem
    folder = tmp_path / "configs"
    folder.mkdir()
    out = tmp_path / "out"
    assert main(["check", "--config", str(folder), "--out", str(out)]) == EXIT_IO
    assert f"i/o error: cannot read config {folder}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
