import os
import pathlib
import warnings

import numpy as np
import pytest

from divcurl.cli import EXIT_CONFIG, EXIT_INADMISSIBLE, EXIT_IO, EXIT_OK, main
from divcurl.disk import FarField
from divcurl.presets import ellipse_potential_velocity

from helpers import cylinder_flow

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

CYLINDER = """
[domain]
kind = disk
r0 = 1.0

[grid]
nodes = 240
rmax = 10.0
grading = uniform

[modes]
k = 4

[boundary]
preset = potential_slip

[far_field]
v1 = 1.0
v2 = 0.0

[output]
field = polar
nr = 6
nphi = 8
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def read_field(path):
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return raw[:, 0] + 1j * raw[:, 1], raw[:, 2] + 1j * raw[:, 3]


def test_cylinder_preset_end_to_end(tmp_path):
    cfg = write(tmp_path / "cyl.cfg", CYLINDER)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK

    compat = open(os.path.join(out, "compat_report.txt")).read()
    assert "admissible,true" in compat
    for line in compat.splitlines():
        if line.startswith("1,"):
            assert float(line.split(",")[3]) < 1e-12

    points, velocities = read_field(os.path.join(out, "field.csv"))
    exact = cylinder_flow(points)
    assert np.max(np.abs(velocities - exact)) < 1e-10

    norms = open(os.path.join(out, "norms_report.txt")).read()
    assert "theorem1_ratio" in norms and "g_h_half,2" in norms


def test_zero_data_solve(tmp_path):
    cfg = write(tmp_path / "zero.cfg", "[output]\nfield = polar\nnr = 4\nnphi = 4\n")
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    _, velocities = read_field(os.path.join(out, "field.csv"))
    assert np.max(np.abs(velocities)) == 0.0


def test_strict_inadmissible_exit_code(tmp_path):
    cfg = write(tmp_path / "bad.cfg", "[far_field]\nv1 = 1.0\n")
    out = str(tmp_path / "out")
    assert main(["check", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["check", "--config", cfg, "--out", out, "--strict"]) == EXIT_INADMISSIBLE
    compat = open(os.path.join(out, "compat_report.txt")).read()
    for line in compat.splitlines():
        if line.startswith("1,"):
            parts = line.split(",")
            assert abs(float(parts[1])) < 1e-14
            assert abs(float(parts[2]) + 1.0) < 1e-14  # residual -i v with v = 1
    with pytest.warns(UserWarning):
        assert main(["solve", "--config", cfg, "--out", out, "--strict"]) == EXIT_INADMISSIBLE


def test_config_errors(tmp_path):
    out = str(tmp_path / "out")
    assert main(["check", "--config", str(tmp_path / "nope.cfg"), "--out", out]) == EXIT_CONFIG
    bad = write(tmp_path / "bad.cfg", "[grid]\nnodes = few\n")
    assert main(["check", "--config", bad, "--out", out]) == EXIT_CONFIG
    bad2 = write(tmp_path / "bad2.cfg", "[vorticity]\npreset = nonsense\n")
    assert main(["check", "--config", bad2, "--out", out]) == EXIT_CONFIG
    bad3 = write(tmp_path / "bad3.cfg", "[solve]\nsolver = stream\n[divergence]\n"
                 "preset = annular_bump\namplitude = 1.0\n")
    assert main(["solve", "--config", bad3, "--out", out]) == EXIT_CONFIG


def test_io_error_exit_code(tmp_path):
    cfg = write(tmp_path / "ok.cfg", "[output]\nfield = none\n")
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["check", "--config", cfg, "--out", str(blocker)]) == EXIT_IO


def test_deterministic_outputs(tmp_path):
    cfg = write(tmp_path / "det.cfg", CYLINDER + "\n[vorticity]\npreset = annular_bump\n"
                "amplitude = 0.3\nlo = 2.0\nhi = 5.0\n")
    out1 = str(tmp_path / "o1")
    out2 = str(tmp_path / "o2")
    with pytest.warns(UserWarning):
        assert main(["solve", "--config", cfg, "--out", out1]) == EXIT_OK
    with pytest.warns(UserWarning):
        assert main(["solve", "--config", cfg, "--out", out2]) == EXIT_OK
    for name in ("compat_report.txt", "field.csv", "norms_report.txt"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b


def test_make_admissible_flow(tmp_path):
    cfg = write(tmp_path / "adm.cfg", """
[grid]
nodes = 600
rmax = 10.0
grading = uniform

[modes]
k = 8

[vorticity]
preset = mode_bump
mode = 2
re = 1.0
im = 0.5
lo = 2.0
hi = 5.0

[solve]
make_admissible = true
k_c = 8
""")
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out, "--strict"]) == EXIT_OK
    compat = open(os.path.join(out, "compat_report.txt")).read()
    assert "admissible,true" in compat
    assert "projected onto the admissible set" in compat


def test_stream_solver_matches_direct(tmp_path):
    body = """
[grid]
nodes = 800
rmax = 10.0
grading = uniform

[modes]
k = 6

[vorticity]
preset = mode_bump
mode = 1
re = 0.8
im = 0.0
lo = 2.0
hi = 5.0

[far_field]
v1 = 0.7

[solve]
make_admissible = true
k_c = 6

[output]
field = polar
nr = 5
nphi = 8
"""
    cfg = write(tmp_path / "s.cfg", body)
    out_d = str(tmp_path / "direct")
    out_s = str(tmp_path / "stream")
    assert main(["solve", "--config", cfg, "--out", out_d]) == EXIT_OK
    assert main(["solve", "--config", cfg, "--out", out_s, "--solver", "stream"]) == EXIT_OK
    _, vd = read_field(os.path.join(out_d, "field.csv"))
    _, vs = read_field(os.path.join(out_s, "field.csv"))
    assert np.max(np.abs(vd - vs)) < 1e-9


def test_stream_solver_on_mapped_domain(tmp_path):
    # the reduction runs on the mapped disk: same field as the direct path
    body = """
[domain]
kind = joukowski
r0 = 1.0
c = 0.4

[grid]
nodes = 600
rmax = 9.0
grading = uniform

[modes]
k = 6

[vorticity]
preset = mode_bump
mode = 1
re = 0.6
im = 0.2
lo = 2.0
hi = 5.0

[solve]
make_admissible = true
k_c = 6

[output]
field = cartesian
x1min = -5.0
x1max = 5.0
n1 = 11
x2min = -4.0
x2max = 4.0
n2 = 9
"""
    cfg = write(tmp_path / "js.cfg", body)
    out_d = str(tmp_path / "direct")
    out_s = str(tmp_path / "stream")
    assert main(["solve", "--config", cfg, "--out", out_d]) == EXIT_OK
    assert main(["solve", "--config", cfg, "--out", out_s, "--solver", "stream"]) == EXIT_OK
    _, vd = read_field(os.path.join(out_d, "field.csv"))
    _, vs = read_field(os.path.join(out_s, "field.csv"))
    finite = np.isfinite(vd.real)
    assert np.array_equal(finite, np.isfinite(vs.real))
    assert np.max(np.abs(vd[finite] - vs[finite])) < 1e-9


def test_joukowski_cartesian_dump_marks_solid(tmp_path):
    cfg = write(tmp_path / "j.cfg", """
[domain]
kind = joukowski
r0 = 1.0
c = 0.5

[grid]
nodes = 200
rmax = 8.0

[modes]
k = 4

[boundary]
preset = potential_slip

[far_field]
v1 = 1.0

[output]
field = cartesian
x1min = -3.0
x1max = 3.0
n1 = 13
x2min = -2.0
x2max = 2.0
n2 = 9
""")
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    points, velocities = read_field(os.path.join(out, "field.csv"))
    inside = np.isnan(velocities.real)
    assert np.any(inside)  # the ellipse interior is marked
    # all marked points really are inside the ellipse (semi-axes 1.25, 0.75)
    p = points[inside]
    assert np.all((p.real / 1.25) ** 2 + (p.imag / 0.75) ** 2 < 1.0 + 1e-9)


def test_oracle_subcommand(tmp_path):
    cfg = write(tmp_path / "o.cfg", CYLINDER)
    out = str(tmp_path / "out")
    assert main(["oracle", "--config", cfg, "--out", out,
                 "--points", "2.0,0.5;-1.5,1.0"]) == EXIT_OK
    lines = [l for l in open(os.path.join(out, "oracle_report.txt"))
             if l and not l.startswith("#")]
    rows = [l for l in lines if "," in l and not l.startswith("x1")]
    assert len(rows) == 2
    for row in rows:
        assert float(row.strip().split(",")[-1]) < 1e-10
    assert main(["oracle", "--config", cfg, "--out", out]) == EXIT_CONFIG


JOUKOWSKI_SLIP = """
[domain]
kind = joukowski
r0 = 1.0
c = 0.5

[grid]
nodes = 200
rmax = 8.0

[modes]
k = 4

[boundary]
preset = potential_slip

[far_field]
v1 = 1.0
v2 = 0.4

[output]
field = polar
nr = 7
nphi = 12
"""


def test_joukowski_polar_dump_matches_ellipse_flow(tmp_path):
    # the polar lattice lies in the disk plane; its dump is the physical field at Phi^-1(z)
    cfg = write(tmp_path / "j.cfg", JOUKOWSKI_SLIP)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    points, velocities = read_field(os.path.join(out, "field.csv"))
    assert points.size == 7 * 12
    exact = ellipse_potential_velocity(points, 0.5, 1.0, FarField(1.0, 0.4))
    assert np.max(np.abs(velocities - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_joukowski_slit_polar_dump_marks_the_tips(tmp_path):
    # on the slit (c = r0) (Phi^-1)' vanishes at z = +-r0, the slit tips (+-2, 0):
    # those rows are NaN, without a warning, and the report counts them
    text = (JOUKOWSKI_SLIP.replace("c = 0.5", "c = 1.0")
            .replace("nr = 7", "nr = 8").replace("nphi = 12", "nphi = 16"))
    cfg = write(tmp_path / "s.cfg", text)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    points, velocities = read_field(os.path.join(out, "field.csv"))
    assert points.size == 8 * 16
    tips = (np.abs(np.abs(points.real) - 2.0) < 1e-12) & (np.abs(points.imag) < 1e-12)
    assert np.count_nonzero(tips) == 2
    assert np.all(np.isnan(velocities.real[tips])) and np.all(np.isnan(velocities.imag[tips]))
    assert np.all(np.isfinite(velocities[~tips]))
    norms = open(os.path.join(out, "norms_report.txt")).read()
    assert "# note: 2 field points lie at singular points of the map" in norms


def test_oracle_subcommand_on_joukowski(tmp_path):
    cfg = write(tmp_path / "j.cfg", JOUKOWSKI_SLIP)
    out = str(tmp_path / "out")
    assert main(["oracle", "--config", cfg, "--out", out,
                 "--points", "2.0,0.5;-1.5,1.0;0.3,1.2;3.0,-3.0"]) == EXIT_OK
    rows = [l.strip().split(",") for l in open(os.path.join(out, "oracle_report.txt"))
            if l[0].isdigit() or l[0] == "-"]
    assert len(rows) == 4
    values = np.array(rows, dtype=float)
    assert np.all(np.isfinite(values))
    assert np.all(values[:, -1] <= 1e-10)


def test_malformed_sample_file_is_config_error(tmp_path):
    data_path = tmp_path / "bad.csv"
    data_path.write_text("r,phi,value\n1.0,0.0,1.0\n2.0,1.0,1.0\n2.0,2.0,1.0\n")
    cfg = write(tmp_path / "f.cfg", f"[vorticity]\npreset = file\npath = {data_path}\n")
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG


@pytest.mark.parametrize("rows, message", [
    ("1.0,0.0,1.0\n1.0,1.0,nan\n2.0,0.0,1.0\n2.0,1.0,1.0\n", "non-finite number in data row 2"),
    ("1.0,0.0,1.0\n1.0,1.0,2.0\n1.0,2.0,1.0\n",
     "the lattice needs at least 2 values of r and of phi"),
], ids=["nan-value", "one-radius"])
def test_bad_sample_lattice_names_the_file(tmp_path, capsys, rows, message):
    data_path = tmp_path / "bad.csv"
    data_path.write_text("r,phi,value\n" + rows)
    cfg = write(tmp_path / "f.cfg", f"[vorticity]\npreset = file\npath = {data_path}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no interpolation runs on the bad lattice
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"{data_path}: {message}" in capsys.readouterr().err


def test_gridded_file_ingestion(tmp_path):
    # write a polar sample file of a radial bump and ingest it
    r = np.linspace(1.0, 8.0, 120)
    phi = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    lines = ["r,phi,value"]
    for ri in r:
        for pj in phi:
            val = np.exp(-((ri - 3.0) ** 2)) * (1.0 + 0.2 * np.cos(pj))
            lines.append(f"{ri},{pj},{val}")
    data_path = tmp_path / "w.csv"
    data_path.write_text("\n".join(lines) + "\n")

    cfg = write(tmp_path / "f.cfg", f"""
[grid]
nodes = 300
rmax = 8.0
grading = uniform

[modes]
k = 4

[vorticity]
preset = file
path = {data_path}

[output]
field = none
""")
    out = str(tmp_path / "out")
    with pytest.warns(UserWarning):
        assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    compat = open(os.path.join(out, "compat_report.txt")).read()
    assert "interpolation error estimate" in compat


def test_check_solve_and_stream_report_the_same_moments(tmp_path):
    # all three read b_k(r0) off one suffix kernel, so the reports agree below the header
    cfg = str(CONFIGS / "vortex_patch.cfg")
    reports = []
    for argv in (["check"], ["solve"], ["solve", "--solver", "stream"]):
        out = tmp_path / "-".join(argv)
        assert main([argv[0], "--config", cfg, "--out", str(out), *argv[1:]]) == EXIT_OK
        lines = (out / "compat_report.txt").read_text().splitlines()
        reports.append([line for line in lines if not line.startswith("#")])
    assert reports[0] == reports[1] == reports[2]


def test_a_negative_tolerance_is_a_config_error(tmp_path, capsys):
    # it read admissible data as inadmissible: check --strict exited 2
    text = (CONFIGS / "cylinder.cfg").read_text() + "\n[solve]\ntolerance = -1e-8\n"
    cfg = write(tmp_path / "cylinder.cfg", text)
    out = str(tmp_path / "out")
    assert main(["check", "--config", cfg, "--out", out, "--strict"]) == EXIT_CONFIG
    assert "[solve] tolerance" in capsys.readouterr().err
