"""Batch front end: parse a problem file, check, solve, dump fields and norms.

The problem description is a plain INI-style text file (sections of key=value
pairs, see configs/ for examples).  Subcommands:

    check   compatibility report only
    solve   full solve: compatibility report, field dump, norms report
    norms   solve and write the norms/estimate-ratio report only
    oracle  direct Biot-Savart evaluation at listed points, next to the solver

Exit codes: 0 ok, 1 config error, 2 inadmissible data in --strict mode,
3 I/O failure.  Identical configs and inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from .biot_savart import biot_savart_disk
from .conformal import (ExteriorProblem, ExteriorSolution, identity_map, joukowski_map,
                        pullback_problem)
from .disk import DiskProblem, FarField, solve_disk
from .fieldio import fmt, interpolate_to_polar, load_gridded_samples, write_field_dump
from .grids import (BoundaryTrace, RadialGrid, SpectralField, analysis_angles, analyze,
                    equispaced_angles, smooth_bump)
from .moments import make_admissible, moment_report
from .norms import far_field_deviation_h1, h1_seminorm, h_half_boundary_norm, l2_weighted_norm
from .presets import modal_field, potential_slip_trace
from .stream import solve_stream, velocity_from_stream

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INADMISSIBLE = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "domain": {"kind": "disk", "r0": "1.0", "c": "0.5"},
    "grid": {"nodes": "400", "rmax": "12.0", "grading": "geometric", "ratio": "1.005"},
    "modes": {"k": "32"},
    "vorticity": {"preset": "zero"},
    "divergence": {"preset": "zero"},
    "boundary": {"preset": "zero"},
    "far_field": {"v1": "0.0", "v2": "0.0"},
    "solve": {"solver": "direct", "strict": "false", "make_admissible": "false",
              "k_c": "12", "tolerance": "1e-8"},
    "output": {"field": "polar", "nr": "24", "nphi": "48", "rout": "",
               "x1min": "-4.0", "x1max": "4.0", "n1": "33",
               "x2min": "-4.0", "x2max": "4.0", "n2": "33"},
    "norms": {"weight": "2.0"},
    "oracle": {"n_radial": "400", "n_angular": "256", "n_boundary": "512"},
}

def _read_config(path, overrides):
    """The parsed file with the command-line overrides set on it."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = configparser.ConfigParser()
    try:
        read = cfg.read(path)  # skips a path it cannot open
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not read:
        raise IOError(f"cannot read config {path}")
    for key, value in overrides.items():
        if value is not None:
            section, name = key.split(".")
            if not cfg.has_section(section):
                # a [DEFAULT] key reaches only the sections the file names
                cfg.read_dict({section: _DEFAULTS[section]})
            cfg.set(section, name, str(value))
    return cfg


def _value(cfg, section, key, default=None):
    """[section] key from the file (a [DEFAULT] key counts), else _DEFAULTS, else default."""
    try:
        if cfg.has_option(section, key):
            return cfg.get(section, key)
    except configparser.Error as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc
    value = _DEFAULTS.get(section, {}).get(key, default)
    if value is None:
        raise ConfigError(f"[{section}] preset requires key '{key}'")
    return value


def _float(cfg, section, key, default=None):
    text = _value(cfg, section, key, default)
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite")
    return value


def _int(cfg, section, key, default=None):
    text = _value(cfg, section, key, default)
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be an integer") from exc


def _count(cfg, section, key):
    value = _int(cfg, section, key)
    if value < 1:
        raise ConfigError(f"[{section}] {key} must be at least 1")
    return value


def _bool(cfg, section, key, default=None):
    text = str(_value(cfg, section, key, default)).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key} must be a boolean, got '{text}'")


def _settings(cfg):
    """The [solve], [output], [norms] and [oracle] values, read and checked before any output."""
    solver = _value(cfg, "solve", "solver")
    if solver not in ("direct", "stream"):
        raise ConfigError(f"[solve] solver must be direct or stream, got '{solver}'")
    field = _value(cfg, "output", "field")
    if field not in ("polar", "cartesian", "none"):
        raise ConfigError(f"[output] field must be polar, cartesian or none, got '{field}'")
    rout = _float(cfg, "output", "rout") if _value(cfg, "output", "rout") else None
    if rout is not None and rout < _float(cfg, "domain", "r0"):
        raise ConfigError("[output] rout must be at least r0")
    weight = _float(cfg, "norms", "weight")
    if weight < 0.0:
        raise ConfigError("[norms] weight must not be negative")
    rmax = _float(cfg, "grid", "rmax")
    with np.errstate(over="ignore"):
        if not np.isfinite(np.power(1.0 + rmax * rmax, weight)):
            raise ConfigError(f"[norms] weight {weight:g} overflows (1 + rmax^2)^weight "
                              f"at rmax = {rmax:g}")
    tolerance = _float(cfg, "solve", "tolerance")
    if tolerance < 0.0:
        raise ConfigError("[solve] tolerance must not be negative")
    return {
        "solver": solver,
        "tolerance": tolerance,
        "strict": _bool(cfg, "solve", "strict"),
        "field": field,
        "polar": (_count(cfg, "output", "nr"), _count(cfg, "output", "nphi"), rout),
        "x1": (_float(cfg, "output", "x1min"), _float(cfg, "output", "x1max"),
               _count(cfg, "output", "n1")),
        "x2": (_float(cfg, "output", "x2min"), _float(cfg, "output", "x2max"),
               _count(cfg, "output", "n2")),
        "weight": weight,
        "oracle": {key: _count(cfg, "oracle", key) for key in ("n_radial", "n_angular",
                                                                "n_boundary")},
    }


def _build_grid(cfg):
    r0 = _float(cfg, "domain", "r0")
    rmax = _float(cfg, "grid", "rmax")
    nodes = _int(cfg, "grid", "nodes")
    grading = _value(cfg, "grid", "grading")
    if r0 <= 0.0:
        raise ConfigError("[domain] r0 must be positive")
    if rmax <= r0:
        raise ConfigError("[grid] rmax must exceed r0")
    if nodes < 9:
        raise ConfigError("[grid] nodes must be at least 9")
    if grading not in ("uniform", "geometric"):
        raise ConfigError(f"[grid] grading must be uniform or geometric, got '{grading}'")
    ratio = _float(cfg, "grid", "ratio") if grading == "geometric" else None
    try:
        if ratio is None:
            return RadialGrid.uniform(r0, rmax, nodes)
        return RadialGrid.geometric(r0, rmax, nodes, ratio=ratio)
    except ValueError as exc:  # the library names no key: name the ones that share the blame
        keys = f"nodes = {nodes}" if ratio is None else f"nodes = {nodes}, ratio = {ratio}"
        raise ConfigError(f"{exc} ([grid] {keys})") from exc


def _build_map(cfg):
    kind = _value(cfg, "domain", "kind")
    if kind == "disk":
        return identity_map(_float(cfg, "domain", "r0"))
    if kind == "joukowski":
        try:
            return joukowski_map(_float(cfg, "domain", "c"), _float(cfg, "domain", "r0"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"[domain] kind must be disk or joukowski, got '{kind}'")


def _radial_window(r, lo, hi, taper):
    """C1 plateau window: 1 on [lo+taper, hi-taper], smoothstep edges, 0 outside."""
    r = np.asarray(r, dtype=float)
    up = np.clip((r - lo) / taper, 0.0, 1.0)
    down = np.clip((hi - r) / taper, 0.0, 1.0)
    return (3.0 - 2.0 * up) * up * up * (3.0 - 2.0 * down) * down * down


def _build_scalar_data(cfg, section, grid, K, m, notes):
    """(SpectralField, disk-frame callable or None) for one data section."""
    preset = _value(cfg, section, "preset")
    span = grid.rmax - grid.r0
    mapped = _value(cfg, "domain", "kind") != "disk"
    if preset == "zero":
        return SpectralField.zeros(grid, K), None
    if mapped and preset in ("annular_bump", "mode_bump"):
        notes.append(f"{section}: {preset} interpreted as the Jacobian-weighted "
                     "right-hand side in mapped (disk-frame) coordinates")
    if preset == "annular_bump":
        amp = _float(cfg, section, "amplitude", 1.0)
        lo = _float(cfg, section, "lo", grid.r0 + span / 3.0)
        hi = _float(cfg, section, "hi", grid.r0 + 2.0 * span / 3.0)
        field, fn = modal_field(grid, K, {0: lambda s: amp * smooth_bump(s, lo, hi)})
        return field, fn
    if preset == "mode_bump":
        k = _int(cfg, section, "mode", 1)
        if not 1 <= k <= K:
            raise ConfigError(f"[{section}] mode must lie in 1..K")
        amp = complex(_float(cfg, section, "re", 1.0), _float(cfg, section, "im", 0.0))
        lo = _float(cfg, section, "lo", grid.r0 + span / 3.0)
        hi = _float(cfg, section, "hi", grid.r0 + 2.0 * span / 3.0)
        field, fn = modal_field(grid, K, {
            k: lambda s: amp * smooth_bump(s, lo, hi),
            -k: lambda s: np.conj(amp) * smooth_bump(s, lo, hi),
        })
        return field, fn
    if preset == "gaussian_patch":
        x0 = _float(cfg, section, "x0")
        y0 = _float(cfg, section, "y0")
        sigma = _float(cfg, section, "sigma")
        amp = _float(cfg, section, "amplitude", 1.0)
        lo = _float(cfg, section, "lo", grid.r0 + 0.02 * span)
        hi = _float(cfg, section, "hi", grid.rmax - 0.02 * span)
        center = complex(x0, y0)
        taper = 0.1 * (hi - lo)

        def physical(points):
            p = np.asarray(points, dtype=complex)
            return amp * np.exp(-np.abs(p - center) ** 2 / (2.0 * sigma**2)) \
                * _radial_window(np.abs(p), lo, hi, taper)

        if mapped:
            notes.append(f"{section}: gaussian_patch interpreted in physical coordinates "
                         "and pulled back with the map Jacobian")
        pulled = pullback_problem(ExteriorProblem(m, grid, K, **{f"{section}_fn": physical}))
        return getattr(pulled, section), getattr(pulled, f"{section}_fn")
    if preset == "file":
        if mapped:
            raise ConfigError(f"[{section}] file ingestion is only supported on disk domains")
        path = _value(cfg, section, "path")
        try:
            samples = load_gridded_samples(path)
        except OSError as exc:
            raise IOError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        values, report = interpolate_to_polar(samples, grid.nodes, analysis_angles(K))
        notes.append(f"{section}: interpolated {path} "
                     f"(outside points zeroed: {report['outside_points']}, "
                     f"interpolation error estimate: {report['interpolation_error_estimate']:.3e})")
        return analyze(grid, values, K), None
    raise ConfigError(f"[{section}] unknown preset '{preset}'")


def _parse_coefficients(text, K):
    radial = {}
    tangential = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 5:
            raise ConfigError("[boundary] coefficients entries must be "
                              "'k,gr_re,gr_im,gphi_re,gphi_im'")
        try:
            k, values = int(parts[0]), [float(part) for part in parts[1:]]
        except ValueError as exc:
            raise ConfigError(f"[boundary] coefficients entry '{chunk}' must be numbers") from exc
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"[boundary] coefficients entry '{chunk}' must be finite")
        if abs(k) > K:
            raise ConfigError(f"[boundary] coefficients mode {k} outside |k| <= {K}")
        radial[k] = complex(values[0], values[1])
        tangential[k] = complex(values[2], values[3])
    for k in [k for k in radial if k > 0 and -k not in radial]:
        radial[-k] = np.conj(radial[k])
        tangential[-k] = np.conj(tangential[k])
    return radial, tangential


def _build_boundary(cfg, K, far, notes):
    preset = _value(cfg, "boundary", "preset")
    if preset == "zero":
        return BoundaryTrace.zeros(K)
    if preset == "potential_slip":
        return potential_slip_trace(K, far)
    if preset == "coefficients":
        radial, tangential = _parse_coefficients(_value(cfg, "boundary", "coefficients"), K)
        return BoundaryTrace.from_coeffs(K, radial=radial, tangential=tangential)
    raise ConfigError(f"[boundary] unknown preset '{preset}'")


def build_problem(cfg):
    """Resolve the config into (disk-frame problem, map, notes); the disk is the identity map."""
    notes = []
    grid = _build_grid(cfg)
    m = _build_map(cfg)
    K = _int(cfg, "modes", "k")
    if K < 1:
        raise ConfigError("[modes] k must be at least 1")
    far = FarField(_float(cfg, "far_field", "v1"), _float(cfg, "far_field", "v2"))
    w, w_fn = _build_scalar_data(cfg, "vorticity", grid, K, m, notes)
    rho, rho_fn = _build_scalar_data(cfg, "divergence", grid, K, m, notes)
    g = _build_boundary(cfg, K, far, notes)
    mapped = _value(cfg, "domain", "kind") != "disk"
    if mapped and _value(cfg, "boundary", "preset") != "zero":
        notes.append("boundary: trace specified in mapped (disk-frame) coordinates")

    if _bool(cfg, "solve", "make_admissible"):
        k_c = _int(cfg, "solve", "k_c")
        if not 0 <= k_c <= K:
            raise ConfigError("[solve] k_c must lie in 0..K")
        w = make_admissible(w, rho, g, far, k_c)
        w_fn = None
        notes.append(f"vorticity projected onto the admissible set for k <= {k_c}")
    problem = DiskProblem(w, rho, g, far, vorticity_fn=w_fn, divergence_fn=rho_fn)
    return problem, m, notes


def _solve(settings, problem):
    tol = settings["tolerance"]
    if settings["solver"] == "direct":
        return solve_disk(problem, warn_tolerance=tol)
    if float(np.max(np.abs(problem.divergence.coeffs))) > 1e-14:
        raise ConfigError("stream solver requires solenoidal data (zero divergence)")
    trace_mag = max(float(np.max(np.abs(problem.boundary.g_r))),
                    float(np.max(np.abs(problem.boundary.g_phi))))
    if trace_mag > 1e-14:
        raise ConfigError("stream solver requires the no-slip boundary (zero trace)")
    psi = solve_stream(problem.vorticity, problem.far_field, warn_tolerance=tol)
    solution = velocity_from_stream(psi)
    return replace(solution, report=moment_report(problem, tolerance=tol))


def _write_text(path, lines):
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _report_header(cfg, notes):
    """Every built-in key and every key of the data sections the file names, then the notes."""
    keys = [(section, key) for section, names in _DEFAULTS.items() for key in names]
    keys += [(section, key) for section in ("vorticity", "divergence", "boundary")
             if cfg.has_section(section) for key in cfg.options(section)]
    values = {f"{section}.{key}": _value(cfg, section, key) for section, key in keys}
    lines = ["# divcurl report"]
    lines.extend(f"# {key} = {values[key]}" for key in sorted(values))
    lines.extend(f"# note: {note}" for note in notes)
    return lines


def _dump_field(settings, field, out_dir, notes):
    mode = settings["field"]
    if mode == "none":
        return
    grid = field.disk_solution.grid
    if mode == "polar":
        nr, nphi, rout = settings["polar"]
        radii = np.linspace(grid.r0, grid.rmax if rout is None else min(rout, grid.rmax), nr)
        angles = equispaced_angles(nphi)
        rr, pp = np.meshgrid(radii, angles, indexing="ij")
        # sampled from the disk plane: on the slit (c = r0) Phi(Phi^-1(z)) != z
        z = (rr * np.exp(1j * pp)).ravel()
        points = field.map.inverse(z)
        sampled = np.ones(z.shape, dtype=bool)
    else:
        x1, x2 = np.linspace(*settings["x1"]), np.linspace(*settings["x2"])
        xx, yy = np.meshgrid(x1, x2, indexing="ij")
        points = (xx + 1j * yy).ravel()
        z = field.map.forward(points)
        sampled = np.abs(z) <= grid.rmax
    velocities = np.full(points.shape, complex(np.nan, np.nan))
    velocities[sampled] = field.sample_image(z[sampled])
    singular = np.count_nonzero(field.map.singular(z[sampled]))
    path = os.path.join(out_dir, "field.csv")
    try:
        write_field_dump(path, points, velocities)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc
    notes.append("field dump written to field.csv")
    if singular:
        notes.append(f"{singular} field points lie at singular points of the map "
                     "((Phi^-1)' = 0) and are marked NaN")


def _write_norms(cfg, settings, problem, solution, out_dir, notes):
    weight = settings["weight"]
    g_norm = h_half_boundary_norm(problem.boundary)
    w_l2 = l2_weighted_norm(problem.vorticity, 0.0)
    rho_l2 = l2_weighted_norm(problem.divergence, 0.0)
    w_l2n = l2_weighted_norm(problem.vorticity, weight)
    rho_l2n = l2_weighted_norm(problem.divergence, weight)
    grad = h1_seminorm(solution)
    dev = far_field_deviation_h1(solution)
    den1 = w_l2 + rho_l2 + g_norm
    den2 = w_l2n + rho_l2n + g_norm
    lines = _report_header(cfg, notes)
    if not solution.report.admissible:
        lines.append("# note: data is inadmissible, H1 quantities depend on rmax "
                     "(infinite-energy 1/r tail)")
    lines.append("quantity,value")
    lines.append(f"grad_v_l2,{fmt(grad)}")
    lines.append(f"v_minus_vinf_h1,{fmt(dev)}")
    lines.append(f"g_h_half,{fmt(g_norm)}")
    lines.append(f"w_l2,{fmt(w_l2)}")
    lines.append(f"rho_l2,{fmt(rho_l2)}")
    lines.append(f"w_l2_weighted,{fmt(w_l2n)}")
    lines.append(f"rho_l2_weighted,{fmt(rho_l2n)}")
    lines.append(f"weight_exponent,{fmt(weight)}")
    lines.append(f"theorem1_ratio,{fmt(grad / den1) if den1 > 0 else 'nan'}")
    lines.append(f"theorem2_ratio,{fmt(dev / den2) if den2 > 0 else 'nan'}")
    _write_text(os.path.join(out_dir, "norms_report.txt"), lines)


def _write_compat(cfg, report, out_dir, notes):
    lines = _report_header(cfg, notes)
    lines.append(report.to_text().rstrip("\n"))
    _write_text(os.path.join(out_dir, "compat_report.txt"), lines)


def _prepare(args):
    overrides = {
        "modes.k": args.modes,
        "grid.nodes": args.grid_nodes,
        "grid.rmax": args.rmax,
        "solve.solver": args.solver,
    }
    if args.strict:
        overrides["solve.strict"] = "true"
    cfg = _read_config(args.config, overrides)
    settings = _settings(cfg)
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IOError(f"cannot create output directory {out_dir}: {exc}") from exc
    return cfg, settings, out_dir


def cmd_check(args):
    cfg, settings, out_dir = _prepare(args)
    problem, _, notes = build_problem(cfg)
    report = moment_report(problem, tolerance=settings["tolerance"])
    _write_compat(cfg, report, out_dir, notes)
    if settings["strict"] and not report.admissible:
        return EXIT_INADMISSIBLE
    return EXIT_OK


def cmd_solve(args, norms_only=False):
    cfg, settings, out_dir = _prepare(args)
    problem, m, notes = build_problem(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        solution = _solve(settings, problem)
    if not norms_only:
        _write_compat(cfg, solution.report, out_dir, notes)
        _dump_field(settings, ExteriorSolution(solution, m), out_dir, notes)
    _write_norms(cfg, settings, problem, solution, out_dir, notes)
    if settings["strict"] and not solution.report.admissible:
        return EXIT_INADMISSIBLE
    return EXIT_OK


def _parse_points(args):
    points = []
    if args.points:
        for chunk in args.points.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(",")
            try:
                x1, x2 = (float(part) for part in parts)
            except ValueError as exc:
                raise ConfigError(f"--points entry '{chunk}' must be 'x1,x2'") from exc
            if not (np.isfinite(x1) and np.isfinite(x2)):
                raise ConfigError(f"--points entry '{chunk}' must be finite")
            points.append(complex(x1, x2))
    if args.points_file:
        try:
            raw = np.loadtxt(args.points_file, delimiter=",", skiprows=1, ndmin=2)
        except OSError as exc:
            raise IOError(f"cannot read {args.points_file}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"--points-file {args.points_file}: {exc}") from exc
        if len(raw) and raw.shape[1] < 2:
            raise ConfigError(f"--points-file {args.points_file}: expected columns x1,x2, "
                              f"got {raw.shape[1]}")
        if not np.all(np.isfinite(raw[:, :2])):
            raise ConfigError(f"--points-file {args.points_file}: coordinates must be finite")
        points.extend(complex(a, b) for a, b in raw[:, :2])
    if not points:
        raise ConfigError("oracle needs --points or --points-file")
    return np.array(points, dtype=complex)


def cmd_oracle(args):
    cfg, settings, out_dir = _prepare(args)
    problem, m, notes = build_problem(cfg)
    points = _parse_points(args)
    field = ExteriorSolution(_solve(settings, problem), m)
    solver = field.sample(points)
    z = m.forward(points)
    oracle = m.pushforward(z, biot_savart_disk(z, problem, **settings["oracle"]))

    lines = _report_header(cfg, notes)
    lines.append("x1,x2,v1_solver,v2_solver,v1_oracle,v2_oracle,abs_diff")
    for p, v_solver, v_oracle in zip(points, solver, oracle):
        lines.append(
            f"{fmt(p.real)},{fmt(p.imag)},{fmt(v_solver.real)},{fmt(v_solver.imag)},"
            f"{fmt(v_oracle.real)},{fmt(v_oracle.imag)},{fmt(abs(v_solver - v_oracle))}"
        )
    _write_text(os.path.join(out_dir, "oracle_report.txt"), lines)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="divcurl",
                                     description="exterior div-curl spectral solver")
    parser.add_argument("command", choices=["check", "solve", "norms", "oracle"])
    parser.add_argument("--config", required=True, help="problem description file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 when the data is inadmissible")
    parser.add_argument("--solver", choices=["direct", "stream"], default=None)
    parser.add_argument("--modes", type=int, default=None, help="override mode band K")
    parser.add_argument("--grid-nodes", type=int, default=None)
    parser.add_argument("--rmax", type=float, default=None)
    parser.add_argument("--points", default=None, help="oracle points 'x1,x2;x1,x2'")
    parser.add_argument("--points-file", default=None, help="CSV of oracle points")
    args = parser.parse_args(argv)

    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "norms":
            return cmd_solve(args, norms_only=True)
        return cmd_oracle(args)
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    raise SystemExit(main())
