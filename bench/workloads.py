"""The benchmark workloads: seeded inputs, one request each, and its checks.

Every workload is a single-client closed loop.  request(i) runs the i-th
request, times only the calls into divcurl, and then checks the outputs;
a request that raises or fails a check comes back with errors and counts as
failed.  With a tracer the same request runs with divcurl patched for spans.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

import inputs
from divcurl import biot_savart, cli, conformal, disk, moments, norms, stream

ADMISSIBLE_TOL = 1e-8  # moment report tolerance
TRACE_TOL = 1e-10  # computed boundary trace vs prescribed, relative
STREAM_TOL = 1e-8  # stream vs direct path, acceptance criterion 7
ORACLE_TOL = 1e-6  # spectral vs Biot-Savart, acceptance criterion 3
CYLINDER_TOL = 1e-10
ELLIPSE_TOL = 1e-6
# criterion 3 oracle lattice (radial x angular) on the data support
ORACLE_KWARGS = {"n_radial": 160, "n_angular": 256, "support": inputs.CROSS_SUPPORT}
SINGULAR_MAP_TOL = 1e-6  # |(Phi^-1)'| below this marks a singular map point


@dataclass
class Record:
    """Outcome of one request."""

    kind: str
    latency: float = math.nan
    errors: list = field(default_factory=list)
    warnings: dict = field(default_factory=dict)
    nonfinite: int = 0
    max_rel_err: float = 0.0
    root_span: int = -1  # index of the traced request span, -1 when untraced

    def fail(self, message):
        self.errors.append(message)

    @property
    def ok(self):
        return not self.errors


def _run(record, program, tracer=None, request_id=None):
    """Time program() (the calls into divcurl only), capturing its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if tracer is None:
                start = time.perf_counter()
                out = program()
                record.latency = time.perf_counter() - start
            else:
                with tracer.active(request_id), tracer.span("request") as root:
                    start = time.perf_counter()
                    out = program()
                    record.latency = time.perf_counter() - start
                record.root_span = root
        except Exception as exc:  # a raising request is a failed request
            record.fail(f"raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            out = None
    for w in caught:
        name = w.category.__name__
        record.warnings[name] = record.warnings.get(name, 0) + 1
    return out


def _rel(a, b, scale):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / max(scale, 1e-300)


def _nonfinite(*arrays):
    return int(sum(np.size(a) - np.count_nonzero(np.isfinite(a)) for a in arrays))


def _check_trace(record, solution, g, scale):
    trace = solution.boundary_trace()
    err = max(_rel(trace.g_r, g.g_r, scale), _rel(trace.g_phi, g.g_phi, scale))
    if not err <= TRACE_TOL:
        record.fail(f"boundary trace off by {err:.3e} (relative) > {TRACE_TOL}")


def _traced_callables(problem, tracer):
    """Copy of the problem whose data callables are timed as presets.data_fn."""
    if tracer is None:
        return problem
    fns = {name: tracer.wrap(fn, "presets.data_fn")
           for name in ("vorticity_fn", "divergence_fn")
           if (fn := getattr(problem, name)) is not None}
    return replace(problem, **fns)


class DiskHighmode:
    """K = 128, M = 4000 disk pipeline, cycling divergence / far-field / no-slip data."""

    name = "disk_highmode"
    import_module = "divcurl"

    def __init__(self, K=inputs.HIGHMODE_K, M=inputs.HIGHMODE_M,
                 points=inputs.HIGHMODE_POINTS, per_kind=inputs.HIGHMODE_POOL_PER_KIND):
        self.K, self.M, self.n_points, self.per_kind = K, M, points, per_kind
        self.cycle = len(inputs.HIGHMODE_KINDS)
        self.pool = None
        self.points = None

    def prepare(self, seed, seconds):
        self.pool = None  # release the previous pool before building the next
        self.pool = inputs.highmode_pool(seed, self.K, self.M, self.per_kind)
        grid = self.pool[inputs.HIGHMODE_KINDS[0]][0].grid
        self.points = inputs.PointStream(seed, self.n_points, grid.r0, grid.rmax)
        warm = self.request(-1)
        if not warm.ok:
            raise RuntimeError(f"warm-up request failed: {warm.errors}")
        # fresh points for every request, drawn before the timed phase with
        # room for twice the requests the warm-up latency predicts
        self.points.extend(int(2 * seconds / warm.latency) + 2 * self.cycle)

    def request(self, i, tracer=None):
        kind = inputs.HIGHMODE_KINDS[i % self.cycle]
        problem = self.pool[kind][(i // self.cycle) % self.per_kind]
        return self.execute(problem, kind, self.points[i + 1], tracer, i)

    def execute(self, problem, kind, points, tracer=None, request_id=None):
        record = Record(kind)
        data = problem.divergence if kind == "divergence" else problem.vorticity

        def program():
            solution = disk.solve_disk(problem)
            report = moments.moment_report(problem, tolerance=ADMISSIBLE_TOL)
            v = solution.sample(points)
            h1 = norms.far_field_deviation_h1(solution)
            l2 = norms.l2_weighted_norm(data, 2.0)
            flow = None
            if kind == "no_slip":
                flow = stream.velocity_from_stream(
                    stream.solve_stream(problem.vorticity, problem.far_field))
            return solution, report, v, h1, l2, flow

        out = _run(record, program, tracer, request_id)
        if out is not None:
            self._check(record, problem, *out)
        return record

    @staticmethod
    def _check(record, problem, solution, report, v, h1, l2, flow):
        v_r, v_phi = solution.profiles()
        record.nonfinite = _nonfinite(v_r, v_phi, v, h1, l2)
        if record.nonfinite:
            record.fail(f"{record.nonfinite} non-finite profile/sample/norm values")
        if not report.admissible:
            record.fail(f"moment report inadmissible: max residual {report.max_residual:.3e}, "
                        f"circulation/flux {abs(report.circulation):.3e}")
        g = problem.boundary
        scale = max(np.max(np.abs(g.g_r)), np.max(np.abs(g.g_phi)), np.max(np.abs(v)))
        _check_trace(record, solution, g, scale)
        if flow is not None:
            s_r, s_phi = flow.profiles()
            err = max(_rel(v_r, s_r, np.max(np.abs(v_r))),
                      _rel(v_phi, s_phi, np.max(np.abs(v_phi))))
            if not err <= STREAM_TOL:
                record.fail(f"stream and direct paths differ by {err:.3e} > {STREAM_TOL}")


class Crosscheck:
    """Criterion 3 oracle loop, alternating disk and Joukowski c = 0.5 problems."""

    name = "crosscheck"
    import_module = "divcurl"
    cycle = 2

    def __init__(self, per_kind=inputs.CROSS_POOL_PER_KIND):
        self.per_kind = per_kind
        self.pool = None

    def prepare(self, seed, seconds):
        self.pool = None
        self.pool, self.map = inputs.cross_pool(seed, self.per_kind)
        self.probes = inputs.cross_probes(seed)
        self.physical_probes = self.map.inverse(self.probes)
        for i in range(self.cycle):
            warm = self.request(i)
            if not warm.ok:
                raise RuntimeError(f"warm-up request failed: {warm.errors}")

    def request(self, i, tracer=None):
        slot = (i // self.cycle) % self.per_kind
        if i % self.cycle == 0:
            return self.execute_disk(self.pool["disk"][slot], tracer, i)
        return self.execute_mapped(self.pool["joukowski"][slot], tracer, i)

    def execute_disk(self, problem, tracer=None, request_id=None):
        record = Record("disk")
        traced = _traced_callables(problem, tracer)
        z = self.probes

        def program():
            solution = disk.solve_disk(traced)
            return solution, solution.sample(z), biot_savart.biot_savart_disk(
                z, traced, **ORACLE_KWARGS)

        out = _run(record, program, tracer, request_id)
        if out is not None:
            solution, v, v_oracle = out
            self._check_oracle(record, v, v_oracle, problem.far_field)
            if not solution.report.admissible:
                record.fail(f"moment report inadmissible: {solution.report.max_residual:.3e}")
            g = problem.boundary
            scale = max(np.max(np.abs(g.g_r)), np.max(np.abs(g.g_phi)), np.max(np.abs(v)))
            _check_trace(record, solution, g, scale)
        return record

    def execute_mapped(self, problem, tracer=None, request_id=None):
        record = Record("joukowski")
        traced = _traced_callables(problem, tracer)
        p = self.physical_probes

        def program():
            solution = conformal.solve_exterior(traced)
            return solution, solution.sample(p), biot_savart.biot_savart_omega(
                p, traced, **ORACLE_KWARGS)

        out = _run(record, program, tracer, request_id)
        if out is not None:
            solution, v, v_oracle = out
            self._check_oracle(record, v, v_oracle, problem.far_field)
            # no-slip: the boundary velocity vanishes wherever the map is regular
            theta = 2.0 * np.pi * np.arange(256) / 256
            circle = self.map.r0 * np.exp(1j * theta)
            regular = np.abs(self.map.d_inverse(circle)) > SINGULAR_MAP_TOL
            slip = float(np.max(np.abs(solution.boundary_samples(theta[regular]))))
            scale = max(float(np.max(np.abs(v))), abs(problem.far_field.as_complex))
            if not slip <= TRACE_TOL * scale:
                record.fail(f"no-slip boundary velocity {slip:.3e} > {TRACE_TOL} x {scale:.3e}")
        return record

    @staticmethod
    def _check_oracle(record, v, v_oracle, far):
        record.nonfinite = _nonfinite(v, v_oracle)
        scale = float(np.max(np.abs(v))) + abs(far.as_complex)
        record.max_rel_err = _rel(v, v_oracle, scale)
        if not record.max_rel_err <= ORACLE_TOL:
            record.fail(f"spectral vs oracle rel err {record.max_rel_err:.3e} > {ORACLE_TOL}")


# -- cli_configs ---------------------------------------------------------------

CLI_SNIPPET = "from divcurl.cli import entry; entry()"
CLI_TIMEOUT_S = 60
ELLIPSE_C, ELLIPSE_R0 = 0.5, 1.0  # configs/ellipse.cfg
ELLIPSE_A = ELLIPSE_R0 + ELLIPSE_C**2 / ELLIPSE_R0  # semi-axes of the solid
ELLIPSE_B = ELLIPSE_R0 - ELLIPSE_C**2 / ELLIPSE_R0


def cylinder_velocity(points):
    """Potential flow past the unit disk in a unit stream along x1."""
    z = np.asarray(points, dtype=complex)
    return np.conj(1.0 - 1.0 / (z * z))


def ellipse_velocity(points):
    """Unit stream along x1 past the configs/ellipse.cfg solid, in elliptic coordinates.

    With p = f cosh(w) (f the focal distance) the boundary is Re w = xi0,
    tanh(xi0) = b/a, and W = (a + b) cosh(w - xi0) is the complex potential.
    """
    a, b = ELLIPSE_A, ELLIPSE_B
    f = np.sqrt(a * a - b * b)
    xi0 = np.arctanh(b / a)
    w = np.arccosh(np.asarray(points, dtype=complex) / f)  # principal branch: Re w >= 0
    return np.conj((a + b) * np.sinh(w - xi0) / (f * np.sinh(w)))


def _read_dump(path):
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return raw[:, 0] + 1j * raw[:, 1], raw[:, 2] + 1j * raw[:, 3]


def _check_cylinder(record, out_dir):
    points, v = _read_dump(os.path.join(out_dir, "field.csv"))
    exact = cylinder_velocity(points)
    err = _rel(v, exact, np.max(np.abs(exact)))
    if not err <= CYLINDER_TOL:
        record.fail(f"cylinder dump off the closed form by {err:.3e} > {CYLINDER_TOL}")


def _check_ellipse(record, out_dir):
    points, v = _read_dump(os.path.join(out_dir, "field.csv"))
    inside = (points.real / ELLIPSE_A) ** 2 + (points.imag / ELLIPSE_B) ** 2 < 1.0
    if not np.array_equal(np.isnan(v.real), inside):
        record.fail("ellipse dump: NaN cells do not match the solid")
        return
    exact = ellipse_velocity(points[~inside])
    err = _rel(v[~inside], exact, np.max(np.abs(exact)))
    if not err <= ELLIPSE_TOL:
        record.fail(f"ellipse dump off the closed form by {err:.3e} > {ELLIPSE_TOL}")


_WARNING_LINE = re.compile(r"\b(\w+Warning)\b")


class CliConfigs:
    """divcurl subcommands on configs/ plus one generated file-preset config.

    Untraced, every request is a fresh interpreter (what a batch user runs).
    With in_process=True, as in the traced run, requests call cli.main()
    directly so spans can be recorded; each runs untraced and traced.
    """

    name = "cli_configs"
    import_module = "divcurl.cli"
    CHECKS = {"solve-cylinder": _check_cylinder, "solve-ellipse": _check_ellipse}

    def __init__(self, root, work_dir, in_process=False):
        self.root = root
        self.work_dir = work_dir
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.invocations = []
        self.cycle = 0
        self.hashes = {}

    def prepare(self, seed, seconds):
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        self.hashes = {}
        cfg = {name: os.path.join(self.root, "configs", f"{name}.cfg")
               for name in ("cylinder", "ellipse", "vortex_patch")}
        cfg["file_patch"] = inputs.write_file_preset(seed, self.work_dir)
        inv = [(f"{cmd}-{name}", [cmd, "--config", cfg[name]])
               for cmd in ("check", "solve", "norms")
               for name in ("cylinder", "ellipse", "vortex_patch")]
        inv.append(("stream-vortex_patch", ["solve", "--config", cfg["vortex_patch"],
                                            "--solver", "stream"]))
        inv.append(("oracle-vortex_patch", ["oracle", "--config", cfg["vortex_patch"],
                                            f"--points={inputs.oracle_points(seed)}"]))
        inv.append(("solve-file_patch", ["solve", "--config", cfg["file_patch"]]))
        self.invocations = [(key, argv + ["--out", os.path.join(self.work_dir, key)])
                            for key, argv in inv]
        self.cycle = len(self.invocations)
        warm = self.execute("warm-up", self.invocations[0][1])
        if not warm.ok:
            raise RuntimeError(f"warm-up invocation failed: {warm.errors}")

    def request(self, i, tracer=None):
        key, argv = self.invocations[i % self.cycle]
        return self.execute(key, argv, tracer, i)

    def execute(self, key, argv, tracer=None, request_id=None):
        record = Record(key)
        if self.in_process:
            span_name = "cli." + key.split("-")[0]

            def main():
                try:
                    return cli.main(argv)
                except SystemExit as exc:  # argparse exits on a bad command line
                    return exc.code

            def program():
                if tracer is None:
                    return main()
                with tracer.span(span_name):
                    return main()

            code = _run(record, program, tracer, request_id)
        else:
            start = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-c", CLI_SNIPPET, *argv], cwd=self.root,
                                      env=self.env, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:  # run() has killed and reaped the child
                record.fail(f"{key}: no exit within {CLI_TIMEOUT_S} s")
                return record
            record.latency = time.perf_counter() - start
            code = proc.returncode
            for name in _WARNING_LINE.findall(proc.stderr):
                record.warnings[name] = record.warnings.get(name, 0) + 1
            if code != 0:
                sys.stderr.write(proc.stderr)
        if code != 0:
            record.fail(f"{key}: exit code {code}")
            return record
        self._check_outputs(record, key, argv[argv.index("--out") + 1])
        return record

    def _check_outputs(self, record, key, out_dir):
        digest = hashlib.sha256()
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
        digest = digest.hexdigest()
        known = self.hashes.get(key)
        if known is None:
            # first run of this key: check the values; later runs must match its bytes
            self.hashes[key] = digest
            if key in self.CHECKS:
                self.CHECKS[key](record, out_dir)
        elif known != digest:
            record.fail(f"{key}: outputs differ from the first run (not byte-identical)")

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


def make(name, root, in_process=False):
    if name == "disk_highmode":
        return DiskHighmode()
    if name == "crosscheck":
        return Crosscheck()
    if name == "cli_configs":
        work_dir = os.path.join(root, "bench", "work", f"cli-{os.getpid()}")
        return CliConfigs(root, work_dir, in_process=in_process)
    raise ValueError(f"unknown workload {name!r}")
