"""Seeded input generation for the benchmark workloads.

Everything a workload feeds the program is built here from the workload seed
before the timed phase; the program only ever sees the generated objects and
files.  Moments used to make data admissible are computed with this module's
own trapezoid weights, not with the package's quadrature.
"""

from __future__ import annotations

import os

import numpy as np

from divcurl import presets
from divcurl.conformal import joukowski_map
from divcurl.disk import DiskProblem, FarField
from divcurl.grids import BoundaryTrace, RadialGrid, SpectralField, smooth_bump

# disk_highmode: the top of the size grid, geometric grading with the same
# first-to-last panel growth (about 7.3) as the CLI default of 1.005 at 400 nodes
HIGHMODE_K = 128
HIGHMODE_M = 4000
HIGHMODE_RMAX = 12.0
HIGHMODE_RATIO = 1.0005
HIGHMODE_POINTS = 8192
HIGHMODE_KINDS = ("divergence", "far_field", "no_slip")
HIGHMODE_POOL_PER_KIND = 2

# crosscheck: acceptance criterion 3 sizes
CROSS_K = 12
CROSS_M = 1501
CROSS_RMAX = 8.0
CROSS_SUPPORT = (1.8, 4.2)
CROSS_PROBES = 50
CROSS_JOUKOWSKI_C = 0.5
CROSS_POOL_PER_KIND = 16

# cli_configs: points of the oracle subcommand
CLI_ORACLE_POINTS = 3


def trapezoid_weights(nodes):
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def _moments(rows, s, r0, weights):
    """m_0 = int s f_0 ds and m_k = r0^{k-1} int s^{1-k} f_k ds for rows k = 0..K."""
    ks = np.arange(rows.shape[0])
    kernel = (s[None, :] / r0) ** (1 - ks[:, None])
    kernel[0] = s
    return (kernel * rows) @ weights


def _far_field_targets(far, K):
    """Right-hand side v_phi,k^inf + i v_r,k^inf of the moment conditions (k = 1 only)."""
    t = np.zeros(K + 1, dtype=complex)
    if K >= 1:
        t[1] = far.v2 + 1j * far.v1
    return t


def _mirror(upper, zero):
    """Full (2K+1,) coefficient vector from k = 1..K values and the k = 0 value."""
    return np.concatenate([np.conj(upper[::-1]), [zero], upper])


def _support(rng, grid):
    lo = rng.uniform(grid.r0 + 0.3, grid.r0 + 2.0)
    hi = min(lo + rng.uniform(3.0, 6.0), grid.rmax - 1.0)
    return lo, hi


def highmode_problem(rng, grid, K, kind, zeros):
    """One disk problem with data in every mode |k| <= K, admissible by construction.

    divergence / far_field: each mode's moment residual is moved into the
    boundary trace (g_r random, g_phi solving the condition).  no_slip: the
    trace is zero, so each vorticity mode gets its own near-wall bump scaled to
    cancel the residual; the bump sits at the wall, which keeps the scale O(1)
    at every k.
    """
    s = grid.nodes
    weights = trapezoid_weights(s)
    r0 = grid.r0
    lo, hi = _support(rng, grid)
    if kind == "divergence":
        far = FarField()
        rho, _ = presets.modal_field(grid, K, presets.random_mode_profiles(rng, K, lo, hi, 0.5))
        w = zeros
    else:
        far = FarField(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        w, _ = presets.modal_field(grid, K, presets.random_mode_profiles(rng, K, lo, hi))
        rho = zeros
    target = _far_field_targets(far, K)

    if kind == "no_slip":
        wall = smooth_bump(s, r0 * 1.02, r0 * 1.4)
        scale = ((_moments(w.coeffs[K:], s, r0, weights) - target)
                 / _moments(np.broadcast_to(wall, (K + 1, s.size)), s, r0, weights))
        deltas = {0: -scale[0].real * wall}
        for k in range(1, K + 1):
            deltas[k] = -scale[k] * wall
            deltas[-k] = -np.conj(scale[k]) * wall
        return DiskProblem(w.add_modes(deltas), rho, BoundaryTrace.zeros(K), far)

    m = _moments(w.coeffs[K:] + 1j * rho.coeffs[K:], s, r0, weights)
    ks = np.arange(1, K + 1)
    g_r = 0.3 * (rng.normal(size=K) + 1j * rng.normal(size=K)) / (1.0 + ks)
    g_phi = target[1:] - m[1:] - 1j * g_r
    g_r0 = -m[0].imag / r0  # flux
    g_phi0 = -m[0].real / r0  # circulation
    g = BoundaryTrace(K, _mirror(g_r, g_r0), _mirror(g_phi, g_phi0))
    return DiskProblem(w, rho, g, far)


def highmode_pool(seed, K, M, per_kind):
    """{kind: [DiskProblem, ...]} for disk_highmode, all from one seed."""
    rng = np.random.default_rng([seed, 0])
    grid = RadialGrid.geometric(1.0, HIGHMODE_RMAX, M, ratio=HIGHMODE_RATIO)
    zeros = SpectralField.zeros(grid, K)
    return {kind: [highmode_problem(rng, grid, K, kind, zeros) for _ in range(per_kind)]
            for kind in HIGHMODE_KINDS}


class PointStream:
    """Fresh off-node sample points per request, drawn in request order."""

    def __init__(self, seed, count, r0, rmax):
        self._rng = np.random.default_rng([seed, 1])
        self.count = count
        self.r0 = r0
        self.rmax = rmax
        self.sets = []

    def extend(self, n):
        for _ in range(n):
            r = self.r0 + (self.rmax - self.r0) * self._rng.random(self.count)
            phi = 2.0 * np.pi * self._rng.random(self.count)
            self.sets.append(r * np.exp(1j * phi))

    def __getitem__(self, i):
        if i >= len(self.sets):
            self.extend(i + 1 - len(self.sets))
        return self.sets[i]


def cross_grid():
    return RadialGrid.uniform(1.0, CROSS_RMAX, CROSS_M)


def cross_probes(seed):
    """Disk-plane probes off the data support, shared by every request."""
    rng = np.random.default_rng([seed, 2])
    n_near = (2 * CROSS_PROBES) // 5
    radii = np.concatenate([rng.uniform(1.12, 1.62, n_near),
                            rng.uniform(4.45, 7.2, CROSS_PROBES - n_near)])
    return radii * np.exp(2j * np.pi * rng.random(CROSS_PROBES))


def cross_pool(seed, per_kind):
    """({'disk': [...], 'joukowski': [...]}, map) for the crosscheck workload."""
    rng = np.random.default_rng([seed, 3])
    grid = cross_grid()
    m = joukowski_map(CROSS_JOUKOWSKI_C, grid.r0)
    disks = []
    for j in range(per_kind):
        kind = j % 3
        far = FarField(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) if kind == 2 else FarField()
        disks.append(presets.random_admissible_problem(
            rng, grid, K=CROSS_K, K_data=8, K_c=CROSS_K, support=CROSS_SUPPORT,
            with_divergence=(kind == 1), boundary_modes=3 if kind == 2 else 0, far_field=far))
    mapped = [presets.random_admissible_exterior_problem(rng, m, grid, CROSS_K, K_data=8,
                                                         K_c=CROSS_K, support=CROSS_SUPPORT)
              for _ in range(per_kind)]
    return {"disk": disks, "joukowski": mapped}, m


def witness_disk_problem(grid, K):
    """Acceptance criterion 2 witness: zero data and trace, v_inf = (1, 0); inadmissible."""
    zeros = SpectralField.zeros(grid, K)
    return DiskProblem(zeros, zeros, BoundaryTrace.zeros(K), FarField(1.0, 0.0))


# -- cli_configs -------------------------------------------------------------

FILE_CONFIG = """# generated: gridded-sample vorticity ingested through the file preset
[domain]
kind = disk
r0 = 1.0

[grid]
nodes = 400
rmax = 10.0
grading = geometric
ratio = 1.005

[modes]
k = 8

[vorticity]
preset = file
path = {path}

[solve]
make_admissible = true
k_c = 8

[output]
field = polar
nr = 24
nphi = 48
"""

WITNESS_CONFIG = """# acceptance criterion 2 witness: zero data, zero trace, v_inf = (1, 0)
[grid]
nodes = 200
rmax = 12.0

[modes]
k = 4

[far_field]
v1 = 1.0
v2 = 0.0
"""


def write_file_preset(seed, work_dir):
    """Gridded polar samples of a smooth vorticity patch plus a config using them."""
    rng = np.random.default_rng([seed, 4])
    center = rng.uniform(3.0, 5.0) * np.exp(2j * np.pi * rng.random())
    sigma = rng.uniform(0.6, 1.0)
    radii = np.linspace(1.0, 10.0, 91)
    angles = 2.0 * np.pi * np.arange(72) / 72
    rr, pp = np.meshgrid(radii, angles, indexing="ij")
    z = rr * np.exp(1j * pp)
    window = smooth_bump(rr, 1.3, 9.0)
    values = np.exp(-np.abs(z - center) ** 2 / (2.0 * sigma**2)) * window
    csv_path = os.path.join(work_dir, "patch_samples.csv")
    with open(csv_path, "w") as fh:
        fh.write("r,phi,value\n")
        for r, phi, v in zip(rr.ravel(), pp.ravel(), values.ravel()):
            fh.write(f"{r:.17g},{phi:.17g},{v:.17g}\n")
    cfg_path = os.path.join(work_dir, "file_patch.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(FILE_CONFIG.format(path=csv_path))
    return cfg_path


def oracle_points(seed):
    rng = np.random.default_rng([seed, 5])
    n = CLI_ORACLE_POINTS
    z = rng.uniform(1.3, 6.0, n) * np.exp(2j * np.pi * rng.random(n))
    return ";".join(f"{p.real:.6f},{p.imag:.6f}" for p in z)


def write_witness_config(work_dir):
    path = os.path.join(work_dir, "witness.cfg")
    with open(path, "w") as fh:
        fh.write(WITNESS_CONFIG)
    return path
