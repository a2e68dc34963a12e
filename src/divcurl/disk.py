"""Exact solution of the div-curl system in the exterior of a disk, all modes at once.

The velocity field with prescribed divergence rho, vorticity w, Dirichlet
trace g on the circle r = r0 and constant far-field v_inf is assembled from
two kernel tables per mode (quadrature.ScaledIntegrals).  For k != 0, with
m = |k| and sigma = sign(k),

    a_k(r) = r^{-m-1} int_{r0}^r  s^{m+1} (w_k - i sigma rho_k) ds
    b_k(r) = r^{m-1}  int_r^inf   s^{1-m} (w_k + i sigma rho_k) ds
    v_r,k   = (i sigma / 2) (a_k + b_k) + i sigma d_k (r0/r)^{m+1} + v_r,k^inf
    v_phi,k =           (a_k - b_k) / 2 +         d_k (r0/r)^{m+1} + v_phi,k^inf

with d_k = (g_phi,k - i sigma g_r,k) / 2, so alpha_k = r0^{m+1} d_k.  For
k < 0 this is the conjugated positive-mode problem written out; for real
data v_{-k} = conj(v_k).  Mode 0 has power 1 only and keeps the plain
cumulative integrals:

    v_r,0 = (int_{r0}^r s rho_0 ds + r0 g_r,0) / r,   v_phi,0 likewise with w_0, g_phi,0.

The scaled tables never form r^{+-k}: every factor is a ratio of radii at
most 1 inside a kernel block, and a block ends before (|k|+1) log(s_end /
s_start) exceeds 300, so nothing overflows at high modes and large rmax.
The mode-k moment integral is b_k(r0), which gives the moment report for
free.  All integrals to infinity are exact under the compact-support
contract of RadialGrid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import BoundaryTrace, RadialGrid, SpectralField, _frozen_array
from .quadrature import ScaledIntegrals, cumulative, scaled_integrals

__all__ = [
    "FarField",
    "ModeSolution",
    "ModeTerms",
    "VelocitySolution",
    "DiskProblem",
    "vinf_coefficients",
    "alpha_coefficient",
    "solve_mode",
    "solve_mode_zero",
    "solve_disk",
]


@dataclass(frozen=True)
class FarField:
    """Constant velocity (v1, v2) prescribed at infinity."""

    v1: float = 0.0
    v2: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.v1) and np.isfinite(self.v2)):
            raise ValueError("far-field velocity must be finite")

    @property
    def as_complex(self) -> complex:
        return complex(self.v1, self.v2)


def vinf_coefficients(v: FarField, k: int) -> tuple:
    """Polar-frame Fourier coefficients (v_r,k, v_phi,k) of the constant field.

    Nonzero only for |k| = 1, where v_phi,k = sign(k) * i * v_r,k.
    """
    if abs(k) != 1:
        return 0.0 + 0.0j, 0.0 + 0.0j
    vr = 0.5 * (v.v1 - 1j * k * v.v2)
    vphi = 0.5 * (v.v2 + 1j * k * v.v1)
    return vr, vphi


def alpha_coefficient(g: BoundaryTrace, r0: float, k: int) -> complex:
    """Boundary coefficient alpha_k = r0^{k+1} (g_phi,k - i g_r,k) / 2 for k >= 1."""
    if k < 1:
        raise ValueError("alpha coefficients are defined for k >= 1")
    return 0.5 * r0 ** (k + 1) * (g.coeff_phi(k) - 1j * g.coeff_r(k))


_SAMPLE_BLOCK = 2048  # points per sampling block: (2K+1) x 2048 temporaries


@dataclass(frozen=True)
class ModeTerms:
    """Mode profiles as combinations of the two kernel tables, one row per mode.

    Row i holds mode ks[i].  For each component c (0: v_r, 1: v_phi)

        v_c(r) = coef[c, 0] a(r) + coef[c, 1] b(r) + coef[c, 2] (r0/r)^{|k|+1} + coef[c, 3]

    where a is the scaled prefix kernel (power |k|+1) and b the scaled suffix
    kernel (power |k|-1) of the row's integrands.  Mode 0 has power 1 only:
    its kernel rows carry zero coefficients, and its integrals are the plain
    prefix integrals zero[c] (CumulativeIntegral or None), added as zero[c](r) / r.
    """

    ks: np.ndarray
    r0: float
    inner: ScaledIntegrals
    outer: ScaledIntegrals
    coef: np.ndarray
    zero: tuple = (None, None)

    def row(self, i: int) -> "ModeTerms":
        rows = slice(i, i + 1)
        zero = self.zero if self.ks[i] == 0 else (None, None)
        return ModeTerms(self.ks[rows], self.r0, self.inner.rows(rows), self.outer.rows(rows),
                         self.coef[:, :, rows], zero)

    def _decay(self, r, rows=slice(None)):
        return np.exp(np.multiply.outer(np.abs(self.ks[rows]) + 1.0, np.log(self.r0 / r)))

    def at_nodes(self):
        """Node profiles (v_r, v_phi), each of shape (rows, nodes)."""
        nodes = self.inner.nodes
        decay = self._decay(nodes)
        out = []
        for c, integral in zip(self.coef, self.zero):
            x = c[0, :, None] * self.inner.table
            x += c[1, :, None] * self.outer.table
            x += c[2, :, None] * decay
            x += c[3, :, None]
            if integral is not None:
                x[self.ks == 0] += integral.prefix / nodes
            out.append(x)
        return tuple(out)

    def at(self, r, *mixes):
        """Per-mode values of mu_r v_r + mu_phi v_phi at radii r (1-D), one array per mix.

        Each kernel table is evaluated only on the range of rows where some
        mix has a nonzero coefficient for it.
        """
        coefs = [mu_r * self.coef[0] + mu_phi * self.coef[1] for mu_r, mu_phi in mixes]
        out = [np.zeros((len(self.ks), r.size), dtype=complex) for _ in coefs]
        for t, evaluate in ((0, self.inner.at), (1, self.outer.at), (2, self._decay)):
            used = np.flatnonzero(np.any([c[t] != 0 for c in coefs], axis=0))
            if used.size:
                rows = slice(used[0], used[-1] + 1)
                values = evaluate(r, rows)
                for x, c in zip(out, coefs):
                    x[rows] += c[t, rows, None] * values
        for x, c, mix in zip(out, coefs, mixes):
            x += c[3, :, None]
            for mu, integral in zip(mix, self.zero):
                if mu and integral is not None:
                    x[self.ks == 0] += mu * integral.at(r, extend=True) / r
        return out


def _blocks(count):
    return (slice(i, min(i + _SAMPLE_BLOCK, count)) for i in range(0, count, _SAMPLE_BLOCK))


def _mode_sum(values, phi, shift=0):
    """sum over rows k = -K..K of values[k + K] e^{i (k + shift) phi}."""
    K = (len(values) - 1) // 2
    unit = np.exp(1j * phi)
    phases = np.empty_like(values)
    phases[K] = 1.0
    phases[K + 1 :] = np.cumprod(np.broadcast_to(unit, (K, unit.size)), axis=0)
    phases[:K] = np.conj(phases[: K : -1])
    total = np.einsum("kj,kj->j", values, phases)
    return total * unit**shift if shift else total


@dataclass(frozen=True, repr=False)
class ModeSolution:
    """One angular mode of the velocity field, with off-node evaluation.

    alpha is the coefficient of r^{-|k|-1} in v_phi,k beyond the kernel terms
    (the boundary coefficient alpha_k for the direct solver, 0 at k = 0).
    """

    k: int
    v_r: np.ndarray
    v_phi: np.ndarray
    alpha: complex
    vinf_r: complex
    vinf_phi: complex
    grid: RadialGrid
    terms: ModeTerms = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "v_r", _frozen_array(self.v_r, dtype=complex))
        object.__setattr__(self, "v_phi", _frozen_array(self.v_phi, dtype=complex))

    def profile_at(self, r):
        """(v_r,k(r), v_phi,k(r)) at arbitrary radii inside the grid span."""
        r = np.asarray(r, dtype=float)
        v_r, v_phi = self.terms.at(r.ravel(), (1.0, 0.0), (0.0, 1.0))
        return v_r[0].reshape(r.shape), v_phi[0].reshape(r.shape)

    def __repr__(self):
        return f"ModeSolution(k={self.k}, alpha={self.alpha})"


def _mode_solution(terms: ModeTerms, i: int, v_r, v_phi, far: FarField, grid) -> ModeSolution:
    k = int(terms.ks[i])
    alpha = 0.0j if k == 0 else complex(terms.coef[1, 2, i]) * terms.r0 ** (abs(k) + 1)
    vinf_r, vinf_phi = vinf_coefficients(far, k)
    return ModeSolution(k, v_r, v_phi, alpha, vinf_r, vinf_phi, grid, terms.row(i))


def _direct_terms(grid: RadialGrid, ks, w, rho, g_r, g_phi, far: FarField) -> ModeTerms:
    """Kernel terms of the direct solver for the modes ks (data rows w, rho)."""
    ks = np.asarray(ks)
    m = np.abs(ks)
    sigma = np.sign(ks)
    g_r = np.asarray(g_r, dtype=complex)
    g_phi = np.asarray(g_phi, dtype=complex)
    zero = np.flatnonzero(ks == 0)
    rho_i = 1j * sigma[:, None] * rho
    inner = scaled_integrals(grid.nodes, w - rho_i, m + 1)
    outer = scaled_integrals(grid.nodes, w + rho_i, m - 1, suffix=True)
    del rho_i
    vinf = np.array([vinf_coefficients(far, int(k)) for k in ks], dtype=complex).T
    d = 0.5 * (g_phi - 1j * sigma * g_r)
    half_i = 0.5j * sigma
    n = len(ks)
    coef = np.array([[half_i, half_i, 2.0 * half_i * d, vinf[0]],
                     [np.full(n, 0.5), np.full(n, -0.5), d, vinf[1]]], dtype=complex)
    # mode 0: v_r,0 = (int s rho_0 + r0 g_r,0) / r and likewise v_phi,0 from w_0
    zero_integrals = (None, None)
    for i in zero:
        coef[:, :, i] = ((0.0, 0.0, g_r[i], 0.0), (0.0, 0.0, g_phi[i], 0.0))
        zero_integrals = (cumulative(grid.nodes, grid.nodes * rho[i]),
                          cumulative(grid.nodes, grid.nodes * w[i]))
    return ModeTerms(ks, grid.r0, inner, outer, coef, zero_integrals)


def _single_mode(k, w_k, rho_k, g_r_k, g_phi_k, far, grid) -> ModeSolution:
    if np.shape(w_k) != grid.nodes.shape or np.shape(rho_k) != grid.nodes.shape:
        raise ValueError("mode profiles must be sampled at every grid node")
    w_k = np.asarray(w_k, dtype=complex)[None, :]
    rho_k = np.asarray(rho_k, dtype=complex)[None, :]
    terms = _direct_terms(grid, [k], w_k, rho_k, [g_r_k], [g_phi_k], far)
    v_r, v_phi = terms.at_nodes()
    return _mode_solution(terms, 0, v_r[0], v_phi[0], far, grid)


def solve_mode(k: int, w_k, rho_k, g: BoundaryTrace, v: FarField, grid: RadialGrid) -> ModeSolution:
    """Solve one mode k >= 1.

    The formulas are evaluated whether or not the data satisfies the moment
    condition for this k; compatibility is reported separately.
    """
    if k < 1:
        raise ValueError("solve_mode handles k >= 1; use solve_mode_zero for k = 0")
    return _single_mode(k, w_k, rho_k, g.coeff_r(k), g.coeff_phi(k), v, grid)


def solve_mode_zero(w_0, rho_0, g: BoundaryTrace, grid: RadialGrid) -> ModeSolution:
    """Angle-independent mode: radial part from rho, azimuthal part from w.

    v_r,0(r) = (1/r) int_{r0}^r s rho_0 ds + r0 g_r,0 / r, and the analogous
    formula with w and g_phi,0 for v_phi,0.  The r0 factor on the trace terms
    makes the Dirichlet condition exact for any inner radius.
    """
    return _single_mode(0, w_0, rho_0, g.coeff_r(0), g.coeff_phi(0), FarField(), grid)


@dataclass(frozen=True)
class DiskProblem:
    """Div-curl data on the exterior of the disk r >= r0.

    vorticity/divergence are spectral fields on a shared grid; the boundary
    trace is padded to the field band if narrower.  Optional callables
    vorticity_fn(r, phi) and divergence_fn(r, phi) give the same data in
    closed form for quadrature oracles.
    """

    vorticity: SpectralField
    divergence: SpectralField
    boundary: BoundaryTrace
    far_field: FarField = FarField()
    vorticity_fn: object = field(default=None, compare=False)
    divergence_fn: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.vorticity.grid is not self.divergence.grid and not np.array_equal(
            self.vorticity.grid.nodes, self.divergence.grid.nodes
        ):
            raise ValueError("vorticity and divergence must share the radial grid")
        if self.vorticity.K != self.divergence.K:
            raise ValueError("vorticity and divergence must share the mode band")
        if self.boundary.K > self.vorticity.K:
            raise ValueError("boundary trace band exceeds the field band")
        if self.boundary.K < self.vorticity.K:
            object.__setattr__(self, "boundary", self.boundary.padded(self.vorticity.K))

    @property
    def grid(self) -> RadialGrid:
        return self.vorticity.grid

    @property
    def K(self) -> int:
        return self.vorticity.K


@dataclass(frozen=True)
class VelocitySolution:
    """Assembled velocity field for k in [-K, K]: node profiles and their kernel terms.

    v_r and v_phi have shape (2K+1, len(grid)); row k + K holds mode k.
    """

    terms: ModeTerms = field(compare=False)
    v_r: np.ndarray = field(compare=False)
    v_phi: np.ndarray = field(compare=False)
    far_field: FarField
    grid: RadialGrid
    report: object = field(default=None, compare=False)

    def __post_init__(self):
        for values in (self.v_r, self.v_phi):
            values.setflags(write=False)

    @property
    def K(self) -> int:
        return (len(self.terms.ks) - 1) // 2

    def mode(self, k: int) -> ModeSolution:
        if abs(k) > self.K:
            raise ValueError(f"mode {k} outside |k| <= {self.K}")
        i = k + self.K
        return _mode_solution(self.terms, i, self.v_r[i], self.v_phi[i], self.far_field, self.grid)

    def profiles(self):
        """Node-value matrices (v_r, v_phi), shape (2K+1, len(grid))."""
        return self.v_r, self.v_phi

    def sample_polar(self, r, phi):
        """(v_r, v_phi) mode sums at matching arrays of radii and angles."""
        r, phi = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(phi, dtype=float))
        shape = r.shape
        r, phi = r.ravel(), phi.ravel()
        v_r = np.empty(r.size, dtype=complex)
        v_phi = np.empty(r.size, dtype=complex)
        for block in _blocks(r.size):
            x_r, x_phi = self.terms.at(r[block], (1.0, 0.0), (0.0, 1.0))
            v_r[block] = _mode_sum(x_r, phi[block])
            v_phi[block] = _mode_sum(x_phi, phi[block])
        return v_r.reshape(shape), v_phi.reshape(shape)

    def sample(self, points) -> np.ndarray:
        """Cartesian velocity v1 + i v2 at complex points.

        Sums (v_r,k + i v_phi,k) e^{i (k+1) phi}, in which one kernel table
        per mode cancels: for k > 0 only a_k remains, for k < 0 only b_k.
        """
        points = np.asarray(points, dtype=complex)
        flat = points.ravel()
        out = np.empty(flat.size, dtype=complex)
        for block in _blocks(flat.size):
            z = flat[block]
            (values,) = self.terms.at(np.abs(z), (1.0, 1.0j))
            out[block] = _mode_sum(values, np.angle(z), shift=1)
        return out.reshape(points.shape)

    def boundary_trace(self) -> BoundaryTrace:
        return BoundaryTrace(self.K, self.v_r[:, 0], self.v_phi[:, 0])


def solve_disk(problem: DiskProblem, warn_tolerance: float = 1e-8) -> VelocitySolution:
    """Solve all modes |k| <= K and attach the compatibility report.

    Incompatible data is solved anyway: the formulas stay evaluable and the
    report quantifies how badly the boundary condition is violated, so the
    solver warns instead of refusing.  The report's mode residuals come from
    the kernel's b_k(r0), without a second integration.
    """
    from .moments import _report_from_moments

    grid = problem.grid
    w, rho, g, far = problem.vorticity, problem.divergence, problem.boundary, problem.far_field
    support_scale = max(
        float(np.max(np.abs(w.coeffs))), float(np.max(np.abs(rho.coeffs))), 1e-300
    )
    edge = max(float(np.max(np.abs(w.coeffs[:, -1]))), float(np.max(np.abs(rho.coeffs[:, -1]))))
    if edge > 1e-12 * support_scale:
        warnings.warn(
            "data is nonzero at the truncation radius rmax; integrals to infinity "
            "are truncated there (compact-support contract violated)",
            stacklevel=2,
        )

    K = problem.K
    terms = _direct_terms(grid, np.arange(-K, K + 1), w.coeffs, rho.coeffs, g.g_r, g.g_phi, far)
    v_r, v_phi = terms.at_nodes()
    report = _report_from_moments(problem, terms.outer.table[K + 1 :, 0], warn_tolerance)
    if not report.admissible:
        warnings.warn(
            f"data violates the moment conditions (max residual "
            f"{report.max_residual:.3e}, circulation/flux {abs(report.circulation):.3e}); "
            "the computed field will not match the boundary trace and may carry an "
            "infinite-energy 1/r tail",
            stacklevel=2,
        )
    return VelocitySolution(terms, v_r, v_phi, far, grid, report)
