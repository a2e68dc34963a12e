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

from .grids import BoundaryTrace, RadialGrid, SpectralField
from .quadrature import ScaledIntegrals, _bands, _locate, cumulative, scaled_integrals

__all__ = [
    "FarField",
    "ModeTerms",
    "VelocitySolution",
    "DiskProblem",
    "vinf_coefficients",
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

    def _decay(self, r, rows=slice(None)):
        return np.exp(np.multiply.outer(np.abs(self.ks[rows]) + 1.0, np.log(self.r0 / r)))

    def at_nodes(self):
        """Node profiles (v_r, v_phi), each of shape (rows, nodes), built band by band."""
        nodes = self.inner.nodes
        out = tuple(np.empty(self.inner.table.shape, dtype=complex) for _ in self.coef)
        for band in _bands(len(self.ks), len(nodes)):
            decay = self._decay(nodes, band)
            for c, x in zip(self.coef, out):
                rows = x[band]
                np.multiply(c[0, band, None], self.inner.table[band], out=rows)
                rows += c[1, band, None] * self.outer.table[band]
                rows += c[2, band, None] * decay
        for c, integral, x in zip(self.coef, self.zero, out):
            rows = np.flatnonzero(c[3])  # the constant far field: |k| = 1 only
            x[rows] += c[3, rows, None]
            if integral is not None:
                x[self.ks == 0] += integral.prefix / nodes
        return out

    def _add_rows(self, out, r, located, rows):
        """Add the Cartesian combinations v_r,k + i v_phi,k of the rows to out (rows, len(r)).

        Each kernel table is evaluated only on the rows where the combination
        has a nonzero coefficient for it; the radii are located once by the
        caller and shared by both tables.
        """
        coef = self.coef[0, :, rows] + 1j * self.coef[1, :, rows]
        for t, table in enumerate((self.inner, self.outer, None)):
            used = np.flatnonzero(coef[t])
            if used.size:
                sub = slice(used[0], used[-1] + 1)
                own = slice(rows.start + sub.start, rows.start + sub.stop)
                value = self._decay(r, own) if table is None else table._at(r, located, own)
                out[sub] += coef[t, sub, None] * value
        out += coef[3, :, None]
        zero = np.flatnonzero(self.ks[rows] == 0)
        for mu, integral in zip((1.0, 1.0j), self.zero):
            if integral is not None and zero.size:
                out[zero] += mu * integral.at(r, extend=True) / r
        return out

    def at(self, r):
        """Per-mode Cartesian combination v_r,k + i v_phi,k at radii r (1-D)."""
        r = np.asarray(r, dtype=float)
        out = np.zeros((len(self.ks), r.size), dtype=complex)
        return self._add_rows(out, r, _locate(self.inner.nodes, r, extend=True),
                              slice(0, len(self.ks)))

    def _mode_sum(self, r, phi):
        """sum over k of (v_r,k + i v_phi,k)(r) e^{i (k + 1) phi} at points (r, phi).

        Walks the modes +-m in bands of m, so that one band's rows times the
        points fit the band budget; the phases e^{i m phi} continue their
        running product from band to band.  The first band holds the rows
        -m1 < k < m1 in order, so a single band sums exactly as one pass over
        all rows would.
        """
        K = (len(self.ks) - 1) // 2
        located = _locate(self.inner.nodes, r, extend=True)
        unit = np.exp(1j * phi)
        for band in _bands(K + 1, 2 * r.size):
            m0, m1 = band.start, band.stop
            neg = slice(K - m1 + 1, K - max(m0, 1) + 1)  # k = -(m1 - 1) .. -max(m0, 1)
            n = neg.stop - neg.start
            values = np.zeros((n + m1 - m0, r.size), dtype=complex)
            self._add_rows(values[:n], r, located, neg)
            self._add_rows(values[n:], r, located, slice(K + m0, K + m1))
            phases = np.empty_like(values)
            pos = phases[n:]  # e^{i m phi}, m = m0 .. m1 - 1
            if m0 == 0:
                pos[0] = 1.0
                pos[1:] = unit
                np.cumprod(pos[1:], axis=0, out=pos[1:])
            else:
                run = np.empty((m1 - m0 + 1, r.size), dtype=complex)
                run[0], run[1:] = last, unit
                pos[:] = np.cumprod(run, axis=0, out=run)[1:]
            last = pos[-1]
            phases[:n] = np.conj(pos[::-1][:n])
            part = np.einsum("kj,kj->j", values, phases)
            total = part if m0 == 0 else total + part
        return total * unit


def _direct_terms(grid: RadialGrid, w, rho, far: FarField) -> ModeTerms:
    """Kernel terms for the modes k = -K..K with a zero trace; rho None is zero divergence."""
    K = (len(w) - 1) // 2
    ks = np.arange(-K, K + 1)
    m = np.abs(ks)
    sigma = np.sign(ks)
    f_inner = f_outer = w
    if rho is not None:
        # w -+ i sigma rho, formed band by band
        f_inner, f_outer = np.empty_like(w, dtype=complex), np.empty_like(w, dtype=complex)
        for band in _bands(len(ks), w.shape[1]):
            rho_i = 1j * sigma[band, None] * rho[band]
            np.subtract(w[band], rho_i, out=f_inner[band])
            np.add(w[band], rho_i, out=f_outer[band])
    inner = scaled_integrals(grid.nodes, f_inner, m + 1)
    outer = scaled_integrals(grid.nodes, f_outer, m - 1, suffix=True)
    vinf = np.array([vinf_coefficients(far, int(k)) for k in ks], dtype=complex).T
    half_i = 0.5j * sigma
    n = len(ks)
    coef = np.array([[half_i, half_i, np.zeros(n), vinf[0]],
                     [np.full(n, 0.5), np.full(n, -0.5), np.zeros(n), vinf[1]]], dtype=complex)
    # mode 0 has no kernel rows: v_r,0 = (int s rho_0 + r0 g_r,0) / r, likewise v_phi,0
    coef[:, :2, K] = 0.0
    zero_integrals = (None if rho is None else cumulative(grid.nodes, grid.nodes * rho[K]),
                      cumulative(grid.nodes, grid.nodes * w[K]))
    return ModeTerms(ks, grid.r0, inner, outer, coef, zero_integrals)


def _max_abs(values) -> float:
    """max |values| of a (modes, nodes) array, band by band."""
    return max(float(np.max(np.abs(values[band]))) for band in _bands(*values.shape))


def _set_trace(coef, g_r, g_phi):
    """Write the decay terms of the trace (g_r, g_phi) into coef, mode 0 as r0 g_0 / r."""
    K = (len(g_r) - 1) // 2
    sigma = np.sign(np.arange(-K, K + 1))
    d = 0.5 * (g_phi - 1j * sigma * g_r)
    coef[:, 2] = 1j * sigma * d, d
    coef[:, 2, K] = g_r[K], g_phi[K]


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

    v_r and v_phi have shape (2K+1, len(grid)); row k + K holds mode k.  They
    are the per-mode view; sample is the one evaluator off the nodes.
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

    def profiles(self):
        """Node-value matrices (v_r, v_phi), shape (2K+1, len(grid))."""
        return self.v_r, self.v_phi

    def sample(self, points) -> np.ndarray:
        """Cartesian velocity v1 + i v2 at complex points.

        Sums (v_r,k + i v_phi,k) e^{i (k+1) phi}, in which one kernel table
        per mode cancels: for k > 0 only a_k remains, for k < 0 only b_k.
        The points go in order of radius, in blocks of 2048; ModeTerms._mode_sum
        takes the modes of a block in row bands.
        """
        points = np.asarray(points, dtype=complex)
        flat = points.ravel()
        # points in order of radius, so a block gathers a narrow window of
        # table columns; each point's sum does not depend on its block
        order = np.argsort(np.abs(flat), kind="stable")
        out = np.empty(flat.size, dtype=complex)
        # blocks of 2048 points: a band of 32 mode rows over a block fits the budget
        for block in _bands(flat.size, 32):
            rows = order[block]
            out[rows] = self.terms._mode_sum(np.abs(flat[rows]), np.angle(flat[rows]))
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
    support_scale = max(_max_abs(w.coeffs), _max_abs(rho.coeffs), 1e-300)
    edge = max(float(np.max(np.abs(w.coeffs[:, -1]))), float(np.max(np.abs(rho.coeffs[:, -1]))))
    if edge > 1e-12 * support_scale:
        warnings.warn(
            "data is nonzero at the truncation radius rmax; integrals to infinity "
            "are truncated there (compact-support contract violated)",
            stacklevel=2,
        )

    K = problem.K
    terms = _direct_terms(grid, w.coeffs, rho.coeffs, far)
    _set_trace(terms.coef, g.g_r, g.g_phi)
    v_r, v_phi = terms.at_nodes()
    report = _report_from_moments(problem, terms.outer.table[K + 1 :, 0], warn_tolerance)
    if not report.admissible:
        warnings.warn(
            f"data violates the moment conditions (max residual "
            f"{report.max_residual:.3e}, circulation/flux {report.circulation_flux:.3e}); "
            "the computed field will not match the boundary trace and may carry an "
            "infinite-energy 1/r tail",
            stacklevel=2,
        )
    return VelocitySolution(terms, v_r, v_phi, far, grid, report)
