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
data v_{-k} = conj(v_k).  So real data (w, rho, g and v_inf whose modes
are exactly mirrored, f_{-k} = conj(f_k), as conjugate_symmetry_defect()
== 0 says of a field) is solved on k >= 0: the integrands, kernel tables
and node profiles are formed for those rows and rows k < 0 are written as
their conjugates, the real-input half spectrum of the FFT (Press et al.,
Numerical Recipes, 3rd ed., section 12.3).  The kernel weights are real, so
conjugation commutes with every step and the result is the full pass's bit
for bit.  Mode 0 has power 1 only and keeps the plain cumulative integrals:

    v_r,0 = (int_{r0}^r s rho_0 ds + r0 g_r,0) / r,   v_phi,0 likewise with w_0, g_phi,0.

The scaled tables never form r^{+-k}: every factor is a ratio of radii at
most 1 inside a kernel block, and a block ends before (|k|+1) log(s_end /
s_start) exceeds 300, so nothing overflows at high modes and large rmax.
The mode-k moment integral is b_k(r0), which gives the moment report for
free.  All integrals to infinity are exact under the compact-support
contract of RadialGrid.

Off the nodes the velocity v1 + i v2 = sum_k (v_r,k + i v_phi,k) e^{i (k+1) phi}
keeps only i a_m + 2 i d_m (r0/r)^{m+1} for k = m > 0 and -i b_m for k = -m.
Inside the panel [s0, s1] holding r the tables' in-panel rule makes a_m a
sum of (s_j/r)^{m+1} and b_m of (r/s_j)^{m-1} times values at s0 and s1,
so with the phase the mode sum is a set of polynomials in (s_j/r) e^{i phi},
(r/s_j) e^{-i phi} and (r0/r) e^{i phi}, evaluated by Horner's rule
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM
2002, section 5.1).  Each base has modulus at most the panel ratio s1/s0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .grids import BoundaryTrace, RadialGrid, SpectralField
from .quadrature import (ScaledIntegrals, _bands, _locate, _mirror, _mirror_defect,
                         _mirrored_integrals, cumulative, scaled_integrals)

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
    """Mode profiles from the two kernel tables, one row per mode.

    Row i holds mode ks[i], sigma = sign(ks[i]).  With a the scaled prefix
    kernel (power |k|+1), b the scaled suffix kernel (power |k|-1) and
    decay = (r0/r)^{|k|+1},

        v_r   = i sigma (a + b) / 2 + trace[0] decay + vinf[0]
        v_phi =         (a - b) / 2 + trace[1] decay + vinf[1]

    where trace = (i sigma d_k, d_k) and vinf holds the constant far field
    (|k| = 1 only).  Mode 0 has power 1 only: its kernel rows are not read,
    and its integrals are the plain prefix integrals zero[c]
    (CumulativeIntegral or None), v_c,0 = (zero[c](r) + r0 trace[c]) / r.
    mirrored says that row -m of every table, integrand, trace and vinf is
    the conjugate of row m, so the node profiles are too.
    """

    ks: np.ndarray
    r0: float
    inner: ScaledIntegrals
    outer: ScaledIntegrals
    trace: np.ndarray
    vinf: np.ndarray
    zero: tuple = (None, None)
    mirrored: bool = False

    def _decay(self, r, rows=slice(None)):
        return np.exp(np.multiply.outer(np.abs(self.ks[rows]) + 1.0, np.log(self.r0 / r)))

    def at_nodes(self):
        """Node profiles (v_r, v_phi), each of shape (rows, nodes), built band by band.

        Mirrored terms build the rows k > 0 and write rows k < 0 as their conjugates.
        """
        nodes = self.inner.nodes
        K = (len(self.ks) - 1) // 2
        v_r, v_phi = (np.empty(self.inner.table.shape, dtype=complex) for _ in range(2))
        half_i = 0.5j * np.sign(self.ks)
        for band in _bands(len(self.ks), len(nodes), K + 1 if self.mirrored else 0):
            decay = self._decay(nodes, band)
            a, b = self.inner.table[band], self.outer.table[band]
            rows = np.add(a, b, out=v_r[band])
            rows *= half_i[band, None]
            rows += self.trace[0, band, None] * decay
            rows = np.subtract(a, b, out=v_phi[band])
            rows *= 0.5
            rows += self.trace[1, band, None] * decay
        decay = self._decay(nodes, slice(K, K + 1))[0]
        for x, trace, vinf, integral in zip((v_r, v_phi), self.trace, self.vinf, self.zero):
            if self.mirrored:
                _mirror(x)
            x[K] = trace[K] * decay
            if integral is not None:
                x[K] += integral.prefix / nodes
            rows = np.flatnonzero(vinf)  # the constant far field: |k| = 1 only
            x[rows] += vinf[rows, None]
        return v_r, v_phi

    def _mode_sum(self, z):
        """sum over k of (v_r,k + i v_phi,k)(r) e^{i (k+1) phi} at the points z = r e^{i phi}.

        In v_r + i v_phi the suffix kernel cancels for k = m > 0, and the
        prefix kernel and the decay cancel for k = -m < 0:

            k =  m:   i a_m(r) e^{i (m+1) phi} + D_m ((r0/r) e^{i phi})^{m+1}
            k = -m:  -i b_m(r) e^{-i (m-1) phi},

        with D_m = trace[0] + i trace[1].  Inside the panel [s0, s1] holding r
        the in-panel rule of the tables reads

            a_m(r) = (s0/r)^{m+1} (T_m(s0) + w0 f_m(s0)) + (s1/r)^{m+1} w1 f_m(s1)
            b_m(r) = (r/s1)^{m-1} (T_m(s1) + w1' f_m(s1)) + (r/s0)^{m-1} w0' f_m(s0),

        T the table and f the integrand of the row, the w the panel weights of
        r.  So every term is a power of one of five bases, u_j = (s_j/r) e^{i phi},
        v_j = (r/s_j) e^{-i phi} and (r0/r) e^{i phi}, times a coefficient read
        off T, f or D: seven polynomials, summed together by Horner's rule
        from m = K down to 1, one band of modes at a time.
        """
        nodes = self.inner.nodes
        K = (len(self.ks) - 1) // 2
        r = np.abs(z)
        rc, idx, frac = _locate(nodes, r, extend=True)
        unit = z / r
        nxt = idx + 1
        s0, s1 = nodes[idx], nodes[nxt]
        back = np.conj(unit)
        rs = np.minimum(r, nodes[-1])  # beyond the last node the suffix is zero
        u0, u1, ud = s0 / r * unit, s1 / r * unit, self.r0 / r * unit
        v0, v1 = rs / s0 * back, rs / s1 * back
        bases = np.array([u0, u0, u1, v1, v1, v0, ud])
        acc = np.zeros_like(bases)
        bands = _bands(K, bases.size)
        coef = np.empty((len(bases), bands[0].stop if bands else 0, r.size), dtype=complex)
        d_coef = self.trace[0] + 1j * self.trace[1]
        ends = (idx, idx, nxt, nxt, nxt, idx)
        for band in reversed(bands):
            c = coef[:, : band.stop - band.start]
            pos = slice(K + 1 + band.start, K + 1 + band.stop)  # k = m, m = start + 1 .. stop
            neg = slice(K - band.stop, K - band.start)  # k = -m, read backwards
            t_a, f_a = self.inner.table[pos], self.inner.integrand[pos]
            t_b, f_b = self.outer.table[neg][::-1], self.outer.integrand[neg][::-1]
            for out, rows, at in zip(c, (t_a, f_a, f_a, t_b, f_b, f_b), ends):
                rows.take(at, axis=1, out=out, mode="clip")
            c[-1] = d_coef[pos, None]
            for i in range(c.shape[1] - 1, -1, -1):
                acc *= bases
                acc += c[:, i]
        ta, fa0, fa1, tb, fb1, fb0, d = acc
        h, hb = 0.5 * (rc - s0), 0.5 * (s1 - rc)
        a = u0 * u0 * (ta + (h * (2.0 - frac)) * fa0) + u1 * u1 * ((h * frac) * fa1)
        b = tb + (hb * (1.0 + frac)) * fb1 + (hb * (1.0 - frac)) * fb0
        total = 1j * (a - b) + ud * ud * d
        # mode 0, (zero(r) + r0 g_0) / r, and the constant far field of k = -1, +1
        zero = (self.trace[0, K] + 1j * self.trace[1, K]) * (self.r0 / r)
        for mu, integral in zip((1.0, 1.0j), self.zero):
            if integral is not None:
                zero += mu * integral.at(r, extend=True) / r
        total += unit * zero
        if K:
            vinf = self.vinf[0] + 1j * self.vinf[1]
            total += vinf[K - 1] + vinf[K + 1] * unit * unit
        return total


def _direct_terms(grid: RadialGrid, w, rho, far: FarField) -> ModeTerms:
    """Kernel terms for the modes k = -K..K with a zero trace; rho None is zero divergence.

    When w, rho and the far field are exactly mirrored (a real field's
    modes), the integrands and kernel tables are formed for k >= 0 only and
    rows k < 0 are their conjugates, bit for bit what the full pass gives.
    """
    K = (len(w) - 1) // 2
    ks = np.arange(-K, K + 1)
    m = np.abs(ks)
    sigma = np.sign(ks)
    vinf = np.array([vinf_coefficients(far, int(k)) for k in ks], dtype=complex).T
    mirrored = (_mirror_defect(w) == 0.0 and (rho is None or _mirror_defect(rho) == 0.0)
                and _mirror_defect(vinf.T) == 0.0)
    f_inner = f_outer = w
    if rho is not None:
        # w -+ i sigma rho, formed band by band
        f_inner, f_outer = np.empty_like(w, dtype=complex), np.empty_like(w, dtype=complex)
        for band in _bands(len(ks), w.shape[1], K if mirrored else 0):
            rho_i = 1j * sigma[band, None] * rho[band]
            np.subtract(w[band], rho_i, out=f_inner[band])
            np.add(w[band], rho_i, out=f_outer[band])
        if mirrored:
            _mirror(f_inner)
            _mirror(f_outer)
    kernel = _mirrored_integrals if mirrored else scaled_integrals
    inner = kernel(grid.nodes, f_inner, m + 1.0)
    outer = kernel(grid.nodes, f_outer, m - 1.0, suffix=True)
    zero_integrals = (None if rho is None else cumulative(grid.nodes, grid.nodes * rho[K]),
                      cumulative(grid.nodes, grid.nodes * w[K]))
    return ModeTerms(ks, grid.r0, inner, outer, np.zeros((2, len(ks)), dtype=complex), vinf,
                     zero_integrals, mirrored)


def _max_abs(values, name) -> float:
    """max |values| of a (modes, nodes) array, band by band; ValueError if one is not finite."""
    scale = float(np.max([np.max(np.abs(values[band])) for band in _bands(*values.shape)]))
    if not np.isfinite(scale):
        raise ValueError(f"{name} has non-finite coefficients")
    return scale


def _with_trace(terms: ModeTerms, g_r, g_phi) -> ModeTerms:
    """terms with the decay coefficients of the trace (g_r, g_phi), mode 0 as r0 g_0 / r.

    The terms stay mirrored when the trace is mirrored too.
    """
    K = (len(g_r) - 1) // 2
    sigma = np.sign(np.arange(-K, K + 1))
    d = 0.5 * (g_phi - 1j * sigma * g_r)
    trace = np.array([1j * sigma * d, d])
    trace[:, K] = g_r[K], g_phi[K]
    return replace(terms, trace=trace, mirrored=terms.mirrored and _mirror_defect(trace.T) == 0.0)


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

        Sums (v_r,k + i v_phi,k) e^{i (k+1) phi} as polynomials in
        (s/r) e^{i phi} and (r/s) e^{-i phi}, s a node of the point's panel,
        by Horner's rule (ModeTerms._mode_sum): no power or phase is formed
        per mode and point.  The points go in order of radius, in blocks
        whose Horner accumulators fill one band.
        """
        points = np.asarray(points, dtype=complex)
        flat = points.ravel()
        # points in order of radius, so a block gathers a narrow window of
        # table columns; each point's sum does not depend on its block
        order = np.argsort(np.abs(flat), kind="stable")
        out = np.empty(flat.size, dtype=complex)
        # the seven Horner accumulators of a block fill one band
        for block in _bands(flat.size, 7):
            rows = order[block]
            out[rows] = self.terms._mode_sum(flat[rows])
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
    support_scale = max(_max_abs(w.coeffs, "vorticity"), _max_abs(rho.coeffs, "divergence"),
                        1e-300)
    if not (np.all(np.isfinite(g.g_r)) and np.all(np.isfinite(g.g_phi))):
        raise ValueError("boundary trace has non-finite coefficients")
    edge = max(float(np.max(np.abs(w.coeffs[:, -1]))), float(np.max(np.abs(rho.coeffs[:, -1]))))
    if edge > 1e-12 * support_scale:
        warnings.warn(
            "data is nonzero at the truncation radius rmax; integrals to infinity "
            "are truncated there (compact-support contract violated)",
            stacklevel=2,
        )

    K = problem.K
    terms = _with_trace(_direct_terms(grid, w.coeffs, rho.coeffs, far), g.g_r, g.g_phi)
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
