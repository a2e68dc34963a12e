"""The exact solution of the div-curl system in the exterior of the disk r >= r0.

With m = |k|, sigma = sign(k) and the kernel tables (ScaledIntegrals) of k != 0,

    a_k(r) = r^{-m-1} int_{r0}^r  s^{m+1} (w_k - i sigma rho_k) ds
    b_k(r) = r^{m-1}  int_r^inf   s^{1-m} (w_k + i sigma rho_k) ds,

the velocity modes are

    v_r,k   = (i sigma / 2) (a_k + b_k) + i sigma d_k (r0/r)^{m+1} + v_r,k^inf
    v_phi,k =           (a_k - b_k) / 2 +         d_k (r0/r)^{m+1} + v_phi,k^inf

with d_k = (g_phi,k - i sigma g_r,k) / 2, and mode 0 is

    v_r,0 = (int_{r0}^r s rho_0 ds + r0 g_r,0) / r,   v_phi,0 likewise with w_0, g_phi,0.

The mode-k moment integral is b_k(r0), and integrals to infinity are exact under
RadialGrid's compact-support contract.  One front end, _mode_rows, takes every
entry's data to its kernel rows; _kernels shares the tables a live solution holds.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .grids import BoundaryTrace, RadialGrid, SpectralField, _scan
from .quadrature import (_SIDE_BY_SIDE, ScaledIntegrals, _bands, _locate, _scaled, _support,
                         _together, _unfold, _upper, cumulative)

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


def _vinf_rows(v: FarField, K: int) -> np.ndarray:
    """The (2, 2K+1) array of vinf_coefficients on the modes -K..K: rows v_r, v_phi."""
    rows = np.zeros((2, 2 * K + 1), dtype=complex)
    for k in (-1, 1) if K else ():
        rows[:, K + k] = vinf_coefficients(v, k)
    return rows


# the polynomials of ModeTerms._mode_sum that can be nonzero below and above the data's support
_BELOW, _ABOVE = (3, 6), (0, 6)


@dataclass(frozen=True, eq=False)
class ModeTerms:
    """Mode profiles from the two kernel tables, one row per mode.

    Row i holds mode ks[i] of the module formulas, with a = inner.table,
    b = outer.table, the decay coefficients trace = (i sigma d_k, d_k)
    (_with_trace) and vinf the constant far field (|k| = 1 only); ks is -K..K,
    or 0..K for mirrored data (_mode_rows).  Mode 0 reads no kernel row:
    v_c,0 = (zero[c](r) + r0 trace[c]) / r, zero[c] a CumulativeIntegral or
    None.  span is the data's support, the node columns (lo, hi) outside which
    every mode of w and rho is zero ((0, 0) for zero data).  rotated says that
    the tables are of rho itself (_kernel).
    """

    ks: np.ndarray
    r0: float
    inner: ScaledIntegrals
    outer: ScaledIntegrals
    trace: np.ndarray
    vinf: np.ndarray
    span: tuple
    zero: tuple = (None, None)
    rotated: bool = False

    @property
    def K(self) -> int:
        return int(self.ks[-1])

    @property
    def zero_row(self) -> int:
        """Row of mode 0."""
        return int(-self.ks[0])

    @property
    def mirrored(self) -> bool:
        """Only the rows k >= 0 are held."""
        return self.zero_row == 0

    def _decay(self, r, rows=slice(None)):
        return np.exp(np.multiply.outer(np.abs(self.ks[rows]) + 1.0, np.log(self.r0 / r)))

    def at_nodes(self):
        """Node profiles (v_r, v_phi) on the rows ks, each (rows, nodes), built band by band.

        The two halves of the bands run through quadrature._together.  Mirrored
        profiles are the upper rows of (2K+1)-row arrays (quadrature._upper).
        """
        nodes = self.inner.nodes
        v_r, v_phi = (_upper(self.K, len(self.ks), len(nodes)) for _ in range(2))
        half_i, half = 0.5j * np.sign(self.ks)[:, None], np.full((len(self.ks), 1), 0.5 + 0j)
        # v_r = half_i (a + b) and v_phi = (a - b) / 2, or rotated (A - B) / 2 and -half_i (A + B)
        parts = ((v_r, np.add, half_i), (v_phi, np.subtract, half))
        if self.rotated:
            parts = ((v_r, np.subtract, half), (v_phi, np.add, -half_i))

        def build(bands):
            for band in bands:
                decay = self._decay(nodes, band)
                a, b = self.inner.table[band], self.outer.table[band]
                for (x, combine, scale), trace in zip(parts, self.trace):
                    rows = combine(a, b, out=x[band])
                    rows *= scale[band]
                    rows += trace[band, None] * decay

        bands = _bands(len(self.ks), len(nodes))
        split = len(bands) // 2
        _together(lambda: build(bands[:split]), lambda: build(bands[split:]), v_r.size)
        zero = self.zero_row
        decay = self._decay(nodes, slice(zero, zero + 1))[0]
        for x, trace, vinf, integral in zip((v_r, v_phi), self.trace, self.vinf, self.zero):
            x[zero] = trace[zero] * decay
            if integral is not None:
                x[zero] += integral.prefix / nodes
            rows = np.flatnonzero(vinf)  # the constant far field: |k| = 1 only
            x[rows] += vinf[rows, None]
        return v_r, v_phi

    def _groups(self, r):
        """(start, stop, polynomials of _mode_sum) for the points below, on and
        above the data's support, r their radii in ascending order.

        A point's panel [s_idx, s_idx+1] lies below the support when idx + 1 < lo
        (r < s_{lo-1}) and above it when idx >= hi (r >= s_hi); there its tables
        and integrands are zero but for T_b below and T_a above.  The terms left
        out are exact zeros: every nonzero part of a sample is the full sum's bit
        for bit.
        """
        nodes, (lo, hi) = self.inner.nodes, self.span
        below = int(np.searchsorted(r, nodes[lo - 1])) if lo >= 2 else 0
        above = int(np.searchsorted(r, nodes[hi])) if hi <= len(nodes) - 2 else len(r)
        return [(0, below, _BELOW), (below, above, range(7)), (above, len(r), _ABOVE)]

    def _mode_sum(self, z, polys=range(7)):
        """sum over k != 0 of (v_r,k + i v_phi,k)(r) e^{i (k+1) phi} at the points z = r e^{i phi},
        without the constant far field (VelocitySolution.sample adds it and mode 0).

        The suffix kernel cancels for k = m > 0, and the prefix kernel and the
        decay cancel for k = -m:

            k =  m:   i a_m(r) e^{i (m+1) phi} + D_m ((r0/r) e^{i phi})^{m+1}
            k = -m:  -i b_m(r) e^{-i (m-1) phi},

        with D_m = trace[0] + i trace[1].  Inside the panel [s0, s1] holding r,
        with T the table, f the integrand and the w the panel weights of r,

            a_m(r) = (s0/r)^{m+1} (T_m(s0) + w0 f_m(s0)) + (s1/r)^{m+1} w1 f_m(s1)
            b_m(r) = (r/s1)^{m-1} (T_m(s1) + w1' f_m(s1)) + (r/s0)^{m-1} w0' f_m(s0).

        So the sum is seven polynomials in u_j = (s_j/r) e^{i phi}, v_j = (r/s_j) e^{-i phi}
        and (r0/r) e^{i phi}, each base of modulus at most s1/s0, summed by
        Horner's rule (Higham, Accuracy and Stability of Numerical Algorithms,
        2nd ed., section 5.1) from m = K down to 1, one band of modes at a time.
        Mirrored terms run the k = -m sums on conj(v_j) with the rows +m, and
        conjugate them at the end.  polys picks the polynomials summed, in the
        order (T_a, f_a(s0), f_a(s1), T_b, f_b(s1), f_b(s0), D); the others count
        as +0.0 (_groups).
        """
        nodes = self.inner.nodes
        K, zero = self.K, self.zero_row
        r = np.abs(z)
        rc, idx, frac = _locate(nodes, r)
        unit = z / r
        nxt = idx + 1
        s0, s1 = nodes[idx], nodes[nxt]
        back = np.conj(unit)
        rs = np.minimum(r, nodes[-1])  # beyond the last node the suffix is zero
        u0, u1, ud = s0 / r * unit, s1 / r * unit, self.r0 / r * unit
        v0, v1 = rs / s0 * back, rs / s1 * back
        if not zero:  # mirrored: the k = -m polynomials in conj(v_j), conjugated at the end
            v0, v1 = np.conj(v0), np.conj(v1)
        bases = np.array([(u0, u0, u1, v1, v1, v0, ud)[i] for i in polys])
        acc = np.zeros_like(bases)
        bands = _bands(K, bases.size)
        coef = np.empty((len(bases), bands[0].stop if bands else 0, r.size), dtype=complex)
        d_coef = self.trace[0] + 1j * self.trace[1]
        ends = (idx, idx, nxt, nxt, nxt, idx)
        for band in reversed(bands):
            c = coef[:, : band.stop - band.start]
            pos = slice(zero + 1 + band.start, zero + 1 + band.stop)  # k = m, m = start + 1 .. stop
            t_a, f_a = self.inner.table[pos], self.inner.integrand[pos]
            # k = -m: the rows -m, reversed once gathered (take copies a reversed
            # view), or for mirrored terms the rows +m
            neg = slice(K - band.stop, K - band.start) if zero else pos
            t_b, f_b = self.outer.table[neg], self.outer.integrand[neg]
            sources = (t_a, f_a, f_a, t_b, f_b, f_b)
            for out, i in zip(c, polys):
                if i == 6:
                    out[:] = d_coef[pos, None]
                    continue
                sources[i].take(ends[i], axis=1, out=out, mode="clip")
                if i >= 3 and zero:
                    out[:] = out[::-1]
            for i in range(c.shape[1] - 1, -1, -1):
                acc *= bases
                acc += c[:, i]
        if not zero:  # the k = -m sums ran on conj(v_j)
            neg = [j for j, i in enumerate(polys) if 3 <= i < 6]
            acc[neg] = np.conj(acc[neg])
        if len(polys) < 7:
            acc, summed = np.zeros((7, r.size), dtype=complex), acc
            acc[list(polys)] = summed
        ta, fa0, fa1, tb, fb1, fb0, d = acc
        h, hb = 0.5 * (rc - s0), 0.5 * (s1 - rc)
        a = u0 * u0 * (ta + (h * (2.0 - frac)) * fa0) + u1 * u1 * ((h * frac) * fa1)
        b = tb + (hb * (1.0 + frac)) * fb1 + (hb * (1.0 - frac)) * fb0
        return (a - b if self.rotated else 1j * (a - b)) + ud * ud * d


def _kernel(nodes, w, rho, ks, suffix: bool, span: tuple) -> ScaledIntegrals:
    """The suffix table b (power |k| - 1, integrand w + i sigma rho) of the modes ks,
    or with suffix False the prefix table a (power |k| + 1, w - i sigma rho).

    w and rho hold the rows ks, and span is the data's support.  rho None
    (zero divergence) tables w alone.  w None (zero vorticity) tables rho
    itself, rotated: its kernels A, B give a = -i sigma A and b = i sigma B,
    which ModeTerms.at_nodes and _mode_sum combine directly.  Profiles, trace
    and moments were those of the combined integrand bit for bit in every
    case tried, and the samples agree to 1e-15 relative.
    """
    f = rho if w is None else w
    if w is not None and rho is not None:
        combine, sigma = np.add if suffix else np.subtract, np.sign(ks)
        f = np.empty_like(w, dtype=complex)
        for band in _bands(len(ks), w.shape[1]):
            combine(w[band], 1j * sigma[band, None] * rho[band], out=f[band])
    powers = np.abs(ks) - 1.0 if suffix else np.abs(ks) + 1.0
    return _scaled(nodes, f, powers, suffix, span, (w, rho))


def _b_at_r0(outer: ScaledIntegrals, ks, rotated: bool) -> np.ndarray:
    """b_k(r0) of the modes ks: the suffix table's first column, times i sigma
    for a rotated table (_kernel)."""
    start = outer.table[:, 0]
    return 1j * np.sign(ks) * start if rotated else start


# every _kernel table, keyed on the memory it was computed from (_memo_key); a
# table's sources and nodes pin that memory, so no key is reused while its table
# lives, and the memo keeps no table alive by itself
_TABLES = weakref.WeakValueDictionary()


def _memo_key(nodes, w, rho, ks, suffix: bool, span: tuple):
    """The _TABLES key of _kernel's table: the memory of the rows it is formed from
    (w, rho or both) and of the nodes, the side, ks and the span.  None when one
    of those rows can be written (RadialGrid's nodes are read-only)."""
    rows = (rho,) if w is None else (w,) if rho is None else (w, rho)
    if any(f.flags.writeable for f in rows):
        return None
    memory = tuple((a.__array_interface__["data"][0], a.shape, a.strides, a.dtype.str)
                   for a in (*rows, nodes))
    return memory + (suffix, ks.tobytes(), span)


def _kernels(nodes, w, rho, ks, span: tuple, sides=(False, True)) -> list:
    """_kernel's tables of the sides (False the prefix, True the suffix), through
    _TABLES, the one memo of kernel output: each is read there while a live
    solution holds it, else built and stored.  So a moment_report next to a
    live solve builds nothing, and one after it the suffix table alone.  A pair
    built anew is the two halves of quadrature._together, whose worker never
    touches _TABLES.  Threads that miss at once each build, and store the same bits.
    """
    keys = [_memo_key(nodes, w, rho, ks, suffix, span) for suffix in sides]
    tables = [None if key is None else _TABLES.get(key) for key in keys]
    build = lambda suffix: _kernel(nodes, w, rho, ks, suffix, span)
    if len(sides) == 2 and all(table is None for table in tables):
        tables = _together(lambda: build(False), lambda: build(True), 2 * len(ks) * len(nodes))
    tables = [build(suffix) if table is None else table for suffix, table in zip(sides, tables)]
    for key, table in zip(keys, tables):
        if key is not None:
            _TABLES[key] = table
    return tables


def _direct_terms(problem: DiskProblem) -> tuple:
    """(kernel terms of the problem's data with a zero trace, the data's column maxima).

    The rows, the data on them and the support follow _mode_rows, and the
    tables _kernels; rho None is zero divergence, w None zero vorticity.
    """
    ks, vinf, w, rho, top = _mode_rows(problem)
    zero, nodes, span = -ks[0], problem.grid.nodes, _support(top)
    inner, outer = _kernels(nodes, w, rho, ks, span)
    zero_integrals = (None if rho is None else cumulative(nodes, nodes * rho[zero]),
                      cumulative(nodes, np.zeros(len(nodes)) if w is None else nodes * w[zero]))
    return ModeTerms(ks, problem.grid.r0, inner, outer, np.zeros((2, len(ks)), dtype=complex),
                     vinf, span, zero_integrals, w is None), top


def _with_trace(terms: ModeTerms, g_r, g_phi) -> ModeTerms:
    """terms with the decay coefficients of the trace (g_r, g_phi), mode 0 as r0 g_0 / r.

    g_r and g_phi hold the modes -K..K or the rows of terms.ks.
    """
    g_r, g_phi = g_r[-len(terms.ks) :], g_phi[-len(terms.ks) :]
    sigma = np.sign(terms.ks)
    d = 0.5 * (g_phi - 1j * sigma * g_r)
    trace = np.array([1j * sigma * d, d])
    zero = terms.zero_row
    trace[:, zero] = g_r[zero], g_phi[zero]
    return replace(terms, trace=trace)


@dataclass(frozen=True, eq=False)
class DiskProblem:
    """Div-curl data on the exterior of the disk r >= r0.

    vorticity/divergence are spectral fields on a shared grid; the boundary
    trace is padded to the field band if narrower.  Optional callables
    vorticity_fn(r, phi) and divergence_fn(r, phi) give the same data in
    closed form for quadrature oracles.  They must be pointwise and follow
    NumPy broadcasting: the oracle and the pullback call them with a radius
    column and an angle row, and broadcast the result to the lattice.
    """

    vorticity: SpectralField
    divergence: SpectralField
    boundary: BoundaryTrace
    far_field: FarField = FarField()
    vorticity_fn: object = None
    divergence_fn: object = None

    def __post_init__(self):
        if self.vorticity.grid is not self.divergence.grid and not np.array_equal(
            self.vorticity.grid.nodes, self.divergence.grid.nodes
        ):
            raise ValueError("vorticity and divergence must share the radial grid")
        if self.vorticity.K != self.divergence.K:
            raise ValueError("vorticity and divergence must share the mode band")
        if self.boundary.K > self.vorticity.K:
            raise ValueError("boundary trace band exceeds the field band")
        if self.vorticity.K == 0 and self.far_field.as_complex != 0:
            raise ValueError("a far field lives in modes +-1, outside a band of K = 0")
        if self.boundary.K < self.vorticity.K:
            object.__setattr__(self, "boundary", self.boundary.padded(self.vorticity.K))

    @property
    def grid(self) -> RadialGrid:
        return self.vorticity.grid

    @property
    def K(self) -> int:
        return self.vorticity.K


def _mode_rows(problem: DiskProblem) -> tuple:
    """(ks, vinf, w, rho, top): the modes the kernel terms hold, v_inf and the data
    on them, and the column maxima of w and rho together.

    The front end of solve_disk, stream.solve_stream (its no-slip problem) and
    moments.moment_report.  It reads the scans w and rho took when they were
    made (grids._scan), scans g and v_inf, and checks the four finite in that
    order.  Real data are mirrored: the modes of w, rho, g and v_inf satisfy
    f_{-k} = conj(f_k) exactly.  They are solved and held on the rows k = 0..K alone, the
    real-input half spectrum (Press et al., Numerical Recipes, 3rd ed., section
    12.3), and mode -m is read off the conjugated row +m (quadrature._unfold).
    The kernel weights are real, so conjugation commutes with every step and
    the result is the full pass's bit for bit.  Other data take the rows -K..K.
    w and rho are views of the rows ks: rho None for zero divergence, w None
    for zero vorticity unless the divergence is zero too.
    """
    w, rho, g, K = problem.vorticity.coeffs, problem.divergence.coeffs, problem.boundary, problem.K
    vinf = _vinf_rows(problem.far_field, K)
    scans = (problem.vorticity._scanned, problem.divergence._scanned,
             _scan(np.stack((g.g_r, g.g_phi), axis=1)), _scan(vinf.T))
    for (top, _), name in zip(scans, ("vorticity", "divergence", "boundary trace", "far field")):
        if not np.isfinite(np.max(top)):
            raise ValueError(f"{name} has non-finite coefficients")
    (w_top, _), (rho_top, _) = scans[:2]
    ks = np.arange(0 if all(mirrored for _, mirrored in scans) else -K, K + 1)
    rows = slice(K + ks[0], None)
    return (ks, vinf[:, rows], w[rows] if np.max(w_top) or not np.max(rho_top) else None,
            rho[rows] if np.max(rho_top) else None, np.maximum(w_top, rho_top))


@dataclass(frozen=True, eq=False)
class VelocitySolution:
    """Assembled velocity field for k in [-K, K]: node profiles and their kernel terms.

    rows holds the node profiles (v_r, v_phi) on the modes terms.ks
    (ModeTerms.at_nodes); v_r and v_phi are their (2K+1)-row view, row k + K
    holding mode k, built on first access.
    """

    terms: ModeTerms
    rows: tuple
    far_field: FarField
    grid: RadialGrid
    report: object = None

    def __post_init__(self):
        for values in self.rows:
            values.setflags(write=False)

    @property
    def K(self) -> int:
        return self.terms.K

    @cached_property
    def v_r(self) -> np.ndarray:
        return _unfold(self.rows[0], self.K)

    @cached_property
    def v_phi(self) -> np.ndarray:
        return _unfold(self.rows[1], self.K)

    def profiles(self):
        """Node-value matrices (v_r, v_phi), shape (2K+1, len(grid))."""
        return self.v_r, self.v_phi

    def sample(self, points) -> np.ndarray:
        """Cartesian velocity v1 + i v2 at complex points; ValueError if a point
        is not finite (NaN, or of infinite modulus).

        The mode sum is ModeTerms._mode_sum, over the points in order of radius
        in blocks whose Horner accumulators fill one band.  A large sample is cut
        into the groups of ModeTerms._groups, each group into halves for
        quadrature._together.  Mode 0 and the constant far field are added here.
        """
        points = np.asarray(points, dtype=complex)
        flat = points.ravel()
        terms = self.terms
        r = np.abs(flat)
        if not np.all(np.isfinite(r)):
            raise ValueError("sample points must be finite")
        # points in order of radius, so a block gathers a narrow window of
        # table columns; each point's sum does not depend on its block
        order = np.argsort(r, kind="stable")
        out = np.empty(flat.size, dtype=complex)

        def fill(part, polys=range(7)):
            for block in _bands(part.size, len(polys)):
                rows = part[block]
                out[rows] = terms._mode_sum(flat[rows], polys)

        # each point's Horner sum passes over seven accumulators per mode; a
        # small pass keeps its points in one call, which has a cost per mode
        size = 7 * terms.K * flat.size
        if size < _SIDE_BY_SIDE:
            fill(order)
        else:
            groups = [(order[i:j], polys) for i, j, polys in terms._groups(r[order])]
            _together(lambda: [fill(part[: part.size // 2], polys) for part, polys in groups],
                      lambda: [fill(part[part.size // 2 :], polys) for part, polys in groups],
                      size)
        # mode 0, (zero(r) + r0 g_0) / r, and the constant far field of k = -1, +1
        zero, unit = terms.zero_row, flat / r
        mode0 = (terms.trace[0, zero] + 1j * terms.trace[1, zero]) * (terms.r0 / r)
        for mu, integral in zip((1.0, 1.0j), terms.zero):
            if integral is not None:
                mode0 += mu * integral.at(r) / r
        out += unit * mode0
        if terms.K:
            minus = terms.vinf[:, zero - 1] if zero else np.conj(terms.vinf[:, 1])
            plus = terms.vinf[:, zero + 1]
            out += (minus[0] + 1j * minus[1]) + (plus[0] + 1j * plus[1]) * unit * unit
        return out.reshape(points.shape)

    def boundary_trace(self) -> BoundaryTrace:
        return BoundaryTrace(self.K, *(_unfold(values[:, 0], self.K) for values in self.rows))


def solve_disk(problem: DiskProblem, warn_tolerance: float = 1e-8) -> VelocitySolution:
    """Solve all modes |k| <= K and attach the compatibility report.

    Incompatible data is solved anyway: the formulas stay evaluable and the
    report quantifies how badly the boundary condition is violated, so the
    solver warns instead of refusing.  The report reads the suffix table's
    b_k(r0).
    """
    from .moments import _report_of

    terms, top = _direct_terms(problem)
    if top[-1] > 1e-12 * max(float(np.max(top)), 1e-300):
        warnings.warn(
            "data is nonzero at the truncation radius rmax; integrals to infinity "
            "are truncated there (compact-support contract violated)",
            stacklevel=2,
        )
    terms = _with_trace(terms, problem.boundary.g_r, problem.boundary.g_phi)
    rows = terms.at_nodes()
    moments = _b_at_r0(terms.outer, terms.ks, terms.rotated)
    report = _report_of(problem, moments, warn_tolerance)
    if report.max_residual > warn_tolerance:
        warnings.warn(
            f"data violates the moment conditions (max residual "
            f"{report.max_residual:.3e}, circulation/flux {report.circulation_flux:.3e}); "
            "the computed field will not match the boundary trace and may carry an "
            "infinite-energy 1/r tail",
            stacklevel=2,
        )
    elif not report.admissible:
        gamma, q = (f"{c.real:.3e}" if c.imag == 0.0 else f"{c:.3e}"
                    for c in (report.circulation, report.flux))
        warnings.warn(
            f"data violates the k = 0 moment conditions (circulation Gamma {gamma}, "
            f"flux Q {q}); the computed field meets the boundary trace and carries the "
            "infinite-energy tail (Q e_r + Gamma e_phi)/(2 pi r)",
            stacklevel=2,
        )
    return VelocitySolution(terms, rows, problem.far_field, problem.grid, report)
