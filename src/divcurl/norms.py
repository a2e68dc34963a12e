"""Norm evaluators: weighted L2, H^{1/2} boundary, discrete H1 energies.

Volume norms use Parseval in the angle and the composite trapezoid in
radius, ||f||^2_{L_{2,N}} = 2 pi sum_k int |f_k(s)|^2 (1+s^2)^N s ds: the
mode densities are summed over k, band by band, and take one product with
the radial weight vector.  The gradient energy uses the full polar
gradient including the frame-curvature terms, so constant fields
contribute exactly zero.  The velocity norms read the profiles a solution
holds (_velocity_densities) and match the whole-array per-term sums to
rounding.  A norm whose squares overflow or underflow is summed again on
its data scaled by a power of two (_safely): it is finite or raises.
"""

from __future__ import annotations

import numpy as np

from .disk import VelocitySolution
from .grids import BoundaryTrace, SpectralField
from .quadrature import _bands, _together, trapezoid_weights

__all__ = [
    "l2_weighted_norm",
    "h_half_boundary_norm",
    "h1_seminorm",
    "scalar_gradient_norm",
    "far_field_deviation_l2",
    "far_field_deviation_h1",
]


def _power(count, s, term) -> np.ndarray:
    """sum over modes of |term_k(s_j)|^2 at every node, on the calling thread.

    term(band) gives the band's rows of the (modes, nodes) complex term.  The
    squares are summed row after row over the float view, the running sum
    carried from band to band: the order of one einsum over the whole term.
    """
    acc = 0.0
    for band in _bands(count, s.size):
        flat = np.ascontiguousarray(term(band), dtype=complex).view(float)
        rows = np.empty((len(flat) + 1, flat.shape[1]))
        rows[0] = acc
        np.multiply(flat, flat, out=rows[1:])
        acc = rows.sum(axis=0)
        del flat, rows  # before the next band is formed
    return acc.reshape(-1, 2).sum(axis=1)


def _radial_derivative(s):
    """f -> np.gradient(f, s, axis=1) written out for the grid s, bit for bit, in about
    a fifth less time on a 16 x 4000 complex band; the stencil is formed once, here.

    Inside, the three-point difference for uneven spacing (or the central
    difference when every spacing is exactly equal, as np.gradient does);
    one-sided first differences at the two ends.
    """
    d = np.diff(s)
    uniform = bool(np.all(d == d[0]))
    if not uniform:
        d1, d2 = d[:-1], d[1:]
        below, centre, above = (-d2 / (d1 * (d1 + d2)), (d2 - d1) / (d1 * d2),
                                d1 / (d2 * (d1 + d2)))

    def derivative(f):
        out = np.empty(f.shape, dtype=np.result_type(f, float))
        inner = out[:, 1:-1]
        if uniform:
            np.subtract(f[:, 2:], f[:, :-2], out=inner)
            inner /= 2.0 * d[0]
        else:
            np.multiply(below, f[:, :-2], out=inner)
            inner += centre * f[:, 1:-1]
            inner += above * f[:, 2:]
        out[:, 0] = (f[:, 1] - f[:, 0]) / d[0]
        out[:, -1] = (f[:, -1] - f[:, -2]) / d[-1]
        return out

    return derivative


def _volume_norm(power, s, weight=1.0) -> float:
    """sqrt(2 pi int power(s) weight(s) s ds) by the trapezoid weights."""
    return float(np.sqrt(2.0 * np.pi * (power @ (trapezoid_weights(s) * s * weight))))


# a norm below this may have lost bits to underflow in its squares
_TINY = 2.0**-458


def _safely(message: str, norm_of, largest) -> float:
    """norm_of(1.0), or when that is not finite or below _TINY, norm_of(2^-e) * 2^e
    with 2^e near largest(), the largest modulus of the data.

    norm_of(factor) is the norm of the data times factor, which it applies band by
    band, so the common pass keeps its bits and its cost.  A power of two is
    exact, so the scaled pass is the unscaled one's 2^-e times, bit for bit,
    wherever that one neither overflowed nor underflowed: the safe scaling of
    BLAS nrm2 (Anderson, ACM TOMS 44 (2017)).  Overflow is ignored here and in
    each half of _velocity_densities.  ValueError(message) when the norm
    itself cannot be represented.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = norm_of(1.0)
        if not _TINY <= norm < np.inf:
            top = largest()
            if top == 0.0:
                return 0.0
            e = int(np.clip(np.frexp(top)[1], -1022, 1023))
            norm = float(norm_of(2.0**-e) * 2.0**e)
    if not np.isfinite(norm):
        raise ValueError(message)
    return norm


def _times(values, factor):
    """values, or a new array of values * factor unless factor is 1."""
    return values if factor == 1.0 else values * factor


def _largest(*arrays) -> float:
    """max |value| over (rows, columns) arrays, band by band; NaN if a value is NaN."""
    return float(np.max([np.max(np.abs(a[band]), initial=0.0)
                         for a in arrays for band in _bands(len(a), a.shape[1])]))


def l2_weighted_norm(field: SpectralField, N=0.0) -> float:
    """Volume norm of a scalar field with weight (1+|x|^2)^N; N = 0 recovers plain L2."""
    N = float(N)
    if N < 0.0:
        raise ValueError("weight exponent must be nonnegative")
    s = field.grid.nodes
    with np.errstate(over="ignore"):
        weight = (1.0 + s * s) ** N

    def norm_of(factor):
        power = _power(2 * field.K + 1, s, lambda band: _times(field.coeffs[band], factor))
        return _volume_norm(power, s, weight)

    return _safely(f"weighted L2 norm is not finite for N = {N} at rmax = {field.grid.rmax}",
                   norm_of, lambda: _largest(field.coeffs))


def h_half_boundary_norm(g: BoundaryTrace) -> float:
    """Trace norm sqrt(sum_k (|k|+1) (|g_phi,k|^2 + |g_r,k|^2))."""
    weight = np.abs(np.arange(-g.K, g.K + 1)) + 1.0

    def norm_of(factor):
        g_phi, g_r = _times(g.g_phi, factor), _times(g.g_r, factor)
        return float(np.sqrt(np.sum(weight * (np.abs(g_phi) ** 2 + np.abs(g_r) ** 2))))

    return _safely("H^1/2 boundary norm is not finite", norm_of,
                   lambda: _largest(np.stack((g.g_phi, g.g_r))))


def _velocity_densities(solution: VelocitySolution, gradient: bool = True,
                        factor: float = 1.0) -> tuple:
    """(deviation, gradient) per-node densities of a solution times factor, from one
    pass over its bands.

    With u = v - v_inf and weight w_k = 2 for the mirrored rows k >= 1
    (disk._mode_rows), else 1, deviation = sum_k w_k |u_k|^2 and gradient
    (None unless asked for) = sum_k w_k |d_r v_k|^2 plus the frame terms
    over s^2, taken from the squares and cross products alone:

        |i k u_r - u_phi|^2 + |i k u_phi + u_r|^2
            = (k^2 + 1)(|u_r|^2 + |u_phi|^2) + 4 k Im(u_r conj(u_phi)).

    The two halves of the bands run through quadrature._together, each with its
    own sums; each half ignores overflow itself, since np.errstate holds per
    thread, and a square that overflows gives an inf or NaN density.
    """
    s = solution.grid.nodes
    terms, (v_r, v_phi) = solution.terms, solution.rows
    ks = terms.ks.astype(float)
    weight = np.where(terms.mirrored & (ks > 0), 2.0, 1.0)
    # rows of sums: deviation, then (k^2+1)-weighted squares, cross products, radial derivatives
    squares = np.array([weight, weight * (ks * ks + 1.0)])[: 1 + gradient]
    cross, vinf, width = 4.0 * weight * ks, _times(terms.vinf, factor), 2 * s.size
    derivative = _radial_derivative(s)

    def part(bands):
        sums = np.zeros((3 * gradient + 1, width))
        with np.errstate(over="ignore", invalid="ignore"):  # for the thread running this part
            for band in bands:
                u_r, u_phi = _times(v_r[band], factor), _times(v_phi[band], factor)
                sq = np.empty((band.stop - band.start, width))
                cr = np.empty_like(sq) if gradient else None
                _products(u_r, u_phi, sq, cr)
                for j in np.flatnonzero(np.any(vinf[:, band], axis=0)):  # |k| = 1 only
                    _products(u_r[j : j + 1] - vinf[0, band][j],
                              u_phi[j : j + 1] - vinf[1, band][j],
                              sq[j : j + 1], None if cr is None else cr[j : j + 1])
                sums[: len(squares)] += squares[:, band] @ sq
                if gradient:
                    sums[2] += cross[band] @ cr
                    del sq, cr
                    for v in (u_r, u_phi):
                        d = derivative(v).view(float)
                        d *= d
                        sums[3] += weight[band] @ d
                        del d
        return sums

    bands = _bands(len(ks), s.size)
    half = len(bands) // 2
    first, second = _together(lambda: part(bands[:half]), lambda: part(bands[half:]),
                              2 * v_r.size)
    sums = (first + second).reshape(len(first), s.size, 2)
    deviation = sums[0].sum(axis=1)
    if not gradient:
        return deviation, None
    frame = sums[1].sum(axis=1) + (sums[2, :, 1] - sums[2, :, 0])
    return deviation, sums[3].sum(axis=1) + frame / (s * s)


def _products(u_r, u_phi, sq, cr):
    """Write |u_r|^2 + |u_phi|^2 into sq and, unless cr is None, (re u_r im u_phi,
    im u_r re u_phi) into cr, node by node over the float views of the complex rows."""
    a, b = u_r.view(float), u_phi.view(float)
    np.multiply(a, a, out=sq)
    sq += b * b
    if cr is not None:
        np.multiply(a[:, 0::2], b[:, 1::2], out=cr[:, 0::2])
        np.multiply(a[:, 1::2], b[:, 0::2], out=cr[:, 1::2])


def _velocity_norm(message: str, solution: VelocitySolution, norm_of) -> float:
    """_safely of norm_of(factor), a norm of solution's profiles times factor, with
    their largest modulus and that of the constant far field; message names the norm."""
    return _safely(f"{message} is not finite at rmax = {solution.grid.rmax}", norm_of,
                   lambda: _largest(*solution.rows, solution.terms.vinf))


def h1_seminorm(solution: VelocitySolution) -> float:
    """Discrete ||grad v||_{L2}: finite differences in r, exact mode sums in angle.

    Equals the gradient energy of v - v_inf as well, since the constant far
    field has zero gradient: its frame terms are taken out with it.
    """
    s = solution.grid.nodes
    return _velocity_norm("H1 seminorm", solution, lambda factor: _volume_norm(
        _velocity_densities(solution, True, factor)[1], s))


def scalar_gradient_norm(field: SpectralField) -> float:
    """||grad f||_{L2} of a scalar field: |f_k'|^2 + (k/r)^2 |f_k|^2 per mode."""
    s = field.grid.nodes
    ks = np.arange(-field.K, field.K + 1)[:, None]
    f = field.coeffs
    derivative = _radial_derivative(s)

    def norm_of(factor):
        power = (_power(len(ks), s, lambda band: derivative(_times(f[band], factor)))
                 + _power(len(ks), s, lambda band: ks[band] * _times(f[band], factor) / s))
        return _volume_norm(power, s)

    return _safely(f"gradient norm is not finite at rmax = {field.grid.rmax}", norm_of,
                   lambda: _largest(f))


def far_field_deviation_l2(solution: VelocitySolution) -> float:
    """||v - v_inf||_{L2} over the grid span (finite only for admissible data)."""
    s = solution.grid.nodes
    return _velocity_norm("L2 far-field deviation", solution, lambda factor: _volume_norm(
        _velocity_densities(solution, False, factor)[0], s))


def far_field_deviation_h1(solution: VelocitySolution) -> float:
    """||v - v_inf||_{H1} = sqrt(L2 deviation^2 + gradient energy), from one density pass."""
    s = solution.grid.nodes

    def norm_of(factor):
        l2, grad = _velocity_densities(solution, True, factor)
        return float(np.hypot(_volume_norm(l2, s), _volume_norm(grad, s)))

    return _velocity_norm("H1 far-field deviation", solution, norm_of)
