"""Norm evaluators: weighted L2, H^{1/2} boundary, discrete H1 energies.

Volume norms use Parseval in the angle and composite trapezoid in radius:
||f||^2_{L_{2,N}} = 2 pi sum_k int |f_k(s)|^2 (1+s^2)^N s ds.  The gradient
energy uses the full polar gradient including the frame-curvature terms, so
constant fields contribute exactly zero.  Every volume norm sums the
(2K+1) x M mode densities over k and takes one product with the radial
weight vector.  The density is accumulated over row bands
(quadrature._bands), each term summed row after row in mode order, which is
the order one einsum over the whole array takes, so banding leaves every norm
bit for bit as it was.  The velocity norms read the profiles a solution
holds: for real data (mirrored terms, v_{-k} = conj(v_k)) those are the rows
k = 0..K, summed as row 0 plus twice rows 1..K, which matches the
whole-array einsum to rounding, not bit for bit.  The first half of a
norm's terms is squared on the worker thread (quadrature._together): the
two radial derivatives of the gradient energy, the v_r deviation of the L2
deviation.  Each term keeps its own sum and the terms are added in order at
the end, so the split leaves every norm bit for bit as it was.
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


def _power(count, s, terms, mirrored=False) -> np.ndarray:
    """sum over modes and terms of |term_k(s_j)|^2 at every node.

    terms[t](band) gives the band's rows of the (modes, nodes) complex term t.
    Each term's squares are summed row after row over the float view, with
    the running sum carried from band to band, and the terms are added at the
    end, in term order: the order of one einsum per whole term, so the sum is
    unchanged.  Mirrored terms (the rows k = 0..K of modes with row -m the
    conjugate of row m) are summed as (sum over t of row 0) plus twice (sum
    over t of rows 1..K).  The first half of the terms is squared on the
    worker thread (quadrature._together), the rest on this one; a single
    term has no first half and is squared here, with no hand-off.
    """
    groups = [[slice(0, 1)], _bands(count, s.size, 1)] if mirrored else [_bands(count, s.size)]
    half = len(terms) // 2
    first, second = _together(lambda: [_squares(bands, terms[:half]) for bands in groups],
                              lambda: [_squares(bands, terms[half:]) for bands in groups],
                              len(terms) * count * s.size if half else 0)
    sums = [sum(a + b) for a, b in zip(first, second)]
    return sums[0] + 2.0 * sums[1] if mirrored else sums[0]


def _squares(bands, terms) -> list:
    """Per term, the sum over the rows of the bands of |term_k(s_j)|^2, as in _power."""
    acc = {}
    for band in bands:
        for t, term in enumerate(terms):
            flat = np.ascontiguousarray(term(band), dtype=complex).view(float)
            rows = np.empty((len(flat) + 1, flat.shape[1]))
            rows[0] = acc.get(t, 0.0)
            np.multiply(flat, flat, out=rows[1:])
            acc[t] = rows.sum(axis=0)
            del flat, rows  # before the next term is formed
    return [a.reshape(-1, 2).sum(axis=1) for a in acc.values()]


def _radial_derivative(f, s) -> np.ndarray:
    """np.gradient(f, s, axis=1) written out for the grid s, bit for bit.

    Inside, the three-point difference for uneven spacing (or the central
    difference when every spacing is exactly equal, as np.gradient does);
    one-sided first differences at the two ends.
    """
    d = np.diff(s)
    out = np.empty(f.shape, dtype=np.result_type(f, float))
    inner = out[:, 1:-1]
    if np.all(d == d[0]):
        np.subtract(f[:, 2:], f[:, :-2], out=inner)
        inner /= 2.0 * d[0]
    else:
        d1, d2 = d[:-1], d[1:]
        np.multiply(-d2 / (d1 * (d1 + d2)), f[:, :-2], out=inner)
        inner += ((d2 - d1) / (d1 * d2)) * f[:, 1:-1]
        inner += (d1 / (d2 * (d1 + d2))) * f[:, 2:]
    out[:, 0] = (f[:, 1] - f[:, 0]) / d[0]
    out[:, -1] = (f[:, -1] - f[:, -2]) / d[-1]
    return out


def _volume_norm(power, s, weight=1.0) -> float:
    """sqrt(2 pi int power(s) weight(s) s ds) by the trapezoid weights."""
    return float(np.sqrt(2.0 * np.pi * (power @ (trapezoid_weights(s) * s * weight))))


def l2_weighted_norm(field: SpectralField, N=0.0) -> float:
    """Volume norm of a scalar field with weight (1+|x|^2)^N; N = 0 recovers plain L2."""
    N = float(N)
    if N < 0.0:
        raise ValueError("weight exponent must be nonnegative")
    s = field.grid.nodes
    power = _power(2 * field.K + 1, s, [lambda band: field.coeffs[band]])
    return _volume_norm(power, s, (1.0 + s * s) ** N)


def h_half_boundary_norm(g: BoundaryTrace) -> float:
    """Trace norm sqrt(sum_k (|k|+1) (|g_phi,k|^2 + |g_r,k|^2))."""
    ks = np.arange(-g.K, g.K + 1)
    terms = (np.abs(ks) + 1.0) * (np.abs(g.g_phi) ** 2 + np.abs(g.g_r) ** 2)
    return float(np.sqrt(np.sum(terms)))


def h1_seminorm(solution: VelocitySolution) -> float:
    """Discrete ||grad v||_{L2}: finite differences in r, exact mode sums in angle.

    Equals the gradient energy of v - v_inf as well, since the constant far
    field has zero gradient (its frame terms cancel exactly).
    """
    s = solution.grid.nodes
    v_r, v_phi = solution.rows
    ik = 1j * solution.terms.ks[:, None]
    # x * (1 / s) is what complex division by the real s computes, for less time
    inv_s = np.reciprocal(s)

    # polar gradient of one Fourier mode: radial derivatives (on the worker
    # thread) plus the angular/frame terms (i k v_r - v_phi)/r and (i k v_phi + v_r)/r
    terms = [lambda band: _radial_derivative(v_r[band], s),
             lambda band: _radial_derivative(v_phi[band], s),
             lambda band: (ik[band] * v_r[band] - v_phi[band]) * inv_s,
             lambda band: (ik[band] * v_phi[band] + v_r[band]) * inv_s]
    return _volume_norm(_power(len(ik), s, terms, solution.terms.mirrored), s)


def scalar_gradient_norm(field: SpectralField) -> float:
    """||grad f||_{L2} of a scalar field: |f_k'|^2 + (k/r)^2 |f_k|^2 per mode."""
    s = field.grid.nodes
    ks = np.arange(-field.K, field.K + 1)[:, None]
    f = field.coeffs
    power = _power(len(ks), s, [lambda band: _radial_derivative(f[band], s),
                                lambda band: ks[band] * f[band] / s])
    return _volume_norm(power, s)


def far_field_deviation_l2(solution: VelocitySolution) -> float:
    """||v - v_inf||_{L2} over the grid span (finite only for admissible data)."""
    s = solution.grid.nodes
    v_r, v_phi = solution.rows
    vinf = solution.terms.vinf
    power = _power(len(v_r), s, [lambda band: v_r[band] - vinf[0, band, None],
                                 lambda band: v_phi[band] - vinf[1, band, None]],
                   solution.terms.mirrored)
    return _volume_norm(power, s)


def far_field_deviation_h1(solution: VelocitySolution) -> float:
    """||v - v_inf||_{H1} = sqrt(L2 deviation^2 + gradient energy)."""
    l2 = far_field_deviation_l2(solution)
    semi = h1_seminorm(solution)
    return float(np.hypot(l2, semi))
