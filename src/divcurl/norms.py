"""Norm evaluators: weighted L2, H^{1/2} boundary, discrete H1 energies.

Volume norms use Parseval in the angle and composite trapezoid in radius:
||f||^2_{L_{2,N}} = 2 pi sum_k int |f_k(s)|^2 (1+s^2)^N s ds.  The gradient
energy uses the full polar gradient including the frame-curvature terms, so
constant fields contribute exactly zero.  Every volume norm sums the
(2K+1) x M mode densities over k and takes one product with the radial
weight vector.
"""

from __future__ import annotations

import numpy as np

from .disk import VelocitySolution, vinf_coefficients
from .grids import BoundaryTrace, SpectralField
from .quadrature import trapezoid_weights

__all__ = [
    "l2_weighted_norm",
    "h_half_boundary_norm",
    "h1_seminorm",
    "scalar_gradient_norm",
    "far_field_deviation_l2",
    "far_field_deviation_h1",
]


def _power(values) -> np.ndarray:
    """sum_k |values_k(s_j)|^2 at every node of a (modes, nodes) complex array."""
    flat = np.ascontiguousarray(values, dtype=complex).view(float)
    return np.einsum("kj,kj->j", flat, flat).reshape(-1, 2).sum(axis=1)


def _volume_norm(power, s, weight=1.0) -> float:
    """sqrt(2 pi int power(s) weight(s) s ds) by the trapezoid weights."""
    return float(np.sqrt(2.0 * np.pi * (power @ (trapezoid_weights(s) * s * weight))))


def l2_weighted_norm(field: SpectralField, N=0.0) -> float:
    """Volume norm of a scalar field with weight (1+|x|^2)^N; N = 0 recovers plain L2."""
    N = float(N)
    if N < 0.0:
        raise ValueError("weight exponent must be nonnegative")
    s = field.grid.nodes
    return _volume_norm(_power(field.coeffs), s, (1.0 + s * s) ** N)


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
    v_r, v_phi = solution.profiles()
    ik = 1j * np.arange(-solution.K, solution.K + 1)[:, None]
    # polar gradient of one Fourier mode: radial derivatives plus the
    # angular/frame terms (i k v_r - v_phi)/r and (i k v_phi + v_r)/r
    power = _power(np.gradient(v_r, s, axis=1))
    power += _power(np.gradient(v_phi, s, axis=1))
    power += _power((ik * v_r - v_phi) / s)
    power += _power((ik * v_phi + v_r) / s)
    return _volume_norm(power, s)


def scalar_gradient_norm(field: SpectralField) -> float:
    """||grad f||_{L2} of a scalar field: |f_k'|^2 + (k/r)^2 |f_k|^2 per mode."""
    s = field.grid.nodes
    ks = np.arange(-field.K, field.K + 1)[:, None]
    power = _power(np.gradient(field.coeffs, s, axis=1)) + _power(ks * field.coeffs / s)
    return _volume_norm(power, s)


def far_field_deviation_l2(solution: VelocitySolution) -> float:
    """||v - v_inf||_{L2} over the grid span (finite only for admissible data)."""
    s = solution.grid.nodes
    v_r, v_phi = solution.profiles()
    vinf = np.array([vinf_coefficients(solution.far_field, k)
                     for k in range(-solution.K, solution.K + 1)], dtype=complex)
    return _volume_norm(_power(v_r - vinf[:, :1]) + _power(v_phi - vinf[:, 1:]), s)


def far_field_deviation_h1(solution: VelocitySolution) -> float:
    """||v - v_inf||_{H1} = sqrt(L2 deviation^2 + gradient energy)."""
    l2 = far_field_deviation_l2(solution)
    semi = h1_seminorm(solution)
    return float(np.hypot(l2, semi))
