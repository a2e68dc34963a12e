"""Independent Biot-Savart evaluation of the velocity field.

The solution has the singular integral representation

    v(x) = (1/2pi) int (x-y)/|x-y|^2 rho(y) dy + (1/2pi) int (x-y)^perp/|x-y|^2 w(y) dy
         + boundary single layers with densities (g,n) and (g,tau) + v_inf,

whose kernels are the gradient and skew gradient of G(x,y) = ln|x-y| / 2pi.
In complex form both volume terms collapse to d/|d|^2 * (rho + i w) with
d = x - y, and the layers to d/|d|^2 * (g_r + i g_phi).  This module sums the
representation by direct quadrature (midpoint cells in radius, equispaced
angles), deliberately without any acceleration: its whole purpose is to
cross-validate the spectral solver.  On a mapped domain the same sums run in
disk-plane coordinates against the Jacobian-weighted data and the result is
pushed forward through conj(Phi').
"""

from __future__ import annotations

import numpy as np

from .conformal import ConformalMap, ExteriorProblem
from .disk import DiskProblem
from .grids import equispaced_angles, synthesize_boundary

__all__ = ["green_function", "biot_savart_disk", "biot_savart_omega"]

_BOUNDARY_EPS = 1e-12


def _check_exterior(z, r0: float):
    z = np.asarray(z, dtype=complex)
    radius = np.abs(z)
    if np.any(np.abs(radius - r0) <= _BOUNDARY_EPS * r0):
        raise ValueError(
            "evaluation point lies on the boundary circle; the layer kernel is singular there"
        )
    if np.any(radius < r0):
        raise ValueError("evaluation point lies inside the solid")
    return z


def green_function(x, y, m: ConformalMap = None) -> float:
    """G(x, y) = ln|Phi(x) - Phi(y)| / (2 pi); identity map when m is None."""
    x = complex(x)
    y = complex(y)
    if x == y:
        raise ValueError("Green's function is singular at coincident points")
    if m is not None:
        _check_exterior(m.forward(np.array([x, y])), m.r0)
        x = complex(m.forward(x))
        y = complex(m.forward(y))
    return float(np.log(np.abs(x - y)) / (2.0 * np.pi))


def _volume_cells(lo: float, hi: float, n_radial: int, n_angular: int):
    radii = lo + (np.arange(n_radial) + 0.5) * (hi - lo) / n_radial
    angles = equispaced_angles(n_angular)
    rr, pp = np.meshgrid(radii, angles, indexing="ij")
    area = rr * (hi - lo) / n_radial * (2.0 * np.pi / n_angular)
    return rr, pp, area


def _kernel_sum(x: complex, sources: np.ndarray, charge: np.ndarray, exclusion: float) -> complex:
    d = x - sources
    dist2 = d.real**2 + d.imag**2
    cut = max(exclusion, 1e-14) ** 2
    keep = dist2 > cut
    return complex(np.sum((d[keep] / dist2[keep]) * charge[keep]))


def _interp_mode_profiles(field, radii):
    """Linear radial interpolation of every mode profile, fallback when no callable."""
    nodes = field.grid.nodes
    flat = radii.ravel()
    out = np.empty((field.coeffs.shape[0], flat.size), dtype=complex)
    for row, profile in enumerate(field.coeffs):
        out[row] = np.interp(flat, nodes, profile.real) + 1j * np.interp(flat, nodes, profile.imag)
    return out.reshape((field.coeffs.shape[0],) + radii.shape)


def _field_values(field, fn, rr, pp):
    if fn is not None:
        return np.asarray(fn(rr, pp), dtype=complex)
    profiles = _interp_mode_profiles(field, rr)
    ks = np.arange(-field.K, field.K + 1)
    phases = np.exp(1j * ks[:, None, None] * pp[None, :, :])
    return np.sum(profiles * phases, axis=0)


def _points(x, exclusion_radius: float):
    if exclusion_radius < 0.0:
        raise ValueError("exclusion radius must be nonnegative")
    return np.asarray(x, dtype=complex)


def _evaluate(points, sources, charge, ring, layer, vinf: complex, exclusion: float):
    out = np.empty(points.shape, dtype=complex)
    flat = out.ravel()
    for i, xi in enumerate(np.ravel(points)):
        total = _kernel_sum(complex(xi), sources, charge, exclusion)
        total += _kernel_sum(complex(xi), ring, layer, 0.0)
        flat[i] = total / (2.0 * np.pi) + vinf
    return out


def biot_savart_disk(x, problem: DiskProblem, n_radial: int = 600, n_angular: int = 256,
                     n_boundary: int = 512, support=None, exclusion_radius: float = 0.0):
    """Velocity v1 + i v2 at exterior points by direct quadrature.

    support restricts the volume sum to the annulus actually carrying data;
    the lattice is built once and reused for every point.  x may be a complex
    scalar or array; exclusion_radius drops the cells next to an evaluation
    point inside the data support (the excised contribution is O(h * |w|),
    first order).
    """
    points = _points(x, exclusion_radius)
    _check_exterior(points, problem.grid.r0)

    grid = problem.grid
    lo, hi = support if support is not None else (grid.r0, grid.rmax)
    if lo < grid.r0 - 1e-12 or hi > grid.rmax + 1e-12:
        raise ValueError("quadrature support must lie within the grid span")
    rr, pp, area = _volume_cells(lo, hi, n_radial, n_angular)
    w_vals = _field_values(problem.vorticity, problem.vorticity_fn, rr, pp)
    rho_vals = _field_values(problem.divergence, problem.divergence_fn, rr, pp)
    sources = (rr * np.exp(1j * pp)).ravel()
    charge = ((rho_vals + 1j * w_vals) * area).ravel()

    theta = equispaced_angles(n_boundary)
    g_r, g_phi = synthesize_boundary(problem.boundary, theta)
    ring = grid.r0 * np.exp(1j * theta)
    layer = (g_r + 1j * g_phi) * (grid.r0 * 2.0 * np.pi / n_boundary)

    out = _evaluate(points, sources, charge, ring, layer,
                    problem.far_field.as_complex, exclusion_radius)
    return complex(out) if points.ndim == 0 else out


def biot_savart_omega(p, problem: ExteriorProblem, n_radial: int = 600, n_angular: int = 256,
                      n_boundary: int = 512, support=None, exclusion_radius: float = 0.0):
    """Velocity in Omega by the mapped integral representation.

    The volume kernels depend only on Phi(p) - Phi(y), so with disk-plane
    integration cells x_c the sum needs no forward map evaluations: the data
    enters as |(Phi^-1)'(x_c)|^2 w(Phi^-1(x_c)), the layers carry the
    covariant trace, and the whole field (far-field term included) is pushed
    forward through conj(Phi'(p)).  support is a disk-plane radial interval.
    """
    points = _points(p, exclusion_radius)
    m = problem.map
    z = np.asarray(m.forward(points), dtype=complex)
    _check_exterior(z, m.r0)

    grid = problem.grid
    lo, hi = support if support is not None else (grid.r0, grid.rmax)
    rr, pp, area = _volume_cells(lo, hi, n_radial, n_angular)
    cells = rr * np.exp(1j * pp)
    jac = np.abs(m.d_inverse(cells)) ** 2
    y = m.inverse(cells)
    w_vals = (np.asarray(problem.vorticity_fn(y), dtype=complex) * jac
              if problem.vorticity_fn is not None else np.zeros_like(rr, dtype=complex))
    rho_vals = (np.asarray(problem.divergence_fn(y), dtype=complex) * jac
                if problem.divergence_fn is not None else np.zeros_like(rr, dtype=complex))
    charge = ((rho_vals + 1j * w_vals) * area).ravel()

    theta = equispaced_angles(n_boundary)
    ring = m.r0 * np.exp(1j * theta)
    if problem.boundary_fn is not None:
        ghat = np.conj(m.d_inverse(ring)) * np.asarray(
            problem.boundary_fn(m.inverse(ring)), dtype=complex)
        density = ghat * np.exp(-1j * theta)  # g_r + i g_phi on the circle
        layer = density * (m.r0 * 2.0 * np.pi / n_boundary)
    else:
        layer = np.zeros_like(ring)

    vhat = _evaluate(z, cells.ravel(), charge, ring, layer,
                     problem.far_field.as_complex, exclusion_radius)
    out = m.pushforward(z, vhat)
    return complex(out) if points.ndim == 0 else out
