"""Independent Biot-Savart evaluation of the velocity field.

The solution is v(x) = (1/2pi) int d/|d|^2 (rho + i w)(y) dy plus the boundary
single layers d/|d|^2 (g_r + i g_phi) and v_inf, in complex form with d = x - y
(the gradient and skew gradient of G = ln|x-y| / 2pi).  This module sums it by
direct quadrature on midpoint cells s = r e^{i theta} (radii x equispaced
angles): every point meets every cell, with no far-field approximation and no
code shared with the spectral solver it cross-validates.  The cells form a
polar lattice, so with x = rho e^{i phi}
    |x - s|^2 = (rho - r)^2 + 4 rho r sin^2((theta - phi)/2),
two nonnegative terms (no cancellation; a coincident cell gives 0).  For a
block of points and a band of radii, about 2^16 pairs (512 KB per float
temporary), |d|^2 is one batched matrix product and the far cells sum as
x (inv @ q) - inv @ (s q), inv = 1/|d|^2: one more matrix product.  Cells with
|d| < |x|/32 are summed as d inv q instead, where the far form would cancel;
cells within 1e-14 of x are left out.  It all runs on the calling thread.
Data callables follow the contract of DiskProblem; values that are not finite
or do not broadcast raise ValueError.
"""

from __future__ import annotations

import numpy as np

from .conformal import ExteriorProblem
from .disk import DiskProblem
from .grids import equispaced_angles, synthesize_boundary

__all__ = ["biot_savart_disk", "biot_savart_omega"]

_BOUNDARY_EPS = 1e-12
# point x cell pairs per band of the kernel: 512 KB per float temporary
_BAND_PAIRS = 1 << 16
# a cell nearer to x than _NEAR |x| is summed in Cartesian form
_NEAR = 1.0 / 32.0
# cells per band of the charge: 64 KB per complex temporary, small enough
# to be reused from the heap instead of faulted in afresh on each call
_CHARGE_CELLS = 1 << 12


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


def _check_counts(**counts):
    """Refuse a lattice count below 1: an empty lattice sums to nothing."""
    for name, count in counts.items():
        if not count >= 1:
            raise ValueError(f"oracle lattice count {name} must be at least 1, got {count}")


def _volume_cells(grid, support, n_radial: int, n_angular: int):
    """The (radius x angle) midpoint cell lattice over support, kept separable:
    a radius column, an angle row and the cell areas (a column)."""
    lo, hi = support if support is not None else (grid.r0, grid.rmax)
    if lo < grid.r0 - 1e-12 or hi > grid.rmax + 1e-12:
        raise ValueError("quadrature support must lie within the grid span")
    if lo >= hi:
        raise ValueError("quadrature support must be an interval lo < hi")
    radii = (lo + (np.arange(n_radial) + 0.5) * (hi - lo) / n_radial)[:, None]
    angles = equispaced_angles(n_angular)[None, :]
    area = radii * (hi - lo) / n_radial * (2.0 * np.pi / n_angular)
    return radii, angles, area


def _lattice_sum(points: np.ndarray, radii, angles, charge: np.ndarray) -> np.ndarray:
    """sum_c d/|d|^2 q_c with d = x - s_c over the cells s_c = radii[a] e^{i angles[b]}
    carrying q_c = charge[a, b], for every point x of the flat array points.

    A cell with |d|^2 <= 1e-28 (coincident with x) contributes nothing.
    """
    radii, angles = np.ravel(radii), np.ravel(angles)
    n_a = angles.size
    charge = np.reshape(charge, (radii.size, n_a))
    unit = np.exp(1j * angles)
    rho, phi = np.abs(points), np.angle(points)
    near2 = (_NEAR * rho) ** 2
    rows = max(1, min(points.size, _BAND_PAIRS // n_a))
    m = max(1, min(radii.size, _BAND_PAIRS // (rows * n_a)))
    starts = np.arange(0, radii.size, m)
    r_lo, r_hi = np.minimum.reduceat(radii, starts), np.maximum.reduceat(radii, starts)
    coef, cols = np.empty((rows, m, 2)), np.empty((m, n_a, 2), dtype=complex)
    dist_buf = np.empty(rows * m * n_a)
    sums, near = np.zeros((points.size, 4)), np.zeros(points.size, dtype=complex)
    for i in range(0, points.size, rows):
        x, r_x = points[i:i + rows], rho[i:i + rows, None]
        n, four_r_x = x.size, 4.0 * r_x
        h = np.ones((n, 2, n_a))  # rows [1, sin^2((theta - phi)/2)] of each point
        np.square(np.sin(0.5 * (angles - phi[i:i + rows, None])), out=h[:, 1])
        # close[band]: the points with a radius of the band within |x|/32 of |x|
        close = ((1.0 - _NEAR) * r_x.T < r_hi[:, None]) & ((1.0 + _NEAR) * r_x.T > r_lo[:, None])
        for band, j in enumerate(starts):
            r = radii[j:j + m]
            c = coef[:n, :r.size]  # [(rho - r)^2, 4 rho r]
            np.square(np.subtract(r_x, r, out=c[..., 0]), out=c[..., 0])
            np.multiply(four_r_x, r, out=c[..., 1])
            dist = np.matmul(c, h, out=dist_buf[:n * r.size * n_a].reshape(n, r.size, n_a))
            k = np.flatnonzero(close[band])
            if k.size:
                p, a, b = np.nonzero(dist[k] < near2[i + k, None, None])
                p = k[p]
                dist[p, a, b] = np.inf  # out of the far sum
                d = x[p] - r[a] * unit[b]
                inv = d.real * d.real + d.imag * d.imag
                inv[inv <= 1e-28] = np.inf
                np.divide(1.0, inv, out=inv)
                term = d * inv * charge[j + a, b]
                near[i:i + rows] += (np.bincount(p, term.real, n)
                                     + 1j * np.bincount(p, term.imag, n))
            q = cols[:r.size]  # columns [Re q, Im q, Re sq, Im sq] as floats
            q[..., 0] = charge[j:j + m]
            np.multiply(q[..., 0], r[:, None] * unit, out=q[..., 1])
            np.divide(1.0, dist, out=dist)
            sums[i:i + rows] += dist.reshape(n, -1) @ q.view(float).reshape(-1, 4)
    return points * (sums[:, 0] + 1j * sums[:, 1]) - (sums[:, 2] + 1j * sums[:, 3]) + near


def _lattice_values(name: str, values, shape, lattice=None) -> np.ndarray:
    """Data values broadcast to shape, a band of the lattice of shape lattice
    (default: shape itself); raises unless that works and all are finite."""
    values = np.asarray(values, dtype=complex)
    try:
        values = np.broadcast_to(values, shape)
    except ValueError:
        raise ValueError(f"{name} data of shape {values.shape} does not broadcast "
                         f"to the {lattice or shape} oracle lattice") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} data is not finite on the oracle lattice")
    return values


def _field_bands(name: str, field, fn, radii, angles, rows: int):
    """(band, values): data on the lattice of a radius column and an angle row,
    on bands of rows radii: the closed form called on (band column, row), else
    the mode profiles interpolated at the radii and synthesised at the angles."""
    lattice = (radii.size, angles.size)
    if fn is None:
        nodes = field.grid.nodes
        profiles = np.array([np.interp(radii.ravel(), nodes, row.real)
                             + 1j * np.interp(radii.ravel(), nodes, row.imag)
                             for row in field.coeffs]).T
        phases = np.exp(1j * np.outer(np.arange(-field.K, field.K + 1), angles.ravel()))
    for i in range(0, radii.size, rows):
        band = slice(i, i + rows)
        values = fn(radii[band], angles) if fn is not None else profiles[band] @ phases
        yield band, _lattice_values(name, values, (radii[band].size, angles.size), lattice)


def _disk_charge(problem: DiskProblem, radii, angles, area) -> np.ndarray:
    """(rho + i w) times the cell areas on the (radius x angle) lattice, the
    data formed on bands of _CHARGE_CELLS // n_angular radii."""
    charge = np.zeros((radii.size, angles.size), dtype=complex)
    rows = max(1, _CHARGE_CELLS // angles.size)
    for name, field, fn, unit in (("divergence", problem.divergence, problem.divergence_fn, 1.0),
                                  ("vorticity", problem.vorticity, problem.vorticity_fn, 1j)):
        if fn is not None or field.coeffs.any():  # a zero field with no callable adds nothing
            for band, values in _field_bands(name, field, fn, radii, angles, rows):
                charge[band] += unit * values
    charge *= area
    return charge


def _evaluate(points, radii, angles, charge, r0: float, theta, layer, vinf: complex):
    flat = np.ravel(points)
    total = _lattice_sum(flat, radii, angles, charge) + _lattice_sum(flat, r0, theta, layer)
    return (total / (2.0 * np.pi) + vinf).reshape(points.shape)


def biot_savart_disk(x, problem: DiskProblem, n_radial: int = 600, n_angular: int = 256,
                     n_boundary: int = 512, support=None):
    """Velocity v1 + i v2 at exterior points x (a complex scalar or array) by direct quadrature.

    support restricts the volume sum to the annulus carrying data; a cell at x is left out.
    """
    _check_counts(n_radial=n_radial, n_angular=n_angular, n_boundary=n_boundary)
    points = np.asarray(x, dtype=complex)
    _check_exterior(points, problem.grid.r0)

    grid = problem.grid
    radii, angles, area = _volume_cells(grid, support, n_radial, n_angular)
    charge = _disk_charge(problem, radii, angles, area)

    theta = equispaced_angles(n_boundary)
    g_r, g_phi = synthesize_boundary(problem.boundary, theta)
    layer = (g_r + 1j * g_phi) * (grid.r0 * 2.0 * np.pi / n_boundary)

    out = _evaluate(points, radii, angles, charge, grid.r0, theta, layer,
                    problem.far_field.as_complex)
    return complex(out) if points.ndim == 0 else out


def _mapped_charge(problem: ExteriorProblem, radii, angles, area) -> np.ndarray:
    """(rho + i w)(Phi^-1(x_c)) |(Phi^-1)'(x_c)|^2 times the cell areas on the
    (radius x angle) lattice, its disk-plane cells x_c = radii[band] e^{i angles}
    formed band by band, on bands of _CHARGE_CELLS // n_angular radii."""
    m = problem.map
    phases = np.exp(1j * angles)
    shape = (radii.size, angles.size)
    charge = np.zeros(shape, dtype=complex)
    rows = max(1, _CHARGE_CELLS // angles.size)
    for i in range(0, radii.size, rows):
        band, out = radii[i:i + rows] * phases, charge[i:i + rows]
        jac = np.abs(m.d_inverse(band)) ** 2
        y = m.inverse(band)
        for name, fn, unit in (("divergence", problem.divergence_fn, 1.0),
                               ("vorticity", problem.vorticity_fn, 1j)):
            if fn is not None:
                out += unit * (_lattice_values(name, fn(y), band.shape, shape) * jac)
        out *= area[i:i + rows]
    return charge


def biot_savart_omega(p, problem: ExteriorProblem, n_radial: int = 600, n_angular: int = 256,
                      n_boundary: int = 512, support=None):
    """Velocity in Omega by the mapped integral representation.

    The volume kernels depend only on Phi(p) - Phi(y), so with disk-plane
    integration cells x_c the sum needs no forward map evaluations: the data
    enters as |(Phi^-1)'(x_c)|^2 w(Phi^-1(x_c)), the layers carry the
    covariant trace, and the whole field (far-field term included) is pushed
    forward through conj(Phi'(p)).  support is a disk-plane radial interval.
    """
    _check_counts(n_radial=n_radial, n_angular=n_angular, n_boundary=n_boundary)
    points = np.asarray(p, dtype=complex)
    m = problem.map
    z = np.asarray(m.forward(points), dtype=complex)
    _check_exterior(z, m.r0)

    radii, angles, area = _volume_cells(problem.grid, support, n_radial, n_angular)
    charge = _mapped_charge(problem, radii, angles, area)

    theta = equispaced_angles(n_boundary)
    ring = m.r0 * np.exp(1j * theta)
    if problem.boundary_fn is not None:
        ghat = np.conj(m.d_inverse(ring)) * np.asarray(
            problem.boundary_fn(m.inverse(ring)), dtype=complex)
        density = ghat * np.exp(-1j * theta)  # g_r + i g_phi on the circle
        layer = density * (m.r0 * 2.0 * np.pi / n_boundary)
    else:
        layer = np.zeros_like(ring)

    vhat = _evaluate(z, radii, angles, charge, m.r0, theta, layer, problem.far_field.as_complex)
    out = m.pushforward(z, vhat)
    return complex(out) if points.ndim == 0 else out
