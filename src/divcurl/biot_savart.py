"""Independent Biot-Savart evaluation of the velocity field.

The solution has the singular integral representation

    v(x) = (1/2pi) int (x-y)/|x-y|^2 rho(y) dy + (1/2pi) int (x-y)^perp/|x-y|^2 w(y) dy
         + boundary single layers with densities (g,n) and (g,tau) + v_inf,

whose kernels are the gradient and skew gradient of G(x,y) = ln|x-y| / 2pi.
In complex form both volume terms collapse to d/|d|^2 * (rho + i w) with
d = x - y, and the layers to d/|d|^2 * (g_r + i g_phi).  This module sums
the representation by direct quadrature (midpoint cells in radius,
equispaced angles): every point meets every cell, O(points x cells), with
no far-field approximation and no code shared with the spectral solver it
cross-validates.  Data callables follow the contract of DiskProblem;
values that are not finite or do not broadcast raise ValueError.
"""

from __future__ import annotations

import numpy as np

from .conformal import ExteriorProblem
from .disk import DiskProblem
from .grids import equispaced_angles, synthesize_boundary

__all__ = ["biot_savart_disk", "biot_savart_omega"]

_BOUNDARY_EPS = 1e-12
_BLOCK_PAIRS = 1 << 14
# cells per band of the mapped charge: 64 KB per complex temporary, small
# enough to be reused from the heap instead of faulted in afresh on each call
# (the kernel keeps _BLOCK_PAIRS, where its matrix products run faster)
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


def _kernel_sum(points: np.ndarray, sources: np.ndarray, charge: np.ndarray) -> np.ndarray:
    """sum_j d/|d|^2 charge_j with d = x - sources_j, for every point x.

    Pairs with |d| <= 1e-14 (coincident points) contribute nothing.  Each block
    holds about _BLOCK_PAIRS point x source pairs and runs in real
    arithmetic: with d = a + ib and inv = 1/(a^2 + b^2) it adds the matrix
    products (a inv) @ [Re q, Im q] and (b inv) @ [Re q, Im q] to two sums,
    which give sum (a Re q - b Im q) inv + i sum (a Im q + b Re q) inv.
    """
    cut = 1e-28  # (1e-14)^2
    q = np.ascontiguousarray(charge, dtype=complex).view(float).reshape(-1, 2)
    x_re, x_im = points.real[:, None], points.imag[:, None]
    s_re, s_im = sources.real.copy(), sources.imag.copy()
    sum_a, sum_b = np.zeros((points.size, 2)), np.zeros((points.size, 2))
    rows = max(1, _BLOCK_PAIRS // max(sources.size, 1))
    cols = max(1, _BLOCK_PAIRS // rows)
    for i in range(0, points.size, rows):
        for j in range(0, sources.size, cols):
            a = x_re[i:i + rows] - s_re[j:j + cols]
            b = x_im[i:i + rows] - s_im[j:j + cols]
            inv = a * a
            inv += b * b
            if inv.min() <= cut:
                inv[inv <= cut] = np.inf
            np.divide(1.0, inv, out=inv)
            a *= inv
            b *= inv
            sum_a[i:i + rows] += a @ q[j:j + cols]
            sum_b[i:i + rows] += b @ q[j:j + cols]
    return (sum_a[:, 0] - sum_b[:, 1]) + 1j * (sum_a[:, 1] + sum_b[:, 0])


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


def _field_values(name: str, field, fn, radii, angles):
    """Data on the lattice of a radius column and an angle row: the closed form
    called on (column, row), else the mode profiles interpolated at the radii
    and synthesised at the angles."""
    shape = (radii.size, angles.size)
    if fn is not None:
        return _lattice_values(name, fn(radii, angles), shape)
    nodes = field.grid.nodes
    radii = radii.ravel()
    profiles = np.array([np.interp(radii, nodes, row.real) + 1j * np.interp(radii, nodes, row.imag)
                         for row in field.coeffs])
    ks = np.arange(-field.K, field.K + 1)
    return _lattice_values(name, profiles.T @ np.exp(1j * np.outer(ks, angles.ravel())), shape)


def _evaluate(points, sources, charge, ring, layer, vinf: complex):
    flat = np.ravel(points)
    total = _kernel_sum(flat, sources, charge) + _kernel_sum(flat, ring, layer)
    return (total / (2.0 * np.pi) + vinf).reshape(points.shape)


def biot_savart_disk(x, problem: DiskProblem, n_radial: int = 600, n_angular: int = 256,
                     n_boundary: int = 512, support=None):
    """Velocity v1 + i v2 at exterior points x (a complex scalar or array) by direct quadrature.

    support restricts the volume sum to the annulus carrying data; a cell at x is left out.
    """
    points = np.asarray(x, dtype=complex)
    _check_exterior(points, problem.grid.r0)

    grid = problem.grid
    radii, angles, area = _volume_cells(grid, support, n_radial, n_angular)
    charge = np.zeros((radii.size, angles.size), dtype=complex)
    for name, field, fn, unit in (("divergence", problem.divergence, problem.divergence_fn, 1.0),
                                  ("vorticity", problem.vorticity, problem.vorticity_fn, 1j)):
        if fn is not None or field.coeffs.any():  # a zero field with no callable adds nothing
            charge += unit * _field_values(name, field, fn, radii, angles)
    sources = (radii * np.exp(1j * angles)).ravel()
    charge = (charge * area).ravel()

    theta = equispaced_angles(n_boundary)
    g_r, g_phi = synthesize_boundary(problem.boundary, theta)
    ring = grid.r0 * np.exp(1j * theta)
    layer = (g_r + 1j * g_phi) * (grid.r0 * 2.0 * np.pi / n_boundary)

    out = _evaluate(points, sources, charge, ring, layer, problem.far_field.as_complex)
    return complex(out) if points.ndim == 0 else out


def _mapped_charge(problem: ExteriorProblem, cells, area) -> np.ndarray:
    """(rho + i w)(Phi^-1(x_c)) |(Phi^-1)'(x_c)|^2 times the cell areas, on
    bands of _CHARGE_CELLS // n_angular radii of the (radius x angle) cells."""
    m = problem.map
    charge = np.zeros(cells.shape, dtype=complex)
    rows = max(1, _CHARGE_CELLS // cells.shape[1])
    for i in range(0, cells.shape[0], rows):
        band, out = cells[i:i + rows], charge[i:i + rows]
        jac = np.abs(m.d_inverse(band)) ** 2
        y = m.inverse(band)
        for name, fn, unit in (("divergence", problem.divergence_fn, 1.0),
                               ("vorticity", problem.vorticity_fn, 1j)):
            if fn is not None:
                out += unit * (_lattice_values(name, fn(y), band.shape, cells.shape) * jac)
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
    points = np.asarray(p, dtype=complex)
    m = problem.map
    z = np.asarray(m.forward(points), dtype=complex)
    _check_exterior(z, m.r0)

    radii, angles, area = _volume_cells(problem.grid, support, n_radial, n_angular)
    cells = radii * np.exp(1j * angles)
    charge = _mapped_charge(problem, cells, area)

    theta = equispaced_angles(n_boundary)
    ring = m.r0 * np.exp(1j * theta)
    if problem.boundary_fn is not None:
        ghat = np.conj(m.d_inverse(ring)) * np.asarray(
            problem.boundary_fn(m.inverse(ring)), dtype=complex)
        density = ghat * np.exp(-1j * theta)  # g_r + i g_phi on the circle
        layer = density * (m.r0 * 2.0 * np.pi / n_boundary)
    else:
        layer = np.zeros_like(ring)

    vhat = _evaluate(z, cells.ravel(), charge.ravel(), ring, layer, problem.far_field.as_complex)
    out = m.pushforward(z, vhat)
    return complex(out) if points.ndim == 0 else out
