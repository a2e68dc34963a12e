"""Conformal transfer of the exterior div-curl problem to the disk.

A map Phi carries the physical exterior domain Omega onto the exterior of the
disk r >= r0, normalized so Phi(p) ~ p at infinity; the disk itself is the
identity map.  Complex velocities transform covariantly,
V(p) = conj(Phi'(p)) * Vhat(Phi(p)) (ConformalMap.pushforward), and the
data pulls back with the Jacobian weight |(Phi^-1)'|^2:

    div vhat = |(Phi^-1)'|^2 rho(Phi^-1),   curl vhat = |(Phi^-1)'|^2 w(Phi^-1),

so the disk solver applies verbatim to the weighted data.  The whole field,
far-field term included, is pushed forward through conj(Phi'); that keeps the
boundary trace exact and still recovers v_inf at infinity since Phi' -> 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import DiskProblem, FarField, VelocitySolution, solve_disk
from .grids import (BoundaryTrace, RadialGrid, SpectralField, analysis_angles, analyze,
                    equispaced_angles)

__all__ = [
    "ConformalMap",
    "MapVerificationError",
    "joukowski_map",
    "identity_map",
    "verify_map",
    "ExteriorProblem",
    "pullback_problem",
    "ExteriorSolution",
    "solve_exterior",
]


class MapVerificationError(ValueError):
    pass


_INSIDE = 1e-12  # disk-plane points with |z| < r0 (1 - _INSIDE) lie inside the disk
_SINGULAR = 1e-12  # and points with |(Phi^-1)'(z)| <= _SINGULAR are singular points of the map


@dataclass(frozen=True, repr=False)
class ConformalMap:
    """Conformal map data: forward Phi, inverse Phi^-1, and (Phi^-1)'.

    forward maps Omega onto {|z| >= r0}; inverse and d_inverse act on the disk
    exterior.  All three are vectorized complex callables.
    """

    forward: object
    inverse: object
    d_inverse: object
    r0: float
    label: str = "custom"
    params: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.r0 < np.inf:
            raise ValueError("image disk radius must be positive and finite")

    def pushforward(self, z, v_hat):
        """Omega velocity conj(Phi') * v_hat at Phi^-1(z), from disk-plane velocities at z."""
        return np.conj(1.0 / self.d_inverse(z)) * v_hat

    def singular(self, z):
        """Mask of disk-plane points outside the disk where (Phi^-1)' vanishes.

        The pushforward is undefined there.  On the Joukowski slit (c = r0)
        these are the tips z = +-r0; at -r0 (Phi^-1)' is rounding-small
        rather than exactly zero.
        """
        z = np.asarray(z, dtype=complex)
        outside = np.abs(z) >= self.r0 * (1.0 - _INSIDE)
        out = np.zeros(z.shape, dtype=bool)
        out[outside] = np.abs(self.d_inverse(z[outside])) <= _SINGULAR
        return out

    def __repr__(self):
        return f"ConformalMap({self.label}, r0={self.r0}, params={self.params})"


def joukowski_map(c: float, r0: float) -> ConformalMap:
    """Map between the exterior of the ellipse with foci +-2c and the disk r >= r0.

    Phi^-1(z) = z + c^2/z sends |z| = r0 to the ellipse with semi-axes
    r0 + c^2/r0 and r0 - c^2/r0; c = r0 degenerates to the slit [-2c, 2c]
    (whose two sides the disk pullback handles automatically), and c = 0 is
    the identity.  The forward map Phi(p) = (p + R)/2 takes one square root,
    R = +-sqrt(p^2 - 4c^2) with the sign of Re p, so Phi(p) ~ p at infinity
    and the cut is the slit.  p^2 - 4c^2 is formed in real arithmetic, its
    imaginary part 2xy keeping the signed zero of y.  The product of
    principal roots sqrt(p-2c) sqrt(p+2c) would lose it: p + 2c turns a
    -0.0 imaginary part into +0.0, so p = x - 0j with x < -2c lands on the
    interior branch (W. Kahan, "Branch Cuts for Complex Elementary
    Functions, or Much Ado About Nothing's Sign Bit", 1987).
    """
    if not 0.0 <= c <= r0:
        raise ValueError("joukowski parameter must satisfy 0 <= c <= r0")
    if c == 0.0:
        return identity_map(r0)

    c2 = c * c

    def inverse(z):
        z = np.asarray(z, dtype=complex)
        return z + c2 / z

    def d_inverse(z):
        z = np.asarray(z, dtype=complex)
        return 1.0 - c2 / (z * z)

    def forward(p):
        p = np.asarray(p, dtype=complex)
        x, y = p.real, p.imag
        root = np.empty(p.shape, dtype=complex)
        root.real = (x - 2.0 * c) * (x + 2.0 * c) - y * y
        root.imag = 2.0 * x * y
        np.sqrt(root, out=root)  # out= keeps a 0-d input an array for the in-place steps
        np.negative(root, out=root, where=np.signbit(x))
        root += p
        root *= 0.5
        return root[()]  # a numpy scalar for 0-d input, as inverse gives

    return ConformalMap(forward, inverse, d_inverse, r0, label="joukowski", params=(c,))


def identity_map(r0: float) -> ConformalMap:
    ident = lambda z: np.asarray(z, dtype=complex)
    ones = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    return ConformalMap(ident, ident, ones, r0, label="identity")


def verify_map(m: ConformalMap) -> dict:
    """Check the far-field asymptotics and the round trip on the circles |z| = 2, 4, 8, 32 r0.

    |Phi^-1(z) - z| must decay like C/|z| and |(Phi^-1)'(z) - 1| like C/|z|^2;
    the constants are calibrated on the innermost test circle and rechecked
    (with slack) on the others.  Raises MapVerificationError on failure, a
    constant or round trip that is not finite included.
    """
    radii = [r * m.r0 for r in (2.0, 4.0, 8.0, 32.0)]
    ray = np.exp(1j * equispaced_angles(64))

    c_shift = c_deriv = 0.0
    for i, radius in enumerate(radii):
        z = radius * ray
        shift = np.max(np.abs(m.inverse(z) - z)) * radius
        deriv = np.max(np.abs(m.d_inverse(z) - 1.0)) * radius**2
        if i == 0:
            c_shift, c_deriv = shift, deriv
        if not (shift <= 2.0 * c_shift + 1e-9 and deriv <= 2.0 * c_deriv + 1e-9
                and np.isfinite(c_shift) and np.isfinite(c_deriv)):
            raise MapVerificationError(
                f"far-field asymptotics violated at |z| = {radius}: "
                f"|Phi^-1(z)-z|*|z| = {shift:.3e}, |(Phi^-1)'-1|*|z|^2 = {deriv:.3e}"
            )
        trip = np.max(np.abs(m.forward(m.inverse(z)) - z)) / radius
        if not trip <= 1e-10:
            raise MapVerificationError(
                f"round trip Phi(Phi^-1(z)) != z at |z| = {radius}: rel err {trip:.3e}"
            )
    return {"shift_constant": c_shift, "derivative_constant": c_deriv}


@dataclass(frozen=True, eq=False)
class ExteriorProblem:
    """Div-curl data on a general exterior domain described by a conformal map.

    vorticity_fn/divergence_fn take complex points of Omega and return values;
    boundary_fn takes complex boundary points and returns the complex velocity
    g1 + i g2 there.  Any of them may be None (zero data).  They are called on
    bands of lattice rows of mapped points, so they must be pointwise and
    follow NumPy broadcasting.
    """

    map: ConformalMap
    grid: RadialGrid
    K: int
    vorticity_fn: object = None
    divergence_fn: object = None
    boundary_fn: object = None
    far_field: FarField = FarField()

    def __post_init__(self):
        if not abs(self.grid.r0 - self.map.r0) <= 1e-12 * self.map.r0:
            raise ValueError("grid inner radius must equal the map's disk radius")
        if self.K < 1:
            raise ValueError("need at least the k = 1 mode")


# Lattice points per band of _weighted_sampler: 64 KB per complex temporary,
# which stays in cache and is reused from the heap, where a whole-lattice
# temporary (1.5 MB at K = 12, M = 1501) is a fresh mapping faulted in per call.
_BAND_POINTS = 4096


def _weighted_sampler(m: ConformalMap, data_fn):
    """(r, phi) -> |(Phi^-1)'|^2 * data(Phi^-1(z)) at z = r e^{i phi}, broadcast,
    and exactly 0 where (Phi^-1)'(z) = 0 (the slit tips).

    data_fn is called on bands of leading-axis rows, about _BAND_POINTS
    points each, whose values are written into one array of the broadcast shape.
    """
    if data_fn is None:
        return None

    def weighted(z):
        jac = np.abs(m.d_inverse(z)) ** 2
        values = np.asarray(data_fn(m.inverse(z)))
        out = np.zeros(np.broadcast_shapes(jac.shape, values.shape), np.result_type(jac, values))
        return np.multiply(jac, values, out=out, where=jac != 0.0)  # no 0 * inf at a tip

    def sampled(r, phi):
        r, e = np.asarray(r), np.exp(1j * np.asarray(phi))
        shape = np.broadcast_shapes(r.shape, e.shape)
        size = math.prod(shape)
        if size <= _BAND_POINTS:
            return weighted(r * e)
        rows = max(1, _BAND_POINTS * shape[0] // size)
        r, e = np.broadcast_to(r, shape), np.broadcast_to(e, shape)
        out = None
        for i in range(0, shape[0], rows):
            band = weighted(r[i:i + rows] * e[i:i + rows])
            if out is None:
                out = np.empty(shape, band.dtype)
            elif np.result_type(out, band) != out.dtype:  # a later band widens the type
                out = out.astype(np.result_type(out, band))
            out[i:i + rows] = band
        return out

    return sampled


def pullback_boundary_trace(m: ConformalMap, boundary_fn, K: int) -> BoundaryTrace:
    """Covariant trace ghat(z) = conj((Phi^-1)'(z)) g(Phi^-1(z)) on the circle."""
    if boundary_fn is None:
        return BoundaryTrace.zeros(K)
    theta = analysis_angles(K)
    zb = m.r0 * np.exp(1j * theta)
    ghat = np.conj(m.d_inverse(zb)) * np.asarray(boundary_fn(m.inverse(zb)), dtype=complex)
    polar = ghat * np.exp(-1j * theta)
    return BoundaryTrace.from_samples(polar.real + 0j, polar.imag + 0j, K)


def pullback_problem(problem: ExteriorProblem) -> DiskProblem:
    """The disk problem of the module formulas: weighted data sampled on the
    mapped polar lattice and analyzed, their samplers, and the covariant trace."""
    m = problem.map
    grid = problem.grid
    r, phi = grid.nodes[:, None], analysis_angles(problem.K)[None, :]

    q_fn = _weighted_sampler(m, problem.vorticity_fn)
    rc_fn = _weighted_sampler(m, problem.divergence_fn)
    q = analyze(grid, q_fn(r, phi), problem.K) if q_fn else SpectralField.zeros(grid, problem.K)
    rc = analyze(grid, rc_fn(r, phi), problem.K) if rc_fn else SpectralField.zeros(grid, problem.K)
    g_hat = pullback_boundary_trace(m, problem.boundary_fn, problem.K)
    return DiskProblem(q, rc, g_hat, problem.far_field, vorticity_fn=q_fn, divergence_fn=rc_fn)


@dataclass(frozen=True, eq=False)
class ExteriorSolution:
    """Velocity sampler over Omega: the disk-plane solution pushed forward through the map."""

    disk_solution: VelocitySolution
    map: ConformalMap

    def sample_image(self, z) -> np.ndarray:
        """Cartesian velocity v1 + i v2 in Omega at Phi^-1(z), from disk-plane points z.

        Points inside the disk (|z| < r0) and singular points of the map are
        marked NaN instead of raising or warning, so lattice dumps keep their shape.
        """
        m = self.map
        z = np.asarray(z, dtype=complex)
        inside = np.abs(z) < m.r0 * (1.0 - _INSIDE)
        z_safe = np.where(inside, m.r0 * (1.0 + _INSIDE) * np.exp(1j * np.angle(z)), z)
        v_hat = self.disk_solution.sample(z_safe)
        keep = ~(inside | m.singular(z))
        v = np.full(z.shape, complex(np.nan, np.nan))
        v[keep] = m.pushforward(z_safe[keep], v_hat[keep])
        return v

    def sample(self, points) -> np.ndarray:
        """Cartesian velocity at complex points of Omega, marked NaN as in sample_image;
        ValueError if a point is not finite, as VelocitySolution.sample."""
        points = np.asarray(points, dtype=complex)
        if not np.all(np.isfinite(points)):
            raise ValueError("sample points must be finite")
        return self.sample_image(self.map.forward(points))

    def boundary_samples(self, theta) -> np.ndarray:
        """Velocity on the physical boundary, parametrized by the circle angle."""
        return self.sample_image(self.map.r0 * np.exp(1j * np.asarray(theta, dtype=float)))


def solve_exterior(problem: ExteriorProblem) -> ExteriorSolution:
    """Pull back, solve on the disk, and wrap the result as an Omega sampler."""
    if problem.map.label != "identity":
        verify_map(problem.map)
    solution = solve_disk(pullback_problem(problem))
    return ExteriorSolution(solution, problem.map)
