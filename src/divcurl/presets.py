"""Analytic data builders and randomized admissible problem generators.

Everything here produces both a SpectralField (node samples of the per-mode
radial profiles) and a closed-form callable for the same data, so quadrature
oracles never depend on the spectral representation they are checking.
"""

from __future__ import annotations

import numpy as np

from .conformal import ConformalMap, ExteriorProblem
from .disk import DiskProblem, FarField
from .grids import BoundaryTrace, RadialGrid, SpectralField, smooth_bump
from .moments import _with_corrections, admissibility_corrections
from .quadrature import _bands, cumulative

__all__ = [
    "modal_field",
    "potential_slip_trace",
    "potential_slip_boundary_fn",
    "ellipse_potential_velocity",
    "random_mode_profiles",
    "random_admissible_problem",
    "random_admissible_exterior_problem",
]


def modal_field(grid: RadialGrid, K: int, mode_fns: dict):
    """Field from per-mode radial callables {k: f_k(s)}, plus its 2D callable.

    Conjugate mirrors are NOT added automatically; pass both k and -k for
    real-valued data.  Returns (SpectralField, fn) with fn(r, phi) vectorized.
    """
    profiles = {k: np.asarray(fn(grid.nodes), dtype=complex) for k, fn in mode_fns.items()}
    fns = dict(mode_fns)
    top = max((abs(k) for k in fns), default=0)

    def fn(r, phi):
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        out = np.zeros(np.broadcast(r, phi).shape, dtype=complex)
        e = np.exp(1j * phi)
        power = np.ones_like(e)  # e^{ik phi}, built by products
        for k in range(top + 1):
            if k > 0:
                power = power * e
            if k in fns:
                out += np.asarray(fns[k](r), dtype=complex) * power
            if k > 0 and -k in fns:
                out += np.asarray(fns[-k](r), dtype=complex) * np.conj(power)
        return out

    return SpectralField.from_modes(grid, K, profiles), fn


def potential_slip_trace(K: int, far: FarField) -> BoundaryTrace:
    """Tangential trace of the zero-circulation potential flow past the disk, far field `far`.

    With V = v1 + i v2, g_phi,1 = i conj(V) and g_phi,-1 = -i V; for V = v
    real this is g_phi(phi) = -2 v sin(phi).
    """
    v = far.as_complex
    return BoundaryTrace.from_coeffs(K, tangential={1: 1j * np.conj(v), -1: -1j * v})


def potential_slip_boundary_fn(m: ConformalMap, far: FarField):
    """Boundary velocity of zero-circulation potential flow past the mapped body.

    The complex potential in the disk plane is F(z) = conj(V) z + V r0^2 / z,
    so the physical velocity is conj(F'(Phi(p)) Phi'(p)); restricted to the
    boundary it is tangential (the body is a streamline).
    """
    v = far.as_complex

    def fn(points):
        p = np.asarray(points, dtype=complex)
        z = m.forward(p)
        conj_vel = (np.conj(v) - v * m.r0**2 / (z * z)) / m.d_inverse(z)
        return np.conj(conj_vel)

    return fn


def ellipse_potential_velocity(points, c: float, r0: float, far: FarField) -> np.ndarray:
    """Classical complex-potential oracle for flow past the c-Joukowski ellipse.

    Standalone on purpose: it carries its own branch of sqrt(p^2 - 4c^2) and
    never touches the solver's map layer.  The root is formed from p^2 - 4c^2
    in real arithmetic and negated where Re p has its sign bit set, so it
    follows p at infinity and both signs of a zero imaginary part agree.
    """
    p = np.asarray(points, dtype=complex)
    v = far.as_complex
    if c == 0.0:
        z = p
        dz_dp = np.ones_like(p)
    else:
        x, y = p.real, p.imag
        root = np.empty(p.shape, dtype=complex)
        root.real = (x - 2.0 * c) * (x + 2.0 * c) - y * y
        root.imag = 2.0 * x * y
        root = np.sqrt(root)
        root = np.where(np.signbit(x), -root, root)
        z = 0.5 * (p + root)
        dz_dp = 0.5 * (1.0 + p / root)
    conj_vel = (np.conj(v) - v * r0**2 / (z * z)) * dz_dp
    return np.conj(conj_vel)


def _random_modes(rng, K_data: int, scale: float) -> list:
    """[(amplitude, polynomial coefficients)] for k = 0..K_data, in draw order."""
    modes = []
    for k in range(0, K_data + 1):
        if k == 0:
            amp = complex(scale * rng.normal())
        else:
            amp = scale * (rng.normal() + 1j * rng.normal()) / np.sqrt(1.0 + k)
        modes.append((amp, rng.normal(size=3)))
    return modes


def _poly_bump_profile(lo: float, hi: float, amplitude: complex, coeffs):
    def profile(s):
        s = np.asarray(s, dtype=float)
        t = (2.0 * s - (lo + hi)) / (hi - lo)
        return amplitude * smooth_bump(s, lo, hi) * (coeffs[0] + coeffs[1] * t + coeffs[2] * t * t)

    return profile


def _mode_profiles(modes, lo: float, hi: float) -> dict:
    fns = {}
    for k, (amp, coeffs) in enumerate(modes):
        profile = _poly_bump_profile(lo, hi, amp, coeffs)
        fns[k] = profile
        if k > 0:
            fns[-k] = (lambda s, p=profile: np.conj(p(s)))
    return fns


def _closed_form(modes, corrections: dict, lo: float, hi: float):
    """Vectorized fn(r, phi) of the conjugate-symmetric polynomial-bump modes.

    Mode k >= 0 carries bump(r) * c_k(t) with c_k(t) = beta_k0 + beta_k1 t +
    beta_k2 t^2 (amplitude_k * poly_k plus the admissibility scale lambda_k),
    and mode -k its conjugate, so

        fn = bump(r) * [c_0(t) + Q_0(phi) + t Q_1(phi) + t^2 Q_2(phi)],
        Q_j(phi) = sum_{k >= 1} 2 Re(beta_kj e^{ik phi}).

    r and phi are transformed at their own shapes: on a lattice of a radius
    column and an angle row only the row is summed over the modes.  On
    scattered points (r and phi of one shape) only the points inside the
    bump's support are summed, and the others are exact zeros.  The values
    are real unless c_0 has an imaginary part.
    """
    top = max(len(modes) - 1, max(corrections, default=0))
    beta = np.zeros((top + 1, 3), dtype=complex)
    for k, (amp, a) in enumerate(modes):
        beta[k] = amp * np.asarray(a)
    for k, lam in corrections.items():
        if k >= 0:  # the modes -k of mirrored data carry the conjugates
            beta[k, 0] += lam
    # Re beta_0j + Q_j = Re(sum_k w_k beta_kj e^{ik phi}) with w_0 = 1 and w_k = 2
    weighted = beta.T.copy()
    weighted[:, 1:] *= 2.0

    def angular_sums(phi):
        """Re c_0 + (Q_0, Q_1, Q_2) at phi, one band of angles at a time."""
        flat = phi.ravel()
        q = np.empty((3, flat.size))
        for band in _bands(flat.size, top + 1):
            e = np.exp(1j * flat[band])
            powers = np.empty((top + 1, e.size), dtype=complex)
            powers[0] = 1.0  # row k holds e^{ik phi}
            for k in range(1, top + 1):
                np.multiply(powers[k - 1], e, out=powers[k])
            q[:, band] = (weighted @ powers).real
        return q.reshape((3,) + phi.shape)

    c0 = beta[0].imag

    def polynomial(r, phi):
        t = (2.0 * r - (lo + hi)) / (hi - lo)
        q0, q1, q2 = angular_sums(phi)
        total = q0 + t * (q1 + t * q2)
        if c0.any():
            total = total + 1j * (c0[0] + t * (c0[1] + t * c0[2]))
        return total

    def fn(r, phi):
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        bump = smooth_bump(r, lo, hi)
        if r.shape != phi.shape:  # separable: the polynomial sums the angle row once
            return bump * polynomial(r, phi)
        inside = bump != 0.0  # scattered points: sum only inside the support
        out = np.zeros(r.shape, dtype=complex if c0.any() else float)
        out[inside] = bump[inside] * polynomial(r[inside], phi[inside])
        return out

    return fn


def random_mode_profiles(rng, K_data: int, lo: float, hi: float, scale: float = 1.0) -> dict:
    """Random smooth compactly supported modal data, conjugate-symmetric."""
    return _mode_profiles(_random_modes(rng, K_data, scale), lo, hi)


def random_admissible_problem(
    rng,
    grid: RadialGrid,
    K: int,
    K_data: int = 8,
    K_c: int = 12,
    support: tuple = None,
    with_divergence: bool = False,
    boundary_modes: int = 0,
    far_field: FarField = FarField(),
) -> DiskProblem:
    """Random smooth compactly supported data projected onto the admissible set.

    The vorticity receives the moment corrections for all k <= K_c; the k = 0
    flux condition is balanced through g_r,0 when divergence data is present.
    Closed-form callables ride along for the quadrature oracle.
    """
    if support is None:
        span = grid.rmax - grid.r0
        support = (grid.r0 + 0.25 * span, grid.r0 + 0.75 * span)
    lo, hi = support
    K_data = min(K_data, K_c, K)

    w_modes = _random_modes(rng, K_data, 1.0)
    w_field, _ = modal_field(grid, K, _mode_profiles(w_modes, lo, hi))

    if with_divergence:
        rho_modes = _random_modes(rng, K_data, 0.5)
        rho_field, _ = modal_field(grid, K, _mode_profiles(rho_modes, lo, hi))
        rho_fn = _closed_form(rho_modes, {}, lo, hi)
    else:
        rho_field, rho_fn = SpectralField.zeros(grid, K), None

    radial = {}
    tangential = {}
    for k in range(1, boundary_modes + 1):
        gr = 0.3 * (rng.normal() + 1j * rng.normal()) / (1.0 + k)
        gp = 0.3 * (rng.normal() + 1j * rng.normal()) / (1.0 + k)
        radial[k], radial[-k] = gr, np.conj(gr)
        tangential[k], tangential[-k] = gp, np.conj(gp)
    if with_divergence:
        # balance the flux half of the k = 0 condition, which no vorticity
        # correction can reach
        radial[0] = -cumulative(grid.nodes, grid.nodes * rho_field.coeff(0)).total / grid.r0
    g = BoundaryTrace.from_coeffs(K, radial=radial, tangential=tangential)

    corrections, bump = admissibility_corrections(w_field, rho_field, g, far_field, K_c,
                                                  support=support)
    w_admissible = _with_corrections(w_field, corrections, bump)
    w_total = _closed_form(w_modes, corrections, lo, hi)

    return DiskProblem(w_admissible, rho_field, g, far_field,
                       vorticity_fn=w_total, divergence_fn=rho_fn)


def random_admissible_exterior_problem(
    rng,
    m: ConformalMap,
    grid: RadialGrid,
    K: int,
    K_data: int = 6,
    K_c: int = 10,
    support: tuple = None,
) -> ExteriorProblem:
    """Solenoidal no-slip exterior problem whose pullback is admissible.

    The weighted disk-plane data W is built and projected exactly as in the
    disk case; the physical vorticity is then w(p) = |Phi'(p)|^2 W(Phi(p)),
    whose pullback reproduces W up to map round-trip rounding.
    """
    disk = random_admissible_problem(rng, grid, K, K_data=K_data, K_c=K_c, support=support)
    w_disk_fn = disk.vorticity_fn

    def w_fn(points):
        z = m.forward(np.asarray(points, dtype=complex))
        w = w_disk_fn(np.abs(z), np.angle(z))
        # |Phi'|^2 = 1 / |(Phi^-1)'(z)|^2, formed only where W != 0: at the
        # slit tips (Phi^-1)' = 0 and W = 0, and the value is an exact zero
        nonzero = w != 0.0
        w[nonzero] /= np.abs(m.d_inverse(z[nonzero])) ** 2
        return w

    return ExteriorProblem(m, grid, K, vorticity_fn=w_fn)
