"""Stream-function reduction for solenoidal no-slip flows.

With div v = 0 and g = 0 there is a stream function psi with v = (-d2, d1) psi
and Delta psi = w.  Imposing the slip form psi = const on the circle, zero
circulation around it, and psi -> v2*x1 - v1*x2 at infinity yields one radial
two-point problem per mode,

    psi_k'' + psi_k'/r - k^2 psi_k / r^2 = w_k,

solved in closed form by variation of parameters with the disk solver's
kernel tables (quadrature.ScaledIntegrals) of w, for all modes at once.  For
k != 0, with m = |k|,

    a_k(r) = r^{-m-1} int_{r0}^r s^{m+1} w_k ds,   b_k(r) = r^{m-1} int_r^inf s^{1-m} w_k ds,
    psi_k  = -r (a_k + b_k) / (2m) + r0 c_k (r0/r)^m + r v_phi,k^inf,
    psi_k' = (a_k - b_k) / 2 - m c_k (r0/r)^{m+1} + v_phi,k^inf,

with c_k = b_k(r0) / (2m) - v_phi,k^inf fixed by psi_k(r0) = 0.  Mode 0
keeps the plain cumulative integrals: psi_0' = (1/r) int_{r0}^r s w_0 ds and
psi_0 its trapezoid integral.  Every factor is a ratio of radii, so
nothing overflows at high modes, and the two paths agree to rounding on
admissible data.  The discarded Neumann condition d(psi)/dn = 0 holds
exactly when the vorticity satisfies the no-slip orthogonality relations;
neumann_defect measures the residual slip velocity otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .disk import FarField, ModeTerms, VelocitySolution, vinf_coefficients
from .grids import RadialGrid, SpectralField
from .quadrature import cumulative, scaled_integrals

__all__ = ["StreamFunction", "solve_stream", "velocity_from_stream", "neumann_defect"]


@dataclass(frozen=True)
class StreamFunction:
    """Per-mode stream profiles psi_k and their radial derivatives.

    Modes k != 0 vanish at r0 so psi is constant on the solid; the constant
    itself is gauged to zero.  psi_1 grows linearly to match the far-field
    stream r * v_phi,1^inf; all other modes decay beyond the data support.
    velocity_terms are the kernel terms of the skew gradient (-(i k / r) psi_k,
    psi_k'), which velocity_from_stream evaluates off the nodes.
    """

    grid: RadialGrid
    K: int
    modes: np.ndarray
    d_modes: np.ndarray
    far_field: FarField
    velocity_terms: ModeTerms = field(default=None, compare=False)

    def __post_init__(self):
        shape = (2 * self.K + 1, len(self.grid))
        for name in ("modes", "d_modes"):
            values = getattr(self, name)
            if values.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            values.setflags(write=False)


def _velocity_terms(w: SpectralField, v: FarField) -> ModeTerms:
    """Kernel terms of v_r,k = -(i k / r) psi_k and v_phi,k = psi_k' for every mode."""
    grid = w.grid
    ks = np.arange(-w.K, w.K + 1)
    m = np.abs(ks)
    inner = scaled_integrals(grid.nodes, w.coeffs, m + 1)
    outer = scaled_integrals(grid.nodes, w.coeffs, m - 1, suffix=True)
    vphi_inf = np.array([vinf_coefficients(v, int(k))[1] for k in ks], dtype=complex)
    c = outer.table[:, 0] / (2.0 * np.maximum(m, 1)) - vphi_inf
    half_i = 0.5j * np.sign(ks)
    coef = np.array([[half_i, half_i, -1j * ks * c, -1j * ks * vphi_inf],
                     [np.full(len(ks), 0.5), np.full(len(ks), -0.5), -m * c, vphi_inf]],
                    dtype=complex)
    # mode 0: v_r,0 = 0 and v_phi,0 = psi_0' = (1/r) int s w_0
    coef[:, :, w.K] = 0.0
    circulation = cumulative(grid.nodes, grid.nodes * w.coeff(0))
    return ModeTerms(ks, grid.r0, inner, outer, coef, (None, circulation))


def solve_stream(w: SpectralField, v: FarField, warn_tolerance: float = 1e-8) -> StreamFunction:
    """Solve the exterior Poisson problem for psi, all radial problems at once.

    Assumes the solenoidal no-slip setting (rho = 0, g = 0).  Vorticity that
    violates the orthogonality relations is solved anyway; the resulting
    Neumann defect (residual boundary slip) is reported in a warning.
    """
    grid = w.grid
    nodes = grid.nodes
    K = w.K
    terms = _velocity_terms(w, v)
    v_r, dpsi = terms.at_nodes()
    # psi_k = (i r / k) v_r,k for k != 0; psi_0 integrates psi_0'
    ks = np.arange(-K, K + 1)
    psi = v_r
    psi *= 1j * nodes / np.where(ks == 0, 1, ks)[:, None]
    psi[K] = cumulative(nodes, dpsi[K]).prefix

    total_circ = terms.zero[1].total
    if abs(total_circ) > warn_tolerance:
        warnings.warn(
            f"total vorticity circulation {abs(total_circ):.3e} is nonzero; "
            "psi grows logarithmically and the far-field condition fails",
            stacklevel=2,
        )

    out = StreamFunction(grid, K, psi, dpsi, v, terms)
    defect = neumann_defect(out)
    if defect > warn_tolerance:
        warnings.warn(
            f"vorticity violates the no-slip orthogonality relations: residual "
            f"boundary slip speed {defect:.3e} in L2 on the circle",
            stacklevel=2,
        )
    return out


def velocity_from_stream(psi: StreamFunction) -> VelocitySolution:
    """Skew gradient of psi: v_r,k = -(i k / r) psi_k, v_phi,k = psi_k'."""
    ks = np.arange(-psi.K, psi.K + 1)
    v_r = -1j * ks[:, None] * psi.modes / psi.grid.nodes
    return VelocitySolution(psi.velocity_terms, v_r, psi.d_modes, psi.far_field, psi.grid)


def neumann_defect(psi: StreamFunction) -> float:
    """L2(boundary) norm of d(psi)/dr at r0, the residual slip speed.

    Zero (to tolerance) exactly when the vorticity satisfies the no-slip
    orthogonality relations; for w = 0 against a uniform stream of speed v it
    equals the classical slip value 2 |v| sqrt(pi r0).
    """
    boundary = psi.d_modes[:, 0]
    return float(np.sqrt(2.0 * np.pi * psi.grid.r0 * np.sum(np.abs(boundary) ** 2)))
