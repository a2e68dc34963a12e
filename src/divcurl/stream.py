"""Stream-function reduction for solenoidal no-slip flows.

With div v = 0 and g = 0 there is a stream function psi with v = (-d2, d1) psi
and Delta psi = w.  Imposing psi = const on the circle, zero circulation
around it and psi -> v2*x1 - v1*x2 at infinity gives one radial two-point
problem per mode, psi_k'' + psi_k'/r - k^2 psi_k / r^2 = w_k.  Its skew
gradient v_r,k = -(i k / r) psi_k, v_phi,k = psi_k' is the direct solver's
field for rho = 0, g_r = 0 and the slip-completion trace

    g_phi,k = 2 v_phi,k^inf - b_k(r0)  (k != 0),   g_phi,0 = 0,

the tangential slip that zeroes every moment residual, so psi_k(r0) = 0.
solve_stream solves its no-slip DiskProblem (w, rho = 0, g = 0, v) through the
direct solver's front end (disk._direct_terms), which reads the tables of a
live solve of the same field, and adds that trace; StreamFunction is a view of
the result.  The discarded Neumann condition d(psi)/dn = 0 holds exactly when
the completion trace vanishes, that is when w satisfies the no-slip
orthogonality relations; neumann_defect measures the trace otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .disk import DiskProblem, FarField, VelocitySolution, _b_at_r0, _direct_terms, _with_trace
from .grids import BoundaryTrace, SpectralField
from .quadrature import _bands, _unfold, cumulative

__all__ = ["StreamFunction", "solve_stream", "velocity_from_stream", "neumann_defect"]


@dataclass(frozen=True, eq=False)
class StreamFunction:
    """Per-mode stream profiles psi_k and their radial derivatives, a view of velocity.

    Modes k != 0 vanish at r0 so psi is constant on the solid; the constant
    itself is gauged to zero.  psi_1 grows linearly to match the far-field
    stream r * v_phi,1^inf; all other modes decay beyond the data support.
    velocity is the direct solver's solution of the completed problem; psi
    and d_psi hold the modes velocity.terms.ks, read-only.
    """

    velocity: VelocitySolution

    @property
    def d_psi(self) -> np.ndarray:
        return self.velocity.rows[1]

    @cached_property
    def psi(self) -> np.ndarray:
        """psi_k = (i r / k) v_r,k for k != 0; psi_0 is the trapezoid integral of psi_0'."""
        terms, nodes = self.velocity.terms, self.velocity.grid.nodes
        v_r = self.velocity.rows[0]
        ks = np.where(terms.ks == 0, 1, terms.ks)[:, None]
        psi = np.empty_like(v_r)
        for band in _bands(len(ks), len(nodes)):
            np.multiply(v_r[band], 1j * nodes / ks[band], out=psi[band])
        psi[terms.zero_row] = cumulative(nodes, self.d_psi[terms.zero_row]).prefix
        psi.setflags(write=False)
        return psi


def solve_stream(w: SpectralField, v: FarField, warn_tolerance: float = 1e-8) -> StreamFunction:
    """Solve the exterior Poisson problem for psi, all radial problems at once.

    Assumes the solenoidal no-slip setting (rho = 0, g = 0).  Vorticity that
    violates the orthogonality relations is solved anyway; the resulting
    Neumann defect (residual boundary slip) is reported in a warning.
    """
    if not warn_tolerance >= 0.0:
        raise ValueError(f"warn_tolerance must be a non-negative number, got {warn_tolerance}")
    grid = w.grid
    problem = DiskProblem(w, SpectralField.zeros(grid, w.K), BoundaryTrace.zeros(w.K), v)
    terms, _ = _direct_terms(problem)  # the rmax warning is solve_disk's alone
    zero = terms.zero_row
    slip = 2.0 * terms.vinf[1] - _b_at_r0(terms.outer, terms.ks, terms.rotated)
    slip[zero] = 0.0
    terms = _with_trace(terms, np.zeros_like(slip), slip)

    # 2 pi int s w_0 ds, the circulation the moment report prints
    circulation = 2.0 * np.pi * abs(terms.zero[1].total)
    if circulation > warn_tolerance:
        warnings.warn(
            f"total vorticity circulation {circulation:.3e} is nonzero; "
            "psi grows logarithmically and the far-field condition fails",
            stacklevel=2,
        )

    out = StreamFunction(VelocitySolution(terms, terms.at_nodes(), v, grid))
    defect = neumann_defect(out)
    if defect > warn_tolerance:
        warnings.warn(
            f"vorticity violates the no-slip orthogonality relations: residual "
            f"boundary slip speed {defect:.3e} in L2 on the circle",
            stacklevel=2,
        )
    return out


def velocity_from_stream(psi: StreamFunction) -> VelocitySolution:
    """Skew gradient of psi, v_r,k = -(i k / r) psi_k, v_phi,k = psi_k': the solution it views."""
    return psi.velocity


def neumann_defect(psi: StreamFunction) -> float:
    """L2(boundary) norm of d(psi)/dr at r0, the slip-completion trace: the residual slip speed.

    For w = 0 against a uniform stream of speed v it is the classical slip
    value 2 |v| sqrt(pi r0).
    """
    boundary = _unfold(psi.d_psi[:, 0], psi.velocity.K)
    return float(np.sqrt(2.0 * np.pi * psi.velocity.grid.r0 * np.sum(np.abs(boundary) ** 2)))
