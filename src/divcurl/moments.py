"""Solvability moment conditions and the admissibility projection.

For k >= 1 the data must satisfy

    r0^{k-1} int_{r0}^inf s^{-k+1} (w_k + i rho_k) ds + g_phi,k + i g_r,k
        = v_phi,k^inf + i v_r,k^inf,

and at k = 0 the circulation and flux around the solid must vanish:

    int w dx + circ(g) = 0,   int rho dx + flux(g) = 0,

reported combined as 2*pi*[(int s w_0 ds + r0 g_phi,0) + i (int s rho_0 ds + r0 g_r,0)].
Residuals are oriented left minus right, so a pure far-field violation at
k = 1 reports -(v_phi,1^inf + i v_r,1^inf).  All mode moments are taken in
one product with the trapezoid weights times (r0/s)^{k-1} <= 1, so no power
of a radius overflows; the disk solver reads the same moments off its
kernel as b_k(r0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .disk import DiskProblem, FarField, vinf_coefficients
from .grids import BoundaryTrace, SpectralField, _frozen_array, smooth_bump
from .quadrature import trapezoid_weights

__all__ = [
    "MomentReport",
    "moment_residual",
    "circulation_flux_residual",
    "no_slip_orthogonality",
    "moment_report",
    "make_admissible",
    "admissibility_corrections",
]


@dataclass(frozen=True)
class MomentReport:
    """Per-mode moment residuals plus the combined circulation/flux residual.

    residuals[k] holds the mode-k residual for k = 1..K; index 0 is kept at
    zero because the k = 0 condition is the separate circulation/flux entry.
    """

    residuals: np.ndarray
    circulation: complex
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "residuals", _frozen_array(self.residuals, dtype=complex))

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals))) if self.residuals.size else 0.0

    @property
    def admissible(self) -> bool:
        return self.max_residual <= self.tolerance and abs(self.circulation) <= self.tolerance

    def to_text(self) -> str:
        lines = ["k,residual_re,residual_im,residual_abs"]
        for k in range(1, self.residuals.size):
            res = self.residuals[k]
            lines.append(f"{k},{res.real:.17g},{res.imag:.17g},{abs(res):.17g}")
        c = self.circulation
        lines.append(f"circulation_flux,{c.real:.17g},{c.imag:.17g},{abs(c):.17g}")
        lines.append(f"tolerance,{self.tolerance:.17g}")
        lines.append(f"admissible,{str(self.admissible).lower()}")
        return "\n".join(lines) + "\n"


def _weighted_moments(grid, f, ks) -> np.ndarray:
    """r0^{k-1} int_{r0}^inf s^{-k+1} f_k ds for the rows f_k of f, k in ks."""
    s = grid.nodes
    scales = np.exp(np.multiply.outer(np.asarray(ks) - 1.0, np.log(grid.r0 / s)))
    return np.einsum("kj,kj->k", np.asarray(f, dtype=complex), scales * trapezoid_weights(s))


def _mode_residuals(problem: DiskProblem, ks, moments) -> np.ndarray:
    """Left minus right of the mode conditions ks, given their weighted moments."""
    ks = np.asarray(ks)
    g = problem.boundary
    vinf = np.array([vinf_coefficients(problem.far_field, int(k)) for k in ks],
                    dtype=complex).reshape(-1, 2)
    trace = g.g_phi[ks + g.K] + 1j * g.g_r[ks + g.K]
    return moments + trace - (vinf[:, 1] + 1j * vinf[:, 0])


def _report_from_moments(problem: DiskProblem, moments, tolerance: float) -> MomentReport:
    """Report for modes 1..len(moments) from their weighted moments (solve_disk's b_k(r0))."""
    residuals = np.zeros(len(moments) + 1, dtype=complex)
    residuals[1:] = _mode_residuals(problem, np.arange(1, len(moments) + 1), moments)
    return MomentReport(residuals, circulation_flux_residual(problem), tolerance)


def moment_residual(k: int, problem: DiskProblem) -> complex:
    """Left minus right of the mode-k solvability condition, k >= 1."""
    if k < 1:
        raise ValueError("moment conditions are indexed by k >= 1; "
                         "k = 0 is circulation_flux_residual")
    if k > problem.K:
        raise ValueError(f"mode {k} outside the resolved band K = {problem.K}")
    f = problem.vorticity.coeff(k) + 1j * problem.divergence.coeff(k)
    return complex(_mode_residuals(problem, [k], _weighted_moments(problem.grid, [f], [k]))[0])


def circulation_flux_residual(problem: DiskProblem) -> complex:
    """Combined circulation + i*flux residual of the k = 0 conditions."""
    grid = problem.grid
    g = problem.boundary
    weights = trapezoid_weights(grid.nodes) * grid.nodes
    circ = weights @ problem.vorticity.coeff(0) + grid.r0 * g.coeff_phi(0)
    flux = weights @ problem.divergence.coeff(0) + grid.r0 * g.coeff_r(0)
    return complex(2.0 * np.pi * (circ + 1j * flux))


def no_slip_orthogonality(k: int, w: SpectralField, rho: SpectralField, v: FarField) -> complex:
    """Residual of the no-slip (g = 0) orthogonality relation for mode k >= 1."""
    problem = DiskProblem(w, rho, BoundaryTrace.zeros(w.K), v)
    return moment_residual(k, problem)


def _moments(problem: DiskProblem, K: int) -> np.ndarray:
    """Weighted moments of the data for the modes k = 1..K."""
    ks = np.arange(1, K + 1)
    rows = ks + problem.K
    f = problem.vorticity.coeffs[rows] + 1j * problem.divergence.coeffs[rows]
    return _weighted_moments(problem.grid, f, ks)


def moment_report(problem: DiskProblem, K: int = None, tolerance: float = 1e-8) -> MomentReport:
    K = problem.K if K is None else K
    return _report_from_moments(problem, _moments(problem, K), tolerance)


def _default_support(grid):
    span = grid.rmax - grid.r0
    return grid.r0 + span / 3.0, grid.r0 + 2.0 * span / 3.0


def admissibility_corrections(
    w: SpectralField,
    rho: SpectralField,
    g: BoundaryTrace,
    v: FarField,
    K_c: int,
    support: tuple = None,
    skip_below: float = 1e-14,
) -> tuple:
    """Per-mode scales lambda_k and the shared bump profile that zero the residuals.

    Returns (corrections, bump_nodes) where corrections maps k >= 0 to the
    complex scale of the bump added to mode k (and conj to mode -k).  Modes
    whose residual is already below skip_below (relative to the data scale)
    are left untouched, which makes the projection idempotent.
    """
    if K_c > w.K:
        raise ValueError("K_c exceeds the resolved band of the field")
    grid = w.grid
    lo, hi = support if support is not None else _default_support(grid)
    bump = smooth_bump(grid.nodes, lo, hi)
    problem = DiskProblem(w, rho, g, v)
    scale = max(
        float(np.max(np.abs(w.coeffs))),
        float(np.max(np.abs(rho.coeffs))),
        float(np.max(np.abs(g.g_r))),
        float(np.max(np.abs(g.g_phi))),
        abs(v.as_complex),
        1.0,
    )

    corrections = {}
    circ_flux = circulation_flux_residual(problem) / (2.0 * np.pi)
    if abs(circ_flux.imag) > skip_below * scale:
        warnings.warn(
            f"flux residual {circ_flux.imag:.3e} depends only on (rho, g_r) and cannot be "
            "removed by a vorticity correction; fix the divergence data or the "
            "radial trace",
            stacklevel=2,
        )

    if abs(circ_flux.real) > skip_below * scale:
        m0 = float(trapezoid_weights(grid.nodes) @ (grid.nodes * bump))
        if abs(m0) < 1e-14:
            raise ValueError("bump profile has zero circulation moment; choose another support")
        corrections[0] = complex(-circ_flux.real / m0)

    ks = np.arange(1, K_c + 1)
    residuals = _mode_residuals(problem, ks, _moments(problem, K_c))
    bump_moments = _weighted_moments(grid, np.broadcast_to(bump, (K_c, bump.size)), ks)
    for k, res, m_k in zip(ks, residuals, bump_moments):
        if abs(res) <= skip_below * scale:
            continue
        if abs(m_k) < 1e-14 * max(1.0, float(np.max(bump))):
            raise ValueError(
                f"bump profile has numerically zero moment for mode {k}; "
                "choose a support where s^{-k+1} does not cancel it"
            )
        corrections[int(k)] = complex(-res / m_k)
    return corrections, bump


def make_admissible(
    w: SpectralField,
    rho: SpectralField,
    g: BoundaryTrace,
    v: FarField,
    K_c: int,
    support: tuple = None,
) -> SpectralField:
    """Project the vorticity onto the data satisfying the moment conditions k <= K_c.

    One smooth compactly supported bump per offending mode, scaled in closed
    form; modes with vanishing residual are untouched.  Conjugate mirrors keep
    real-valued fields real.  Only w is modified: the flux half of the k = 0
    condition involves (rho, g_r) alone and is the caller's responsibility.
    """
    corrections, bump = admissibility_corrections(w, rho, g, v, K_c, support)
    deltas = {}
    for k, lam in corrections.items():
        deltas[k] = lam * bump
        if k > 0:
            deltas[-k] = np.conj(lam) * bump
    return w.add_modes(deltas) if deltas else w
