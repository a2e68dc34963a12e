"""Solvability moment conditions and the admissibility projection.

For k >= 1 the data must satisfy

    r0^{k-1} int_{r0}^inf s^{-k+1} (w_k + i rho_k) ds + g_phi,k + i g_r,k
        = v_phi,k^inf + i v_r,k^inf,

and at k = 0 the circulation and flux around the solid must vanish:

    int w dx + circ(g) = 0,   int rho dx + flux(g) = 0,

that is 2 pi (int s w_0 ds + r0 g_phi,0) = 0 and 2 pi (int s rho_0 ds + r0 g_r,0) = 0.
The two are kept apart: for complex data each is complex, and their
combination circulation + i flux could cancel.  For real data the report
prints them combined, as 2*pi*[(...) + i (...)].
Residuals are oriented left minus right, so a pure far-field violation at
k = 1 reports -(v_phi,1^inf + i v_r,1^inf).  The mode moments are taken row
band by row band (quadrature._bands), each row one product with the
trapezoid weights times (r0/s)^{k-1} <= 1, so no power of a radius
overflows; the disk solver reads the same moments off its kernel as b_k(r0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .disk import DiskProblem, FarField, vinf_coefficients
from .grids import BoundaryTrace, SpectralField, _frozen_array, smooth_bump
from .quadrature import _bands, trapezoid_weights

__all__ = [
    "MomentReport",
    "moment_report",
    "make_admissible",
    "admissibility_corrections",
]

# admissibility_corrections leaves residuals below this, relative to the data scale
_SKIP_BELOW = 1e-14


@dataclass(frozen=True)
class MomentReport:
    """Per-mode moment residuals plus the circulation and flux residuals.

    residuals[k] holds the mode-k residual for k = 1..K; index 0 is kept at
    zero because the k = 0 conditions are the separate circulation and flux
    entries.
    """

    residuals: np.ndarray
    circulation: complex
    flux: complex
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "residuals", _frozen_array(self.residuals, dtype=complex))

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals))) if self.residuals.size else 0.0

    @property
    def circulation_flux(self) -> float:
        """sqrt(|circulation|^2 + |flux|^2): both k = 0 residuals, with no cancellation."""
        return float(np.hypot(abs(self.circulation), abs(self.flux)))

    @property
    def admissible(self) -> bool:
        return self.max_residual <= self.tolerance and self.circulation_flux <= self.tolerance

    def to_text(self) -> str:
        lines = ["k,residual_re,residual_im,residual_abs"]
        for k in range(1, self.residuals.size):
            res = self.residuals[k]
            lines.append(f"{k},{res.real:.17g},{res.imag:.17g},{abs(res):.17g}")
        if self.circulation.imag == 0.0 and self.flux.imag == 0.0:
            c = complex(self.circulation.real, self.flux.real)
            lines.append(f"circulation_flux,{c.real:.17g},{c.imag:.17g},{abs(c):.17g}")
        else:
            for name, c in (("circulation", self.circulation), ("flux", self.flux)):
                lines.append(f"{name},{c.real:.17g},{c.imag:.17g},{abs(c):.17g}")
        lines.append(f"tolerance,{self.tolerance:.17g}")
        lines.append(f"admissible,{str(self.admissible).lower()}")
        return "\n".join(lines) + "\n"


def _weighted_moments(grid, f, ks) -> np.ndarray:
    """r0^{k-1} int_{r0}^inf s^{-k+1} f_k ds for k in ks; f(band) gives the band's rows f_k.

    The weight table (r0/s)^{k-1} times the trapezoid weights is formed one
    row band at a time; every row keeps the sum one einsum over the whole
    array takes, so the bands leave each moment bit for bit as it was.
    """
    s = grid.nodes
    ks = np.asarray(ks)
    log_ratio = np.log(grid.r0 / s)
    weights = trapezoid_weights(s)
    out = np.empty(len(ks), dtype=complex)
    for band in _bands(len(ks), len(s)):
        scales = np.exp(np.multiply.outer(ks[band] - 1.0, log_ratio))
        scales *= weights
        out[band] = np.einsum("kj,kj->k", np.asarray(f(band), dtype=complex), scales)
    return out


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
    return MomentReport(residuals, *_circulation_flux(problem), tolerance)


def _circulation_flux(problem: DiskProblem) -> tuple:
    """(circulation, flux) residuals of the k = 0 conditions, each 2 pi (...), complex."""
    grid = problem.grid
    g = problem.boundary
    weights = trapezoid_weights(grid.nodes) * grid.nodes
    circ = weights @ problem.vorticity.coeff(0) + grid.r0 * g.coeff_phi(0)
    flux = weights @ problem.divergence.coeff(0) + grid.r0 * g.coeff_r(0)
    return complex(2.0 * np.pi * circ), complex(2.0 * np.pi * flux)


def _moments(problem: DiskProblem, K: int) -> np.ndarray:
    """Weighted moments of the data for the modes k = 1..K, w_k + i rho_k band by band."""
    w, rho = problem.vorticity.coeffs[problem.K + 1 :], problem.divergence.coeffs[problem.K + 1 :]
    return _weighted_moments(problem.grid, lambda band: w[band] + 1j * rho[band],
                             np.arange(1, K + 1))


def moment_report(problem: DiskProblem, tolerance: float = 1e-8) -> MomentReport:
    return _report_from_moments(problem, _moments(problem, problem.K), tolerance)


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
) -> tuple:
    """Per-mode scales lambda_k and the shared bump profile that zero the residuals.

    Returns (corrections, bump_nodes) where corrections maps k >= 0 to the
    complex scale of the bump added to mode k (and conj to mode -k).  Modes
    whose residual is already below _SKIP_BELOW (relative to the data scale)
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
    circ, flux = (x / (2.0 * np.pi) for x in _circulation_flux(problem))
    if abs(flux) > _SKIP_BELOW * scale:
        shown = f"{flux.real:.3e}" if flux.imag == 0.0 else f"{flux:.3e}"
        warnings.warn(
            f"flux residual {shown} depends only on (rho, g_r) and cannot be "
            "removed by a vorticity correction; fix the divergence data or the "
            "radial trace",
            stacklevel=2,
        )

    if abs(circ) > _SKIP_BELOW * scale:
        m0 = float(trapezoid_weights(grid.nodes) @ (grid.nodes * bump))
        if abs(m0) < 1e-14:
            raise ValueError("bump profile has zero circulation moment; choose another support")
        corrections[0] = -circ / m0

    ks = np.arange(1, K_c + 1)
    residuals = _mode_residuals(problem, ks, _moments(problem, K_c))
    bump_moments = _weighted_moments(
        grid, lambda band: np.broadcast_to(bump, (band.stop - band.start, bump.size)), ks)
    for k, res, m_k in zip(ks, residuals, bump_moments):
        if abs(res) <= _SKIP_BELOW * scale:
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
    return _with_corrections(w, *admissibility_corrections(w, rho, g, v, K_c, support))


def _with_corrections(w: SpectralField, corrections: dict, bump) -> SpectralField:
    """w with lambda_k * bump added to each corrected mode k and its conjugate to mode -k."""
    deltas = {}
    for k, lam in corrections.items():
        deltas[k] = lam * bump
        if k > 0:
            deltas[-k] = np.conj(lam) * bump
    return w.add_modes(deltas) if deltas else w
