"""Solvability moment conditions and the admissibility projection.

For k != 0, with sigma = sign(k), the data must satisfy

    r0^{|k|-1} int_{r0}^inf s^{-|k|+1} (w_k + i sigma rho_k) ds + g_phi,k + i sigma g_r,k
        = v_phi,k^inf + i sigma v_r,k^inf,

and at k = 0 the circulation and flux around the solid must vanish:

    2 pi (int s w_0 ds + r0 g_phi,0) = 0,   2 pi (int s rho_0 ds + r0 g_r,0) = 0.

Residuals are left minus right, so a zero mode-k residual is exactly the
condition under which the solved field's trace matches g_k.  The two k = 0
residuals are kept apart: for complex data circulation + i flux could
cancel.  For mirrored data (disk._mode_rows) the mode -m residual is the
conjugate of the mode m one, so the modes k = 1..K decide; otherwise the
modes -1..-K are checked as well.  The moment integral is the disk
solver's b_k(r0), from its front end and suffix table (moment_report).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .disk import DiskProblem, FarField, _b_at_r0, _kernels, _mode_rows, _vinf_rows
from .grids import BoundaryTrace, SpectralField, _frozen_array, smooth_bump
from .quadrature import _scaled, _support, trapezoid_weights

__all__ = [
    "MomentReport",
    "moment_report",
    "make_admissible",
    "admissibility_corrections",
]

# admissibility_corrections leaves residuals below this, relative to the data scale
_SKIP_BELOW = 1e-14


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Per-mode moment residuals plus the circulation and flux residuals.

    residuals[k] is the mode-k residual for k = 1..K, index 0 zero (the k = 0
    conditions are circulation and flux).  negative[m] is the mode -m
    residual for data that are not mirrored, index 0 zero, and else empty.
    """

    residuals: np.ndarray
    circulation: complex
    flux: complex
    tolerance: float
    negative: np.ndarray = ()

    def __post_init__(self):
        if not self.tolerance >= 0.0:
            raise ValueError(f"tolerance must be a non-negative number, got {self.tolerance}")
        for name in ("residuals", "negative"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype=complex))

    @property
    def max_residual(self) -> float:
        both = np.concatenate((self.residuals, self.negative))
        return float(np.max(np.abs(both))) if both.size else 0.0

    @property
    def circulation_flux(self) -> float:
        """sqrt(|circulation|^2 + |flux|^2): both k = 0 residuals, with no cancellation."""
        return float(np.hypot(abs(self.circulation), abs(self.flux)))

    @property
    def admissible(self) -> bool:
        return self.max_residual <= self.tolerance and self.circulation_flux <= self.tolerance

    def to_text(self) -> str:
        lines = ["k,residual_re,residual_im,residual_abs"]
        rows = [(k, self.residuals[k]) for k in range(1, self.residuals.size)]
        rows += [(-m, self.negative[m]) for m in range(1, self.negative.size)]
        for k, res in rows:
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


def _report_of(problem: DiskProblem, moments, tolerance: float) -> MomentReport:
    """Report from the moments b_k(r0) on the rows k = 0..K, or k = -K..K for data
    that are not mirrored (row k = 0 is not read), left minus right."""
    K, g = problem.K, problem.boundary
    ks = np.arange(-K, K + 1)[-len(moments) :]
    sigma = np.sign(ks)
    v_r, v_phi = _vinf_rows(problem.far_field, K)[:, -len(moments) :]
    trace = g.g_phi[ks + g.K] + 1j * sigma * g.g_r[ks + g.K]
    residuals = moments + trace - (v_phi + 1j * sigma * v_r)
    zero = len(ks) - K - 1
    residuals[zero] = 0.0
    return MomentReport(residuals[zero:], *_circulation_flux(problem), tolerance,
                        residuals[zero::-1] if zero else ())


def _circulation_flux(problem: DiskProblem) -> tuple:
    """(circulation, flux) residuals of the k = 0 conditions, each 2 pi (...), complex."""
    grid = problem.grid
    g = problem.boundary
    weights = trapezoid_weights(grid.nodes) * grid.nodes
    circ = weights @ problem.vorticity.coeff(0) + grid.r0 * g.coeff_phi(0)
    flux = weights @ problem.divergence.coeff(0) + grid.r0 * g.coeff_r(0)
    return complex(2.0 * np.pi * circ), complex(2.0 * np.pi * flux)


def moment_report(problem: DiskProblem, tolerance: float = 1e-8) -> MomentReport:
    """The residuals of the data from solve_disk's b_k(r0): the first column of
    its suffix table, on its rows and integrand (disk._mode_rows, disk._kernels)."""
    ks, _, w, rho, top = _mode_rows(problem)
    (outer,) = _kernels(problem.grid.nodes, w, rho, ks, _support(top), (True,))
    return _report_of(problem, _b_at_r0(outer, ks, w is None), tolerance)


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

    Returns (corrections, bump_nodes) where corrections maps each corrected
    mode k to the complex scale of the bump added to it.  Data that are not
    mirrored correct each mode -k from its own residual; mirrored data give
    mode -k the conjugate of the mode k scale, so they stay mirrored.  Modes
    whose residual is already below _SKIP_BELOW (relative to the data scale)
    are left untouched, which makes the projection idempotent.
    """
    if K_c < 0:
        raise ValueError("K_c must not be negative")
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

    # the moments of all K modes, on the solve's block schedule; the first K_c are read
    report = moment_report(problem)
    negative = report.negative  # empty for mirrored data
    bump_b = _scaled(grid.nodes, np.broadcast_to(bump + 0j, (w.K, bump.size)),
                     np.arange(w.K, dtype=float), True, _support(bump)).table[:, 0]
    for k, m_k in zip(range(1, K_c + 1), bump_b):
        # modes k and -k share the bump's moment r0^{k-1} int s^{-k+1} bump ds
        own = [(k, report.residuals[k])]
        if negative.size:
            own.append((-k, negative[k]))
        for mode, res in own:
            if abs(res) <= _SKIP_BELOW * scale:
                continue
            if abs(m_k) < 1e-14 * max(1.0, float(np.max(bump))):
                raise ValueError(
                    f"bump profile has numerically zero moment for mode {k}; "
                    "choose a support where s^{-k+1} does not cancel it"
                )
            corrections[mode] = complex(-res / m_k)
        if not negative.size and k in corrections:
            corrections[-k] = corrections[k].conjugate()
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

    Adds the corrections of admissibility_corrections, modes k <= -1
    included.  Only w is modified: the flux half of the k = 0 condition
    involves (rho, g_r) alone and is the caller's responsibility.
    """
    return _with_corrections(w, *admissibility_corrections(w, rho, g, v, K_c, support))


def _with_corrections(w: SpectralField, corrections: dict, bump) -> SpectralField:
    """w with lambda_k * bump added to each corrected mode k."""
    return w.add_modes({k: lam * bump for k, lam in corrections.items()}) if corrections else w
