"""High modes at large K log(rmax / r0): the batched kernel against 60-digit sums.

The reference evaluates the solver's own trapezoid sums in mpmath, so the
comparison isolates floating-point behaviour.  The 60-digit comparison and
the K = 300 test fail on the per-mode solver the batched kernel replaced: it
formed r^{k-1} and the outer integral as total - prefix separately, which
cancels catastrophically above k ~ 20 at interior radii (mode 20 came out
wrong by 2e-5 on a profile of size 0.6 here) and overflows into NaN/inf at
K = 300 on [1, 12].
"""

import warnings

import numpy as np
import pytest

from divcurl.disk import DiskProblem, FarField, solve_disk, vinf_coefficients
from divcurl.grids import BoundaryTrace, RadialGrid, SpectralField, smooth_bump
from divcurl.moments import moment_report
from divcurl.norms import h1_seminorm

from helpers import mp_mode_profiles

R0, RMAX = 1.0, 12.0


def admissible_highmode_problem(K, M, seed):
    """Data in every mode 1 <= |k| <= K on a geometric grid to rmax = 12.

    Complex amplitudes (no conjugate symmetry) on a bump reaching down to
    r0; the tangential trace absorbs the moment residuals, so the data is
    admissible and the solve raises no warning.
    """
    grid = RadialGrid.geometric(R0, RMAX, M, ratio=1.01)
    rng = np.random.default_rng(seed)
    bump = smooth_bump(grid.nodes, R0, 11.5)

    def field():
        amp = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
        amp[K] = 0.0  # no circulation or flux
        return SpectralField(grid, K, amp[:, None] * bump)

    w, rho = field(), field()
    g_r = 0.1 * (rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1))
    g_phi = 0.1 * (rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1))
    g_r[K] = g_phi[K] = 0.0
    far = FarField(0.3, -0.2)
    residuals = moment_report(DiskProblem(w, rho, BoundaryTrace(K, g_r, g_phi), far)).residuals
    g_phi[K + 1 :] -= residuals[1:]
    return DiskProblem(w, rho, BoundaryTrace(K, g_r, g_phi), far)


@pytest.fixture(scope="module")
def highmode():
    problem = admissible_highmode_problem(K=128, M=300, seed=3)
    return problem, solve_disk(problem)


def test_high_modes_match_60_digit_trapezoid_sums(highmode):
    problem, solution = highmode
    nodes = problem.grid.nodes
    interior = [int(np.argmin(np.abs(nodes - r))) for r in (2.0, 4.1, 8.0)]
    vinf = lambda k: vinf_coefficients(problem.far_field, k)
    g = problem.boundary
    for k in (1, -1, 20, 50, -50, 100, 128, -128):
        ref_r, ref_phi = mp_mode_profiles(
            k, nodes, problem.vorticity.coeff(k), problem.divergence.coeff(k),
            g.coeff_r(k), g.coeff_phi(k), vinf, nodes[interior])
        mode = solution.mode(k)
        scale = max(np.max(np.abs(ref_r)), np.max(np.abs(ref_phi)))
        assert scale > 1e-6
        assert np.max(np.abs(mode.v_r[interior] - ref_r)) <= 1e-12 * scale, k
        assert np.max(np.abs(mode.v_phi[interior] - ref_phi)) <= 1e-12 * scale, k


def test_kernel_moments_match_the_vectorised_report(highmode):
    problem, solution = highmode
    report = moment_report(problem)
    assert report.admissible and solution.report.admissible
    assert np.max(np.abs(solution.report.residuals - report.residuals)) < 1e-12


def test_k300_to_rmax_12_is_finite_without_warnings():
    problem = admissible_highmode_problem(K=300, M=1200, seed=4)
    rng = np.random.default_rng(5)
    points = (R0 + (RMAX - R0) * rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solution = solve_disk(problem)
        h1 = h1_seminorm(solution)
        v = solution.sample(points)
    v_r, v_phi = solution.profiles()
    assert np.all(np.isfinite(v_r)) and np.all(np.isfinite(v_phi))
    assert np.isfinite(h1) and np.all(np.isfinite(v))
