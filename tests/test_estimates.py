"""Empirical boundedness checks for the a-priori estimates.

The gradient and H1 bounds are exercised by the acceptance suite; here the
uniform-norm interpolation bound for no-slip solenoidal flows is checked as a
property (ratio finite and stable over a randomized suite), plus the mapped
counterparts of the volume estimates.
"""

import numpy as np

from divcurl.conformal import joukowski_map, pullback_problem, solve_exterior
from divcurl.disk import solve_disk
from divcurl.grids import RadialGrid, equispaced_angles
from divcurl.norms import (
    far_field_deviation_h1,
    h1_seminorm,
    l2_weighted_norm,
    scalar_gradient_norm,
)
from divcurl.presets import random_admissible_exterior_problem, random_admissible_problem


def sup_deviation(solution, grid, vinf):
    radii = np.linspace(grid.r0 * 1.0001, grid.rmax * 0.98, 40)
    angles = equispaced_angles(48)
    rr, pp = np.meshgrid(radii, angles, indexing="ij")
    v = solution.sample(rr * np.exp(1j * pp))
    return float(np.max(np.abs(v - vinf)))


def test_sup_norm_interpolation_ratio_bounded():
    # ||v - v_inf||_inf against (||rho|| + ||w||_{L2,N})^{1/4} ||w||^{1/2} ||grad w||^{1/4}
    grid = RadialGrid.uniform(1.0, 10.0, 1001)
    ratios = []
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        problem = random_admissible_problem(rng, grid, K=8, K_data=6, K_c=8,
                                            support=(1.6, 4.5))
        solution = solve_disk(problem)
        sup = sup_deviation(solution, grid, problem.far_field.as_complex)
        weighted = (l2_weighted_norm(problem.divergence, 2.0)
                    + l2_weighted_norm(problem.vorticity, 2.0))
        bound = (weighted ** 0.25
                 * l2_weighted_norm(problem.vorticity, 0.0) ** 0.5
                 * scalar_gradient_norm(problem.vorticity) ** 0.25)
        ratios.append(sup / bound)
    ratios = np.asarray(ratios)
    assert np.all(np.isfinite(ratios))
    assert np.max(ratios) < 10.0 * np.median(ratios)


def test_mapped_domain_estimate_ratios_finite():
    m = joukowski_map(0.5, 1.0)
    grid = RadialGrid.uniform(1.0, 8.0, 801)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ext = random_admissible_exterior_problem(rng, m, grid, K=6, K_data=4, K_c=6,
                                                 support=(1.7, 4.0))
        pulled = pullback_problem(ext)
        solution = solve_exterior(ext)
        den1 = l2_weighted_norm(pulled.vorticity, 0.0) + l2_weighted_norm(pulled.divergence, 0.0)
        den2 = l2_weighted_norm(pulled.vorticity, 2.0) + l2_weighted_norm(pulled.divergence, 2.0)
        r1 = h1_seminorm(solution.disk_solution) / den1
        r2 = far_field_deviation_h1(solution.disk_solution) / den2
        assert np.isfinite(r1) and np.isfinite(r2)
        assert 0.0 < r1 < 100.0 and 0.0 < r2 < 100.0
