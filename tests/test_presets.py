import numpy as np

from divcurl.disk import FarField
from divcurl.grids import RadialGrid, analyze, equispaced_angles
from divcurl.presets import modal_field, random_admissible_problem


def test_random_problem_closed_forms_match_node_coefficients():
    grid = RadialGrid.uniform(1.0, 8.0, 801)
    rng = np.random.default_rng(11)
    K = 12
    problem = random_admissible_problem(rng, grid, K, K_data=8, K_c=12, with_divergence=True,
                                        boundary_modes=3, far_field=FarField(0.4, -0.7))
    rr, pp = np.meshgrid(grid.nodes, equispaced_angles(64), indexing="ij")
    for field, fn in ((problem.vorticity, problem.vorticity_fn),
                      (problem.divergence, problem.divergence_fn)):
        coeffs = analyze(grid, fn(rr, pp), K).coeffs
        assert np.max(np.abs(coeffs - field.coeffs)) <= 1e-12 * np.max(np.abs(field.coeffs))


def test_modal_field_callable_matches_per_mode_phases():
    grid = RadialGrid.uniform(1.0, 4.0, 31)
    rng = np.random.default_rng(12)
    amps = rng.normal(size=(65, 2)) @ np.array([1.0, 1j])
    # complex, non-conjugate-symmetric modes |k| <= 32, some left out
    mode_fns = {k: (lambda s, a=amps[k + 32], k=k: a * (1.0 + 0.05 * k * s))
                for k in range(-32, 33) if k % 7 != 3}
    _, fn = modal_field(grid, 32, mode_fns)
    r = rng.uniform(1.0, 4.0, size=(40, 25))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=(40, 25))
    ref = sum(f(r) * np.exp(1j * k * phi) for k, f in mode_fns.items())
    assert np.max(np.abs(fn(r, phi) - ref)) <= 1e-13 * np.max(np.abs(ref))
