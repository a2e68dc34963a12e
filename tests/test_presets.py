import numpy as np
import pytest

from divcurl.disk import FarField
from divcurl.grids import RadialGrid, analyze, equispaced_angles
from divcurl.presets import (_closed_form, _random_modes, ellipse_potential_velocity, modal_field,
                             random_admissible_problem)

from helpers import reference_closed_form


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


@pytest.mark.parametrize("K_data, K_c", [(8, 12), (3, 20), (0, 0)])
def test_closed_form_matches_the_per_mode_sum(K_data, K_c):
    # K_c > K_data: the top modes carry only their admissibility scale;
    # K_data = K_c = 0: no angular term at all
    rng = np.random.default_rng(13 + K_c)
    lo, hi = 1.8, 4.2
    modes = _random_modes(rng, K_data, 1.0)
    corrections = {k: complex(rng.normal(), rng.normal()) for k in range(K_c + 1)}
    radii = lo - 0.1 + (np.arange(90) + 0.5) * (hi - lo + 0.2) / 90
    angles = equispaced_angles(128)
    rr, pp = np.meshgrid(radii, angles, indexing="ij")
    r_scatter = rng.uniform(lo - 0.1, hi + 0.1, size=(17, 23))
    phi_scatter = rng.uniform(-np.pi, np.pi, size=(17, 23))
    cases = [((rr, pp), (rr, pp)),
             ((radii[:, None], angles[None, :]), (rr, pp)),
             ((r_scatter, phi_scatter), (r_scatter, phi_scatter)),
             ((2.9, 0.7), (2.9, 0.7)),
             ((radii, 1.3), (radii, 1.3))]
    for real_c0 in (False, True):
        if real_c0:  # the imaginary part of c_0 is zero for real data
            corrections[0] = corrections[0].real
            modes[0] = (complex(modes[0][0].real), modes[0][1])
        fn = _closed_form(modes, corrections, lo, hi)
        ref = reference_closed_form(modes, corrections, lo, hi)
        for args, ref_args in cases:
            value = np.asarray(fn(*args))
            expected = np.asarray(ref(*ref_args), dtype=complex)
            assert value.shape == expected.shape
            assert np.max(np.abs(value - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_ellipse_potential_velocity_agrees_on_both_sides_of_the_real_axis():
    # on the real axis beyond the c = 0.5 ellipse (semi-axis 1.25) a zero
    # imaginary part of either sign must give the same velocity, the limit
    # of the values just off the axis
    far = FarField(1.0, 0.4)
    x = np.array([-3.0, -1.8, -1.26, 1.26, 1.8, 3.0]) + 0j
    on_plus = ellipse_potential_velocity(x, 0.5, 1.0, far)
    on_minus = ellipse_potential_velocity(np.conj(x), 0.5, 1.0, far)
    assert np.max(np.abs(on_plus - on_minus)) <= 1e-15 * np.max(np.abs(on_plus))
    for side in (1e-9j, -1e-9j):
        off = ellipse_potential_velocity(x + side, 0.5, 1.0, far)
        assert np.max(np.abs(on_plus - off)) <= 1e-7
