import numpy as np
import pytest

from divcurl.biot_savart import _volume_cells
from divcurl.conformal import joukowski_map
from divcurl.disk import FarField
from divcurl.grids import RadialGrid, analysis_angles, analyze, equispaced_angles, smooth_bump
from divcurl.presets import (_closed_form, _random_modes, ellipse_potential_velocity, modal_field,
                             random_admissible_exterior_problem, random_admissible_problem)

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


def criterion_3_lattices():
    """(radius column, angle row) of the K = 12 pullback on [1, 8] and of the oracle cells."""
    grid = RadialGrid.uniform(1.0, 8.0, 1501)
    radii, angles, _ = _volume_cells(grid, (1.8, 4.2), 160, 256)
    return [(grid.nodes[:, None], analysis_angles(12)[None, :]), (radii, angles)]


@pytest.mark.parametrize("c", [0.5, 1.0], ids=["c=0.5", "slit"])
def test_point_entry_matches_the_per_mode_sum_at_mapped_points(c):
    # the exterior preset evaluates its disk data at z = Phi(p) from z / |z|,
    # with no angle: the mode sum at (|z|, angle z) agrees to rounding and has
    # the same zeros, on the pullback lattice and the oracle cells mapped to
    # Omega and back
    rng = np.random.default_rng(17)
    lo, hi = 1.8, 4.2
    modes = _random_modes(rng, 8, 1.0)
    corrections = {k: complex(rng.normal(), rng.normal()) for k in range(13)}
    m = joukowski_map(c, 1.0)
    for real_c0 in (False, True):
        if real_c0:
            corrections[0] = corrections[0].real
            modes[0] = (complex(modes[0][0].real), modes[0][1])
        at_points = _closed_form(modes, corrections, lo, hi)._at_points
        ref = reference_closed_form(modes, corrections, lo, hi)
        for radii, angles in criterion_3_lattices():
            z = m.forward(m.inverse(radii * np.exp(1j * angles)))
            value = at_points(z)
            expected = ref(np.abs(z), np.angle(z))
            assert value.shape == z.shape and value.dtype == (float if real_c0 else complex)
            assert np.array_equal(value == 0.0, expected == 0.0)
            assert np.max(np.abs(value - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_exterior_preset_is_an_exact_zero_at_the_slit_tips():
    # c = r0: (Phi^-1)' vanishes at the tips p = +-2 r0, where the data are
    # zero; the preset divides by it only where its disk data are nonzero
    m = joukowski_map(1.0, 1.0)
    grid = RadialGrid.uniform(1.0, 8.0, 1501)
    ext = random_admissible_exterior_problem(np.random.default_rng(5), m, grid, 12, K_data=8,
                                             K_c=12, support=(1.8, 4.2))
    assert np.array_equal(ext.vorticity_fn(np.array([2.0, -2.0, 2.0 - 0j])), np.zeros(3))
    (nodes, angles), _ = criterion_3_lattices()
    values = ext.vorticity_fn(m.inverse(nodes * np.exp(1j * angles)))
    assert np.all(np.isfinite(values)) and np.all(values[0] == 0.0)


def test_separable_path_sums_the_angle_row_as_before():
    # on a radius column and an angle row the (r, phi) entry forms e^{i phi}
    # = exp(1j phi) on the row and builds its powers by products, as it did
    # when the angular sums took angles: the criterion-3 values keep their bits
    rng = np.random.default_rng(19)
    lo, hi = 1.8, 4.2
    modes = _random_modes(rng, 8, 1.0)
    corrections = {k: rng.normal() for k in range(13)}
    weighted = np.zeros((3, 13), dtype=complex)
    for k, (amp, a) in enumerate(modes):
        weighted[:, k] = amp * np.asarray(a)
    for k, lam in corrections.items():
        weighted[0, k] += lam
    weighted[:, 1:] *= 2.0
    fn = _closed_form(modes, corrections, lo, hi)
    for radii, angles in criterion_3_lattices():
        powers = np.ones((13, angles.size), dtype=complex)
        for k in range(1, 13):
            powers[k] = powers[k - 1] * np.exp(1j * angles.ravel())
        q0, q1, q2 = (weighted @ powers).real.reshape((3,) + angles.shape)
        t = (2.0 * radii - (lo + hi)) / (hi - lo)
        expected = smooth_bump(radii, lo, hi) * (q0 + t * (q1 + t * q2))
        assert np.array_equal(fn(radii, angles), expected)


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
