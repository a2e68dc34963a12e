import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcurl.disk import DiskProblem, FarField, solve_disk
from divcurl.grids import (
    BoundaryTrace,
    RadialGrid,
    SpectralField,
    equispaced_angles,
    smooth_bump,
    synthesize,
)
from divcurl.norms import (
    far_field_deviation_h1,
    far_field_deviation_l2,
    h1_seminorm,
    h_half_boundary_norm,
    l2_weighted_norm,
    scalar_gradient_norm,
    _radial_derivative,
)
from divcurl import norms, quadrature
from divcurl.quadrature import trapezoid_weights


def test_l2_weighted_norm_zero_field():
    grid = RadialGrid.uniform(1.0, 3.0, 33)
    assert l2_weighted_norm(SpectralField.zeros(grid, 4)) == 0.0


def test_l2_weighted_norm_closed_forms():
    # dc profile equal to 1 on [1, 2], zero beyond the grid span
    grid = RadialGrid.uniform(1.0, 2.0, 2001)
    field = SpectralField.from_modes(grid, 2, {0: np.ones(len(grid))})
    # N = 0: sqrt(2 pi int_1^2 s ds) = sqrt(3 pi), exact for the linear integrand
    assert abs(l2_weighted_norm(field, 0.0) - np.sqrt(3.0 * np.pi)) < 1e-12
    # N = 1: sqrt(2 pi int_1^2 (1+s^2) s ds) = sqrt(2 pi * 21/4)
    expected = np.sqrt(2.0 * np.pi * 21.0 / 4.0)
    assert abs(l2_weighted_norm(field, 1.0) - expected) < 1e-6
    with pytest.raises(ValueError):
        l2_weighted_norm(field, -2.0)
    with pytest.raises(ValueError, match=r"N = 500\.0 at rmax = 2\.0"):
        l2_weighted_norm(field, 500)  # (1 + s^2)^N overflows


def test_h_half_boundary_norm_examples():
    assert h_half_boundary_norm(BoundaryTrace.zeros(5)) == 0.0
    g1 = BoundaryTrace.from_coeffs(5, tangential={1: 1.0})
    assert abs(h_half_boundary_norm(g1) - np.sqrt(2.0)) < 1e-15
    g2 = BoundaryTrace.from_coeffs(5, radial={2: 3j})
    assert abs(h_half_boundary_norm(g2) - np.sqrt(27.0)) < 1e-14


@settings(max_examples=30)
@given(scale=st.floats(0.1, 10.0), gr=st.floats(-3.0, 3.0), gp=st.floats(-3.0, 3.0),
       k=st.integers(1, 6), grow=st.floats(1.0, 4.0))
def test_h_half_homogeneous_and_monotone(scale, gr, gp, k, grow):
    base = BoundaryTrace.from_coeffs(6, radial={k: gr}, tangential={k: gp})
    scaled = BoundaryTrace.from_coeffs(6, radial={k: scale * gr}, tangential={k: scale * gp})
    n_base = h_half_boundary_norm(base)
    # homogeneous of degree one
    assert abs(h_half_boundary_norm(scaled) - scale * n_base) < 1e-10 * max(1.0, scale * n_base)
    # monotone in each coefficient modulus separately
    bigger_r = BoundaryTrace.from_coeffs(6, radial={k: grow * gr}, tangential={k: gp})
    bigger_p = BoundaryTrace.from_coeffs(6, radial={k: gr}, tangential={k: grow * gp})
    assert h_half_boundary_norm(bigger_r) >= n_base - 1e-12
    assert h_half_boundary_norm(bigger_p) >= n_base - 1e-12


def zero_solution(grid, K):
    w = SpectralField.zeros(grid, K)
    problem = DiskProblem(w, w, BoundaryTrace.zeros(K))
    return solve_disk(problem)


def test_h1_seminorm_zero_solution():
    grid = RadialGrid.uniform(1.0, 10.0, 101)
    assert h1_seminorm(zero_solution(grid, 3)) == 0.0


def test_h1_seminorm_constant_far_field_contributes_nothing():
    grid = RadialGrid.uniform(1.0, 40.0, 801)
    w = SpectralField.zeros(grid, 2)
    # boundary trace equal to the constant field keeps the solution uniform
    v1, v2 = 0.7, -1.3
    angles = equispaced_angles(16)
    g = BoundaryTrace.from_samples(
        v1 * np.cos(angles) + v2 * np.sin(angles),
        -v1 * np.sin(angles) + v2 * np.cos(angles),
        2,
    )
    solution = solve_disk(DiskProblem(w, w, g, FarField(v1, v2)))
    # the field is exactly v_inf everywhere, so the gradient energy vanishes
    assert h1_seminorm(solution) < 1e-12
    assert far_field_deviation_h1(solution) < 1e-12


def test_h1_seminorm_alpha_mode_closed_form():
    # decaying profile pair v_r = i a / r^2, v_phi = a / r^2 at k = 1 and its
    # conjugate mirror (boundary-coefficient part of the mode formulas, r0 = 1)
    r0, rmax = 1.0, 200.0
    grid = RadialGrid.geometric(r0, rmax, 6001, ratio=1.001)
    a = 0.8 - 0.3j
    g = BoundaryTrace.from_coeffs(
        1, tangential={1: 2.0 * a / r0**2, -1: np.conj(2.0 * a / r0**2)}
    )
    w = SpectralField.zeros(grid, 1)
    with pytest.warns(UserWarning, match="moment conditions"):
        solution = solve_disk(DiskProblem(w, w, g))
    # hand-computed gradient energy per mode:
    #   |d/dr|^2 terms: 2 * 4 |a|^2 r^-6, frame/angular terms: 2 * 4 |a|^2 r^-6
    # so the integral of 16 |a|^2 r^-6 * r dr = 4 |a|^2 (r0^-4 - rmax^-4)
    per_mode = 4.0 * abs(a) ** 2 * (r0**-4 - rmax**-4)
    expected = np.sqrt(2.0 * np.pi * 2.0 * per_mode)
    assert abs(h1_seminorm(solution) - expected) / expected < 2e-4
    # the two proof identities for the alpha tail, checked by direct quadrature
    k = 1
    nodes = grid.nodes
    weights = trapezoid_weights(nodes)
    deriv_sq = weights @ (nodes * np.abs(-(k + 1) * a * nodes ** (-k - 2)) ** 2)
    assert abs(deriv_sq - abs(a) ** 2 * (k + 1) / (2.0 * r0 ** (2 * k + 2))) < 1e-4
    angular_sq = weights @ (nodes * np.abs(k * a * nodes ** (-k - 1)) ** 2)
    assert abs(angular_sq - abs(a) ** 2 * k / (2.0 * r0 ** (2 * k))) < 1e-4


def test_infinite_energy_tail_grows_with_rmax():
    # nonzero net circulation leaves a 1/r tail: the L2 deviation from the
    # far field then grows (logarithmically) with the truncation radius
    deviations = []
    for rmax in (16.0, 256.0):
        grid = RadialGrid.uniform(1.0, rmax, 2001)
        bump = np.exp(-((grid.nodes - 2.0) ** 2) * 4.0) + 0j
        w = SpectralField.from_modes(grid, 2, {0: bump})
        with pytest.warns(UserWarning, match="moment conditions"):
            solution = solve_disk(DiskProblem(w, SpectralField.zeros(grid, 2),
                                              BoundaryTrace.zeros(2)))
        deviations.append(far_field_deviation_l2(solution))
    assert deviations[1] > deviations[0] * 1.5


def test_parseval_identity():
    rng = np.random.default_rng(9)
    grid = RadialGrid.uniform(1.0, 4.0, 257)
    K = 6
    coeffs = rng.normal(size=(2 * K + 1, len(grid))) + 1j * rng.normal(
        size=(2 * K + 1, len(grid))
    )
    field = SpectralField(grid, K, coeffs)
    n_angles = 2 * K + 1
    samples = synthesize(field, equispaced_angles(n_angles))
    # grid L2 of samples: angular mean times 2 pi, trapezoid with weight s
    weights = trapezoid_weights(grid.nodes) * grid.nodes
    sample_norm_sq = 2.0 * np.pi * np.sum(
        weights * np.mean(np.abs(samples) ** 2, axis=1)
    )
    mode_norm = l2_weighted_norm(field, 0.0)
    assert abs(np.sqrt(sample_norm_sq) - mode_norm) < 1e-10 * mode_norm


@pytest.mark.parametrize("nodes", [
    RadialGrid.uniform(1.0, 12.0, 4000).nodes,
    RadialGrid.geometric(1.0, 12.0, 4000, ratio=1.0005).nodes,
    RadialGrid.uniform(1.0, 3.0, 9).nodes,
    RadialGrid.geometric(1.0, 3.0, 9, ratio=1.2).nodes,
    np.arange(1.0, 10.0),  # exactly even spacing: np.gradient's central difference
])
def test_radial_derivative_is_np_gradient_bit_for_bit(nodes):
    rng = np.random.default_rng(nodes.size)
    rows = rng.normal(size=(5, nodes.size)) + 1j * rng.normal(size=(5, nodes.size))
    for f in (rows, rows.real.copy()):
        got = _radial_derivative(f, nodes)
        want = np.gradient(f, nodes, axis=1)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(float), want.view(float))


def test_scalar_gradient_norm_closed_form():
    # f = s^2 in mode 2 on [1, 2]: |f'|^2 + (2/s)^2 |f|^2 = 8 s^2, so
    # ||grad f||^2 = 2 pi int 8 s^3 ds = 60 pi
    grid = RadialGrid.uniform(1.0, 2.0, 2001)
    field = SpectralField.from_modes(grid, 3, {2: grid.nodes**2})
    assert abs(scalar_gradient_norm(field) - np.sqrt(60.0 * np.pi)) < 1e-5


def test_single_term_norm_hands_the_worker_nothing(monkeypatch, two_cpus):
    # l2_weighted_norm squares its one term on the calling thread, with the
    # same sum as the sequential reference
    from helpers import sequential_power

    grid = RadialGrid.geometric(1.0, 12.0, 4000, ratio=1.0005)
    rng = np.random.default_rng(4)
    shape = (257, 4000)
    field = SpectralField(grid, 128, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    side_by_side = []
    together = norms._together

    def recorded(first, second, size):
        side_by_side.append(quadrature._side_by_side(size))
        return together(first, second, size)

    monkeypatch.setattr(norms, "_together", recorded)
    got = l2_weighted_norm(field, 2.0)
    assert side_by_side == []
    s = grid.nodes
    power = sequential_power(257, s, lambda band: [field.coeffs[band]])
    assert got == norms._volume_norm(power, s, (1.0 + s * s) ** 2.0)


@pytest.mark.parametrize("threads", [False, True], ids=["one_thread", "two_threads"])
def test_velocity_norms_that_overflow_are_finite_or_raise(threads, monkeypatch, two_cpus):
    # smooth_bump data on [3.2, 7.6] in every mode |k| <= 8 at amplitude
    # 1e300: the profiles are finite and their squares overflow, but the norms
    # themselves can be represented, and the safely scaled pass finds them
    grid = RadialGrid.uniform(1.0, 12.0, 400)
    K = 8
    bump = smooth_bump(grid.nodes, 3.2, 7.6)

    def solve(amplitude):
        w = SpectralField.from_modes(grid, K, {k: amplitude * bump for k in range(-K, K + 1)})
        with pytest.warns(UserWarning, match="moment conditions"):
            return solve_disk(DiskProblem(w, SpectralField.zeros(grid, K),
                                          BoundaryTrace.zeros(K)))

    unit, solution = solve(1.0), solve(1e300)
    assert all(np.all(np.isfinite(rows)) for rows in solution.rows)
    if threads:  # bands of 4 rows, their halves on the worker thread and on this one
        monkeypatch.setattr(quadrature, "_BAND_BYTES", 4 * 16 * 400)
        monkeypatch.setattr(quadrature, "_SIDE_BY_SIDE", 0)
    # profiles 2^1022 times those of unit data: the norms exceed the largest float
    huge = replace(unit, rows=tuple(rows * 2.0**1022 for rows in unit.rows))
    for norm in (h1_seminorm, far_field_deviation_l2, far_field_deviation_h1):
        want = 1e300 * norm(unit)
        assert abs(norm(solution) - want) <= 1e-13 * want
        with pytest.raises(ValueError, match="not finite"):
            norm(huge)


def scaled_norms(amplitude):
    """The six norms of a mode +-2 bump of the given amplitude, uniform on [1, 8], and
    of a trace of that amplitude in every mode."""
    grid = RadialGrid.uniform(1.0, 8.0, 401)
    K = 6
    bump = amplitude * smooth_bump(grid.nodes, 2.0, 4.0)
    w = SpectralField.from_modes(grid, K, {2: bump, -2: bump})
    with warnings.catch_warnings():  # the moment verdict is absolute: 2^-996 data pass it
        warnings.simplefilter("ignore", UserWarning)
        solution = solve_disk(DiskProblem(w, SpectralField.zeros(grid, K), BoundaryTrace.zeros(K)))
    g = BoundaryTrace(K, np.full(2 * K + 1, amplitude + 0j), np.full(2 * K + 1, -amplitude + 0j))
    return [l2_weighted_norm(w, 2.0), scalar_gradient_norm(w), h_half_boundary_norm(g),
            h1_seminorm(solution), far_field_deviation_l2(solution),
            far_field_deviation_h1(solution)]


@pytest.mark.parametrize("exponent", [996, -996])
def test_norms_scale_exactly_by_powers_of_two(exponent):
    # at 2^996 the squares overflow and at 2^-996 they underflow to zero; the
    # norms are those of unit amplitude times 2^exponent, bit for bit
    unit = scaled_norms(1.0)
    assert all(0.0 < norm < np.inf for norm in unit)
    assert scaled_norms(2.0**exponent) == [norm * 2.0**exponent for norm in unit]


def test_norms_that_cannot_be_represented_raise():
    grid = RadialGrid.uniform(1.0, 8.0, 401)
    field = SpectralField(grid, 6, np.full((13, 401), 1.5e308 + 0j))
    with pytest.raises(ValueError, match="weighted L2 norm is not finite for N = 0.0"):
        l2_weighted_norm(field)
    with pytest.raises(ValueError, match="gradient norm is not finite"):
        scalar_gradient_norm(SpectralField.from_modes(grid, 6, {6: np.full(401, 1.5e308)}))
    g = BoundaryTrace(6, np.full(13, 1e308 + 0j), np.zeros(13, dtype=complex))
    with pytest.raises(ValueError, match="boundary norm is not finite"):
        h_half_boundary_norm(g)
