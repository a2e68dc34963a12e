from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcurl import disk
from divcurl.disk import DiskProblem, FarField, solve_disk, vinf_coefficients
from divcurl.grids import BoundaryTrace, RadialGrid, SpectralField, smooth_bump
from divcurl.presets import potential_slip_trace, random_admissible_problem

from helpers import brute_force_mode_profiles, cylinder_flow_polar, mp_sample, polar_samples


def test_vinf_coefficients_horizontal_flow():
    vr, vphi = vinf_coefficients(FarField(1.0, 0.0), 1)
    assert vr == 0.5 and vphi == 0.5j
    assert vinf_coefficients(FarField(1.0, 0.0), 2) == (0.0, 0.0)
    assert vinf_coefficients(FarField(1.0, 0.0), 0) == (0.0, 0.0)


def test_vinf_coefficients_vertical_flow():
    vr, vphi = vinf_coefficients(FarField(0.0, 1.0), 1)
    assert vr == -0.5j and vphi == 0.5
    # cross-check by synthesizing the two conjugate modes at a few angles
    for phi in (0.0, 0.7, 2.4):
        vrm, vphm = vinf_coefficients(FarField(0.0, 1.0), -1)
        v_r = (vr * np.exp(1j * phi) + vrm * np.exp(-1j * phi)).real
        v_phi = (vphi * np.exp(1j * phi) + vphm * np.exp(-1j * phi)).real
        assert abs(v_r - np.sin(phi)) < 1e-15
        assert abs(v_phi - np.cos(phi)) < 1e-15


@settings(max_examples=40)
@given(v1=st.floats(-5, 5), v2=st.floats(-5, 5), k=st.integers(-4, 4))
def test_vinf_sign_relation(v1, v2, k):
    vr, vphi = vinf_coefficients(FarField(v1, v2), k)
    sign = (k > 0) - (k < 0)
    assert abs(vphi - sign * 1j * vr) < 1e-14


@pytest.mark.parametrize("K", [0, 1, 2, 128])
def test_vinf_rows_hold_the_coefficients_of_every_mode(K):
    # the (2, 2K+1) array the solver and the report read, bit for bit
    far = FarField(0.3, -0.2)
    want = np.array([vinf_coefficients(far, k) for k in range(-K, K + 1)], dtype=complex).T
    assert disk._vinf_rows(far, K).tobytes() == want.tobytes()


def trace_only_solution(g, r0):
    """Solution with no volume data and no far field: v_phi,k = alpha_k r^{-|k|-1}."""
    grid = RadialGrid.uniform(r0, 4.0 * r0, 21)
    zero = SpectralField.zeros(grid, g.K)
    # a trace alone violates the moment conditions; only its coefficients matter here
    return solve_disk(DiskProblem(zero, zero, g), warn_tolerance=np.inf)


def test_alpha_coefficient_examples():
    # alpha_k = r0^{k+1} (g_phi,k - i g_r,k) / 2 is v_phi,k(r0) r0^{k+1}
    def alpha(g, r0, k):
        return trace_only_solution(g, r0).v_phi[k + g.K, 0] * r0 ** (k + 1)

    g = BoundaryTrace.from_coeffs(2, tangential={1: 1.0})
    assert alpha(g, 1.0, 1) == 0.5
    zero = BoundaryTrace.zeros(3)
    for k in (1, 2, 3):
        assert alpha(zero, 2.0, k) == 0.0
    g2 = BoundaryTrace.from_coeffs(2, radial={2: 2.0})
    assert alpha(g2, 2.0, 2) == -8.0j


@pytest.fixture
def grid():
    return RadialGrid.uniform(1.0, 6.0, 1201)


def single_mode_solution(grid, K, k, w_k=None, g=None, far=FarField()):
    """solve_disk on vorticity w_k in mode k alone (zero when None), trace g, far field."""
    w = SpectralField.from_modes(grid, K, {} if w_k is None else {k: w_k})
    g = BoundaryTrace.zeros(K) if g is None else g
    return solve_disk(DiskProblem(w, SpectralField.zeros(grid, K), g, far))


def test_solve_mode_zero_data_is_zero(grid):
    solution = single_mode_solution(grid, 4, 2)
    assert np.max(np.abs(solution.v_r[2 + 4])) == 0.0
    assert np.max(np.abs(solution.v_phi[2 + 4])) == 0.0


def test_solve_mode_potential_flow(grid):
    # slip trace of the cylinder flow: g_r = 0, g_phi,1 = i v
    v = 1.7
    g = BoundaryTrace.from_coeffs(1, tangential={1: 1j * v, -1: -1j * v})
    solution = single_mode_solution(grid, 1, 1, g=g, far=FarField(v, 0.0))
    r = grid.nodes
    assert np.max(np.abs(solution.v_r[1 + 1] - 0.5 * v * (1.0 - 1.0 / r**2))) < 1e-14
    assert np.max(np.abs(solution.v_phi[1 + 1] - 0.5j * v * (1.0 + 1.0 / r**2))) < 1e-14


def test_solve_mode_against_brute_force_quadrature(grid):
    # piecewise vorticity +1 on [1,2], -1 on [2,3]; independent nested
    # trapezoid at much finer resolution as the oracle; jump nodes carry the
    # midpoint value so both quadratures stay second order
    def w_fn(s):
        s = np.asarray(s, dtype=float)
        out = np.where(s < 2.0, 1.0, -1.0) * (s < 3.0)
        out = np.where(s == 2.0, 0.0, out)
        out = np.where(s == 3.0, -0.5, out)
        return out

    zero_fn = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    solution = single_mode_solution(grid, 2, 1, w_fn(grid.nodes) + 0j)
    at = np.searchsorted(grid.nodes, [1.25, 1.8, 2.5, 3.5, 5.0])
    ref_r, ref_phi = brute_force_mode_profiles(
        1, w_fn, zero_fn, 0.0, 0.0, 0.0, 1.0, 6.0, grid.nodes[at], n_fine=60001
    )
    got_r, got_phi = solution.v_r[1 + 2, at], solution.v_phi[1 + 2, at]
    scale = np.max(np.abs(ref_phi))
    assert np.max(np.abs(got_r - ref_r)) < 5e-5 * scale
    assert np.max(np.abs(got_phi - ref_phi)) < 5e-5 * scale


def test_solve_mode_zero_examples(grid):
    nodes = grid.nodes
    solution = single_mode_solution(grid, 2, 0)
    assert np.max(np.abs(solution.v_r[2])) == 0.0 and np.max(np.abs(solution.v_phi[2])) == 0.0

    # w_0 = 1 on [1,2]: v_phi = (r^2-1)/(2r) inside, 3/(2r) beyond
    w0 = (nodes <= 2.0).astype(complex)
    with pytest.warns(UserWarning, match="moment conditions"):
        solution = single_mode_solution(grid, 2, 0, w0)
    inside = nodes <= 2.0
    expected = np.where(inside, (nodes**2 - 1.0) / (2.0 * nodes), 1.5 / nodes)
    assert np.max(np.abs(solution.v_phi[2] - expected)) < 5e-3
    assert np.max(np.abs(solution.v_r[2])) == 0.0

    # radial trace alone: v_r = g_r0 / r for r0 = 1
    g = BoundaryTrace.from_coeffs(2, radial={0: 1.0})
    with pytest.warns(UserWarning, match="moment conditions"):
        solution = single_mode_solution(grid, 2, 0, g=g)
    assert np.max(np.abs(solution.v_r[2] - 1.0 / nodes)) < 1e-14


def test_mode_zero_trace_scaling_with_r0():
    # boundary recovery fixes the constant to r0 * g_0 / r
    grid = RadialGrid.uniform(2.0, 8.0, 101)
    g = BoundaryTrace.from_coeffs(1, radial={0: 0.7}, tangential={0: -0.4})
    with pytest.warns(UserWarning, match="moment conditions"):
        solution = single_mode_solution(grid, 1, 0, g=g)
    assert abs(solution.v_r[1, 0] - 0.7) < 1e-14
    assert abs(solution.v_phi[1, 0] + 0.4) < 1e-14
    assert np.max(np.abs(solution.v_r[1] - 2.0 * 0.7 / grid.nodes)) < 1e-14


def cylinder_problem(grid, K=4, speed=1.0):
    w = SpectralField.zeros(grid, K)
    far = FarField(speed, 0.0)
    return DiskProblem(w, w, potential_slip_trace(K, far), far)


def test_solve_disk_cylinder_flow(grid):
    solution = solve_disk(cylinder_problem(grid))
    assert solution.report.admissible
    rng = np.random.default_rng(2)
    r = 1.0 + 5.0 * rng.random(200)
    phi = 2.0 * np.pi * rng.random(200)
    v_r, v_phi = polar_samples(solution, r, phi)
    exp_r, exp_phi = cylinder_flow_polar(r, phi)
    scale = np.max(np.abs(exp_phi))
    assert np.max(np.abs(v_r - exp_r)) < 1e-10 * scale
    assert np.max(np.abs(v_phi - exp_phi)) < 1e-10 * scale


def test_solve_disk_zero_everything(grid):
    w = SpectralField.zeros(grid, 3)
    solution = solve_disk(DiskProblem(w, w, BoundaryTrace.zeros(3)))
    points = np.array([1.5 + 0.5j, -2.0 + 1.0j])
    assert np.max(np.abs(solution.sample(points))) == 0.0


def test_boundary_recovery_general_r0():
    grid = RadialGrid.uniform(2.0, 12.0, 2001)
    rng = np.random.default_rng(4)
    problem = random_admissible_problem(rng, grid, K=6, K_data=4, K_c=6,
                                        boundary_modes=3, with_divergence=True,
                                        far_field=FarField(0.4, 0.9))
    solution = solve_disk(problem)
    trace = solution.boundary_trace()
    scale = max(np.max(np.abs(problem.boundary.g_r)), np.max(np.abs(problem.boundary.g_phi)), 1.0)
    assert np.max(np.abs(trace.g_r - problem.boundary.g_r)) < 1e-8 * scale
    assert np.max(np.abs(trace.g_phi - problem.boundary.g_phi)) < 1e-8 * scale


def test_solve_disk_linearity(grid):
    rng = np.random.default_rng(5)
    p1 = random_admissible_problem(rng, grid, K=5, K_data=3, K_c=5)
    p2 = random_admissible_problem(rng, grid, K=5, K_data=3, K_c=5,
                                   boundary_modes=2, far_field=FarField(0.3, -0.1))
    a, b = 1.7, -0.6
    combined = DiskProblem(
        p1.vorticity.add_modes({k: (a - 1.0) * p1.vorticity.coeff(k)
                                + b * p2.vorticity.coeff(k) for k in range(-5, 6)}),
        p1.divergence,
        BoundaryTrace(5, a * p1.boundary.g_r + b * p2.boundary.g_r,
                      a * p1.boundary.g_phi + b * p2.boundary.g_phi),
        FarField(a * p1.far_field.v1 + b * p2.far_field.v1,
                 a * p1.far_field.v2 + b * p2.far_field.v2),
    )
    s1 = solve_disk(p1)
    s2 = solve_disk(p2)
    sc = solve_disk(combined)
    points = np.array([1.4 + 0.3j, 2.5j, -3.1 + 1.0j, 5.0 - 2.0j])
    expected = a * s1.sample(points) + b * s2.sample(points)
    got = sc.sample(points)
    assert np.max(np.abs(got - expected)) < 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_conjugate_symmetry_for_real_data(grid):
    rng = np.random.default_rng(6)
    problem = random_admissible_problem(rng, grid, K=5, K_data=4, K_c=5,
                                        boundary_modes=2, far_field=FarField(1.0, 0.5))
    solution = solve_disk(problem)
    v_r, v_phi = solution.profiles()
    for k in range(1, 6):
        assert np.max(np.abs(v_r[5 - k] - np.conj(v_r[5 + k]))) < 1e-13
        assert np.max(np.abs(v_phi[5 - k] - np.conj(v_phi[5 + k]))) < 1e-13


def test_far_field_decay_beyond_support():
    grid = RadialGrid.uniform(1.0, 64.0, 4001)
    rng = np.random.default_rng(7)
    problem = random_admissible_problem(rng, grid, K=5, K_data=4, K_c=5,
                                        support=(1.5, 3.0), boundary_modes=2,
                                        far_field=FarField(1.0, 0.0))
    solution = solve_disk(problem)
    vinf = problem.far_field.as_complex
    r1, r2 = 16.0, 48.0
    phis = np.linspace(0.0, 2.0 * np.pi, 13)
    dev1 = np.max(np.abs(solution.sample(r1 * np.exp(1j * phis)) - vinf))
    dev2 = np.max(np.abs(solution.sample(r2 * np.exp(1j * phis)) - vinf))
    # admissible data has zero circulation and flux, so |v - vinf| = O(r^-2)
    assert dev2 <= dev1 * (r1 / r2) ** 2 * 1.5


def test_incompatible_data_warns_but_solves(grid):
    w = SpectralField.zeros(grid, 2)
    problem = DiskProblem(w, w, BoundaryTrace.zeros(2), FarField(1.0, 0.0))
    with pytest.warns(UserWarning, match="moment conditions"):
        solution = solve_disk(problem)
    assert not solution.report.admissible
    assert abs(solution.report.residuals[1] + 1j) < 1e-14


def test_circulation_only_warning_says_the_trace_is_met():
    # a swirl of circulation 22.75 and nothing else: every k >= 1 residual is
    # zero, the field meets g = 0 exactly and only the 1/r tail is left
    grid = RadialGrid.uniform(1.0, 12.0, 2201)
    w = SpectralField.from_modes(grid, 4, {0: smooth_bump(grid.nodes, 2.0, 4.0)})
    problem = DiskProblem(w, SpectralField.zeros(grid, 4), BoundaryTrace.zeros(4))
    with pytest.warns(UserWarning, match="moment conditions") as record:
        solution = solve_disk(problem)
    (message,) = [str(r.message) for r in record]
    assert "meets the boundary trace" in message and "will not match" not in message
    assert "circulation Gamma 2.275e+01, flux Q 0.000e+00" in message
    assert solution.report.max_residual == 0.0
    assert abs(solution.report.circulation_flux - 22.75) < 0.01
    trace = solution.boundary_trace()
    assert np.max(np.abs(trace.g_r)) == 0.0 and np.max(np.abs(trace.g_phi)) == 0.0


def test_mode_residual_warning_says_the_trace_is_missed(grid):
    w = SpectralField.zeros(grid, 2)
    problem = DiskProblem(w, w, BoundaryTrace.zeros(2), FarField(1.0, 0.0))
    with pytest.warns(UserWarning, match="moment conditions") as record:
        solve_disk(problem)
    (message,) = [str(r.message) for r in record]
    assert "will not match the boundary trace" in message and "meets" not in message


def test_truncation_contract_warning(grid):
    # data touching rmax violates the compact-support contract (and, being a
    # net swirl, the circulation condition as well: two warnings)
    w = SpectralField.from_modes(grid, 2, {0: np.ones(len(grid))})
    problem = DiskProblem(w, SpectralField.zeros(grid, 2), BoundaryTrace.zeros(2))
    with pytest.warns(UserWarning) as record:
        solve_disk(problem)
    messages = [str(r.message) for r in record]
    assert any("truncation radius" in m for m in messages)
    assert any("moment conditions" in m for m in messages)


def test_negative_mode_by_conjugation_for_complex_data(grid):
    # complex-valued mode data: the negative mode solves the conjugated system
    # (and violates its own moment condition, which the report checks)
    nodes = grid.nodes
    profile = smooth_bump(nodes, 2.0, 4.0) * (1.0 + 0.5j)
    w = SpectralField.from_modes(grid, 2, {-2: profile})
    problem = DiskProblem(w, SpectralField.zeros(grid, 2), BoundaryTrace.zeros(2))
    with pytest.warns(UserWarning, match="moment conditions"):
        solution = solve_disk(problem)
    mirrored = SpectralField.from_modes(grid, 2, {2: np.conj(profile)})
    with pytest.warns(UserWarning, match="moment conditions"):
        ref = solve_disk(DiskProblem(mirrored, SpectralField.zeros(grid, 2),
                                     BoundaryTrace.zeros(2)))
    assert np.allclose(solution.v_r[2 - 2], np.conj(ref.v_r[2 + 2]))
    assert np.allclose(solution.v_phi[2 - 2], np.conj(ref.v_phi[2 + 2]))


def complex_data_problem(grid, K=4, seed=11):
    """Complex, non-conjugate-symmetric data in every mode, with a trace, and a far
    field where the band holds its modes +-1 (K >= 1)."""
    rng = np.random.default_rng(seed)
    s = grid.nodes
    bump = smooth_bump(s, 1.2, 5.0)

    def amplitudes():
        return rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)

    w = SpectralField(grid, K, amplitudes()[:, None] * bump)
    rho = SpectralField(grid, K, amplitudes()[:, None] * bump * s / 3.0)
    g = BoundaryTrace(K, 0.2 * amplitudes(), 0.2 * amplitudes())
    return DiskProblem(w, rho, g, FarField(0.4, -0.7) if K else FarField())


@pytest.fixture(scope="module")
def complex_solution():
    grid = RadialGrid.geometric(1.0, 6.0, 241, ratio=1.005)
    problem = complex_data_problem(grid)
    with pytest.warns(UserWarning, match="moment conditions"):
        return problem, solve_disk(problem)


def test_polar_sampling_at_nodes_equals_profiles(complex_solution):
    # at the nodes, sample() sums sum_k (v_r,k + i v_phi,k) e^{i (k+1) phi} of the profiles
    problem, solution = complex_solution
    nodes = problem.grid.nodes
    v_r, v_phi = solution.profiles()
    ks = np.arange(-problem.K, problem.K + 1)
    phis = np.array([0.0, 0.9, 2.6, 4.4])
    for j in (0, 1, 57, 120, 239, 240):
        got = solution.sample(nodes[j] * np.exp(1j * phis))
        phases = np.exp(1j * np.outer(ks + 1, phis))
        scale = np.max(np.abs(v_r[:, j])) + np.max(np.abs(v_phi[:, j]))
        assert np.max(np.abs(got - (v_r[:, j] + 1j * v_phi[:, j]) @ phases)) <= 1e-13 * scale


def test_off_node_profiles_match_the_in_panel_interpolation_rule(complex_solution):
    # the Horner mode sum against the 60-digit in-panel formulas of every mode,
    # each times its phase e^{i (k+1) phi}
    problem, solution = complex_solution
    rng = np.random.default_rng(13)
    radii = np.sort(1.0 + 5.0 * rng.random(6))
    points = np.multiply.outer(radii, np.exp(1j * np.array([0.0, 0.9, 2.6, 4.4])))
    want, scale = mp_sample(problem, points)
    assert np.max(np.abs(solution.sample(points) - want)) <= 1e-13 * scale


@pytest.mark.parametrize("K", [0, 1])
def test_lowest_bands_sample_the_mode_formulas(grid, K):
    # no Horner step at K = 0; a single one, with both far-field constants, at K = 1
    problem = complex_data_problem(grid, K=K)
    solution = solve_disk(problem, warn_tolerance=np.inf)
    rng = np.random.default_rng(17)
    points = (1.0 + 7.0 * rng.random(12)) * np.exp(2j * np.pi * rng.random(12))
    want, scale = mp_sample(problem, points)
    assert np.max(np.abs(solution.sample(points) - want)) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["vorticity", "divergence", "boundary"])
def test_non_finite_data_raises_naming_the_field(name):
    problem = random_admissible_problem(np.random.default_rng(2), RadialGrid.uniform(1.0, 8.0, 401),
                                        K=4, K_c=4, with_divergence=True, boundary_modes=2)
    if name == "boundary":
        g_phi = np.array(problem.boundary.g_phi)
        g_phi[1] = np.nan
        bad = BoundaryTrace(4, problem.boundary.g_r, g_phi)
    else:
        coeffs = np.array(getattr(problem, name).coeffs)
        coeffs[6, 100] = np.nan  # one coefficient of mode 2
        bad = SpectralField(problem.grid, 4, coeffs)
    with pytest.raises(ValueError, match=name):
        solve_disk(replace(problem, **{name: bad}))


@pytest.mark.parametrize("point", [complex(np.nan, 0.0), complex(2.0, np.nan),
                                   complex(np.inf, 0.0), complex(-3.0, -np.inf),
                                   complex(np.inf, np.nan)])
def test_sample_rejects_a_point_that_is_not_finite(point):
    # a NaN point, or one of infinite modulus, gave NaN and a RuntimeWarning
    problem = random_admissible_problem(np.random.default_rng(2), RadialGrid.uniform(1.0, 8.0, 401),
                                        K=4, K_c=4, with_divergence=True, boundary_modes=2)
    solution = solve_disk(problem)
    good = np.array([2.0 + 1.0j, -4.0 + 0.5j])
    with pytest.raises(ValueError, match="sample points must be finite"):
        solution.sample(np.append(good, point))
    with pytest.raises(ValueError, match="sample points must be finite"):
        solution.sample(point)
    assert np.all(np.isfinite(solution.sample(good)))


def test_a_far_field_needs_a_band_with_modes_one():
    # v_inf lives in modes +-1: a K = 0 band solved it as 0 and read it admissible
    grid = RadialGrid.uniform(1.0, 8.0, 401)
    zero = SpectralField.zeros(grid, 0)
    with pytest.raises(ValueError, match="far field"):
        DiskProblem(zero, zero, BoundaryTrace.zeros(0), FarField(1.0, 0.0))
    solution = solve_disk(DiskProblem(zero, zero, BoundaryTrace.zeros(0)))
    assert solution.sample(2.0 + 0j) == 0j
