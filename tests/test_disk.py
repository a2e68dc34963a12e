import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcurl.disk import (
    DiskProblem,
    FarField,
    alpha_coefficient,
    solve_disk,
    solve_mode,
    solve_mode_zero,
    vinf_coefficients,
)
from divcurl.grids import BoundaryTrace, RadialGrid, SpectralField, smooth_bump
from divcurl.presets import cylinder_slip_trace, random_admissible_problem

from helpers import brute_force_mode_profiles, cylinder_flow_polar, mp_mode_profiles


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


def test_alpha_coefficient_examples():
    g = BoundaryTrace.from_coeffs(2, tangential={1: 1.0})
    assert alpha_coefficient(g, 1.0, 1) == 0.5
    zero = BoundaryTrace.zeros(3)
    for k in (1, 2, 3):
        assert alpha_coefficient(zero, 2.0, k) == 0.0
    g2 = BoundaryTrace.from_coeffs(2, radial={2: 2.0})
    assert alpha_coefficient(g2, 2.0, 2) == -8.0j
    with pytest.raises(ValueError):
        alpha_coefficient(g, 1.0, 0)


@pytest.fixture
def grid():
    return RadialGrid.uniform(1.0, 6.0, 1201)


def test_solve_mode_zero_data_is_zero(grid):
    zero = np.zeros(len(grid), dtype=complex)
    mode = solve_mode(2, zero, zero, BoundaryTrace.zeros(4), FarField(), grid)
    assert np.max(np.abs(mode.v_r)) == 0.0
    assert np.max(np.abs(mode.v_phi)) == 0.0


def test_solve_mode_potential_flow(grid):
    # slip trace of the cylinder flow: g_r = 0, g_phi,1 = i v
    v = 1.7
    g = BoundaryTrace.from_coeffs(1, tangential={1: 1j * v, -1: -1j * v})
    zero = np.zeros(len(grid), dtype=complex)
    mode = solve_mode(1, zero, zero, g, FarField(v, 0.0), grid)
    assert abs(mode.alpha - 0.5j * v) < 1e-15
    r = grid.nodes
    assert np.max(np.abs(mode.v_r - 0.5 * v * (1.0 - 1.0 / r**2))) < 1e-14
    assert np.max(np.abs(mode.v_phi - 0.5j * v * (1.0 + 1.0 / r**2))) < 1e-14


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
    g = BoundaryTrace.zeros(2)
    mode = solve_mode(1, w_fn(grid.nodes) + 0j, np.zeros(len(grid), dtype=complex),
                      g, FarField(), grid)
    targets = np.array([1.25, 1.8, 2.5, 3.5, 5.0])
    ref_r, ref_phi = brute_force_mode_profiles(
        1, w_fn, zero_fn, 0.0, 0.0, 0.0, 1.0, 6.0, targets, n_fine=60001
    )
    got_r, got_phi = mode.profile_at(targets)
    scale = np.max(np.abs(ref_phi))
    assert np.max(np.abs(got_r - ref_r)) < 5e-5 * scale
    assert np.max(np.abs(got_phi - ref_phi)) < 5e-5 * scale


def test_solve_mode_rejects_bad_shapes(grid):
    with pytest.raises(ValueError):
        solve_mode(1, np.zeros(5), np.zeros(5), BoundaryTrace.zeros(2), FarField(), grid)
    with pytest.raises(ValueError):
        solve_mode(0, np.zeros(len(grid)), np.zeros(len(grid)), BoundaryTrace.zeros(2),
                   FarField(), grid)


def test_solve_mode_zero_examples(grid):
    nodes = grid.nodes
    zeros = np.zeros(len(grid), dtype=complex)
    mode = solve_mode_zero(zeros, zeros, BoundaryTrace.zeros(2), grid)
    assert np.max(np.abs(mode.v_r)) == 0.0 and np.max(np.abs(mode.v_phi)) == 0.0

    # w_0 = 1 on [1,2]: v_phi = (r^2-1)/(2r) inside, 3/(2r) beyond
    w0 = (nodes <= 2.0).astype(complex)
    mode = solve_mode_zero(w0, zeros, BoundaryTrace.zeros(2), grid)
    inside = nodes <= 2.0
    expected = np.where(inside, (nodes**2 - 1.0) / (2.0 * nodes), 1.5 / nodes)
    assert np.max(np.abs(mode.v_phi - expected)) < 5e-3
    assert np.max(np.abs(mode.v_r)) == 0.0

    # radial trace alone: v_r = g_r0 / r for r0 = 1
    g = BoundaryTrace.from_coeffs(2, radial={0: 1.0})
    mode = solve_mode_zero(zeros, zeros, g, grid)
    assert np.max(np.abs(mode.v_r - 1.0 / nodes)) < 1e-14


def test_mode_zero_trace_scaling_with_r0():
    # boundary recovery fixes the constant to r0 * g_0 / r
    grid = RadialGrid.uniform(2.0, 8.0, 101)
    zeros = np.zeros(len(grid), dtype=complex)
    g = BoundaryTrace.from_coeffs(1, radial={0: 0.7}, tangential={0: -0.4})
    mode = solve_mode_zero(zeros, zeros, g, grid)
    assert abs(mode.v_r[0] - 0.7) < 1e-14
    assert abs(mode.v_phi[0] + 0.4) < 1e-14
    assert np.max(np.abs(mode.v_r - 2.0 * 0.7 / grid.nodes)) < 1e-14


def cylinder_problem(grid, K=4, speed=1.0):
    w = SpectralField.zeros(grid, K)
    return DiskProblem(w, w, cylinder_slip_trace(K, speed), FarField(speed, 0.0))


def test_solve_disk_cylinder_flow(grid):
    solution = solve_disk(cylinder_problem(grid))
    assert solution.report.admissible
    rng = np.random.default_rng(2)
    r = 1.0 + 5.0 * rng.random(200)
    phi = 2.0 * np.pi * rng.random(200)
    v_r, v_phi = solution.sample_polar(r, phi)
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
                                + b * p2.vorticity.coeff(k) for k in p1.vorticity.modes()}),
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
    for k in range(1, 6):
        assert np.max(np.abs(solution.mode(-k).v_r - np.conj(solution.mode(k).v_r))) < 1e-13
        assert np.max(np.abs(solution.mode(-k).v_phi - np.conj(solution.mode(k).v_phi))) < 1e-13
    # physical samples are real vectors: complex packing has real div-free parts
    points = np.array([1.8 * np.exp(0.4j), 3.2 * np.exp(-1.9j)])
    v_r, v_phi = solution.sample_polar(np.abs(points), np.angle(points))
    assert np.max(np.abs(v_r.imag)) < 1e-13
    assert np.max(np.abs(v_phi.imag)) < 1e-13


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
    # (only positive-k conditions are checked, so no warning is expected here)
    nodes = grid.nodes
    profile = smooth_bump(nodes, 2.0, 4.0) * (1.0 + 0.5j)
    w = SpectralField.from_modes(grid, 2, {-2: profile})
    problem = DiskProblem(w, SpectralField.zeros(grid, 2), BoundaryTrace.zeros(2))
    solution = solve_disk(problem)
    mirrored = SpectralField.from_modes(grid, 2, {2: np.conj(profile)})
    with pytest.warns(UserWarning, match="moment conditions"):
        ref = solve_disk(DiskProblem(mirrored, SpectralField.zeros(grid, 2),
                                     BoundaryTrace.zeros(2)))
    assert np.allclose(solution.mode(-2).v_r, np.conj(ref.mode(2).v_r))
    assert np.allclose(solution.mode(-2).v_phi, np.conj(ref.mode(2).v_phi))


def complex_data_problem(grid, K=4, seed=11):
    """Complex, non-conjugate-symmetric data in every mode, with a trace and far field."""
    rng = np.random.default_rng(seed)
    s = grid.nodes
    bump = smooth_bump(s, 1.2, 5.0)

    def amplitudes():
        return rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)

    w = SpectralField(grid, K, amplitudes()[:, None] * bump)
    rho = SpectralField(grid, K, amplitudes()[:, None] * bump * s / 3.0)
    g = BoundaryTrace(K, 0.2 * amplitudes(), 0.2 * amplitudes())
    return DiskProblem(w, rho, g, FarField(0.4, -0.7))


@pytest.fixture(scope="module")
def complex_solution():
    grid = RadialGrid.geometric(1.0, 6.0, 241, ratio=1.005)
    problem = complex_data_problem(grid)
    with pytest.warns(UserWarning, match="moment conditions"):
        return problem, solve_disk(problem)


def test_cartesian_and_polar_sampling_agree(complex_solution):
    # sample() sums one kernel table per mode, sample_polar() both tables
    _, solution = complex_solution
    rng = np.random.default_rng(12)
    points = (1.0 + 5.0 * rng.random(300)) * np.exp(2j * np.pi * rng.random(300))
    v_r, v_phi = solution.sample_polar(np.abs(points), np.angle(points))
    expected = (v_r + 1j * v_phi) * np.exp(1j * np.angle(points))
    got = solution.sample(points)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_polar_sampling_at_nodes_equals_profiles(complex_solution):
    problem, solution = complex_solution
    nodes = problem.grid.nodes
    v_r, v_phi = solution.profiles()
    ks = np.arange(-problem.K, problem.K + 1)
    phis = np.array([0.0, 0.9, 2.6, 4.4])
    for j in (0, 1, 57, 120, 239, 240):
        got_r, got_phi = solution.sample_polar(np.full(phis.shape, nodes[j]), phis)
        phases = np.exp(1j * np.outer(ks, phis))
        scale = np.max(np.abs(v_r[:, j])) + np.max(np.abs(v_phi[:, j]))
        assert np.max(np.abs(got_r - v_r[:, j] @ phases)) <= 1e-13 * scale
        assert np.max(np.abs(got_phi - v_phi[:, j] @ phases)) <= 1e-13 * scale


def test_off_node_profiles_match_the_in_panel_interpolation_rule(complex_solution):
    problem, solution = complex_solution
    nodes = problem.grid.nodes
    rng = np.random.default_rng(13)
    radii = np.sort(1.0 + 5.0 * rng.random(6))
    g = problem.boundary
    vinf = lambda k: vinf_coefficients(problem.far_field, k)
    for k in range(-problem.K, problem.K + 1):
        ref_r, ref_phi = mp_mode_profiles(
            k, nodes, problem.vorticity.coeff(k), problem.divergence.coeff(k),
            g.coeff_r(k), g.coeff_phi(k), vinf, radii)
        got_r, got_phi = solution.mode(k).profile_at(radii)
        scale = max(np.max(np.abs(ref_r)), np.max(np.abs(ref_phi)))
        assert np.max(np.abs(got_r - ref_r)) <= 1e-13 * scale, k
        assert np.max(np.abs(got_phi - ref_phi)) <= 1e-13 * scale, k
