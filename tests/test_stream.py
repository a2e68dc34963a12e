import numpy as np
import pytest

from divcurl.disk import DiskProblem, FarField, solve_disk
from divcurl.grids import BoundaryTrace, RadialGrid, SpectralField, smooth_bump
from divcurl.moments import make_admissible, moment_report
from divcurl.presets import random_admissible_problem
from divcurl.quadrature import _unfold, trapezoid_weights
from divcurl.stream import StreamFunction, neumann_defect, solve_stream, velocity_from_stream

from helpers import cylinder_flow_polar, mirror_defect, mp_stream_mode, observed_order, polar_samples


@pytest.fixture
def grid():
    return RadialGrid.uniform(1.0, 12.0, 1201)


def test_zero_vorticity_zero_far_field(grid):
    psi = solve_stream(SpectralField.zeros(grid, 3), FarField())
    assert np.max(np.abs(_unfold(psi.psi, psi.velocity.K))) == 0.0
    assert neumann_defect(psi) == 0.0
    v = velocity_from_stream(psi)
    assert np.max(np.abs(v.sample(np.array([2.0 + 1.0j])))) == 0.0


def test_uniform_stream_gives_cylinder_flow(grid):
    # w = 0 with far field (v, 0): psi = -v x2 (1 - r0^2/r^2) and the skew
    # gradient recovers the classical slip flow past the disk
    v = 1.4
    with pytest.warns(UserWarning, match="orthogonality"):
        psi = solve_stream(SpectralField.zeros(grid, 2), FarField(v, 0.0))
    r = grid.nodes
    phis = np.array([0.4, 1.9, 3.7, 5.6])
    K = psi.velocity.K
    modes = _unfold(psi.psi, K)
    for phi in phis:
        values = (modes[K + 1] * np.exp(1j * phi) + modes[K - 1] * np.exp(-1j * phi)).real
        expected = -v * r * np.sin(phi) * (1.0 - 1.0 / r**2)
        assert np.max(np.abs(values - expected)) < 1e-12 * np.max(1.0 + np.abs(expected))

    flow = velocity_from_stream(psi)
    rng = np.random.default_rng(0)
    rr = 1.0 + 10.0 * rng.random(50)
    pp = 2.0 * np.pi * rng.random(50)
    v_r, v_phi = polar_samples(flow, rr, pp)
    exp_r, exp_phi = cylinder_flow_polar(rr, pp, speed=v)
    assert np.max(np.abs(v_r - exp_r)) < 1e-12
    assert np.max(np.abs(v_phi - exp_phi)) < 1e-12


def test_boundary_constant_and_gauge(grid):
    rng = np.random.default_rng(1)
    problem = random_admissible_problem(rng, grid, K=6, K_data=4, K_c=6)
    psi = solve_stream(problem.vorticity, problem.far_field)
    # all modes vanish at r0, so psi is the gauged constant on the solid
    assert np.max(np.abs(_unfold(psi.psi, psi.velocity.K)[:, 0])) < 1e-14


def test_path_equivalence_with_direct_solver(grid):
    rng = np.random.default_rng(2)
    problem = random_admissible_problem(rng, grid, K=8, K_data=6, K_c=8,
                                        far_field=FarField(0.9, -0.3))
    direct = solve_disk(problem)
    psi = solve_stream(problem.vorticity, problem.far_field)
    flow = velocity_from_stream(psi)
    pts = np.array([1.2 * np.exp(0.5j), 2.4 * np.exp(-1.2j), 5.0 * np.exp(2.9j),
                    9.0 * np.exp(0.1j)])
    a = direct.sample(pts)
    b = flow.sample(pts)
    assert np.max(np.abs(a - b)) < 1e-8 * max(1.0, np.max(np.abs(a)))


def test_neumann_defect_values(grid):
    # admissible data: defect at quadrature-zero level
    rng = np.random.default_rng(3)
    problem = random_admissible_problem(rng, grid, K=6, K_data=4, K_c=6,
                                        far_field=FarField(0.5, 0.0))
    psi = solve_stream(problem.vorticity, problem.far_field)
    assert neumann_defect(psi) < 1e-6

    # incompatible w = 0 against a uniform stream: residual slip 2|v| sqrt(pi r0)
    v = 2.0
    with pytest.warns(UserWarning, match="orthogonality"):
        psi0 = solve_stream(SpectralField.zeros(grid, 4), FarField(v, 0.0))
    assert abs(neumann_defect(psi0) - 2.0 * v * np.sqrt(np.pi)) < 1e-8


def test_poisson_residual_convergence():
    # second-order finite differences of psi_k recover w_k
    rng = np.random.default_rng(4)
    errors = []
    for count in (401, 801, 1601):
        grid = RadialGrid.uniform(1.0, 12.0, count)
        problem = random_admissible_problem(rng, grid, K=5, K_data=3, K_c=5,
                                            support=(2.0, 6.0))
        psi = solve_stream(problem.vorticity, problem.far_field)
        err = 0.0
        s = grid.nodes
        interior = slice(2, -2)
        modes = _unfold(psi.psi, psi.velocity.K)
        for k in range(-5, 6):
            pk = modes[k + psi.velocity.K]
            lap = (np.gradient(np.gradient(pk, s), s) + np.gradient(pk, s) / s
                   - k * k * pk / s**2)
            err = max(err, np.max(np.abs((lap - problem.vorticity.coeff(k))[interior])))
        errors.append(err)
        rng = np.random.default_rng(4)
    assert observed_order(errors) >= 1.9


def test_circulation_closure_at_infinity(grid):
    # zero-total-circulation vorticity: the loop integral of the recovered
    # velocity dies out as the loop grows
    rng = np.random.default_rng(5)
    problem = random_admissible_problem(rng, grid, K=4, K_data=3, K_c=4,
                                        support=(1.5, 4.0))
    assert abs(trapezoid_weights(grid.nodes) @ (grid.nodes * problem.vorticity.coeff(0))) < 1e-12
    psi = solve_stream(problem.vorticity, problem.far_field)
    flow = velocity_from_stream(psi)
    loops = []
    thetas = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
    for radius in (2.0, 5.0, 11.0):
        _, v_phi = polar_samples(flow, radius, thetas)
        loops.append(abs(np.mean(v_phi.real) * 2.0 * np.pi * radius))
    assert loops[2] < 1e-10
    assert loops[2] <= loops[0] + 1e-12


def test_nonzero_circulation_warns(grid):
    w = SpectralField.from_modes(
        grid, 2, {0: np.exp(-((grid.nodes - 3.0) ** 2)) + 0j})
    with pytest.warns(UserWarning, match="circulation"):
        solve_stream(w, FarField())

    # the warning compares the circulation the moment report prints,
    # 2 pi int s w_0 ds, with the tolerance: here 3.14e-8 > 1e-8
    small = RadialGrid.uniform(1.0, 8.0, 801)
    bump = smooth_bump(small.nodes, 2.0, 4.0)
    bump /= trapezoid_weights(small.nodes) @ (small.nodes * bump)
    w = SpectralField.from_modes(small, 2, {0: 5e-9 * bump + 0j})
    report = moment_report(DiskProblem(w, SpectralField.zeros(small, 2), BoundaryTrace.zeros(2),
                                       FarField()))
    assert not report.admissible
    with pytest.warns(UserWarning, match=f"circulation {abs(report.circulation):.3e} "):
        solve_stream(w, FarField())


def test_stream_solution_reports_far_field_modes(grid):
    # velocity far field equals the prescribed constant: check far samples
    rng = np.random.default_rng(6)
    problem = random_admissible_problem(rng, grid, K=5, K_data=3, K_c=5,
                                        support=(1.5, 4.0), far_field=FarField(1.0, 0.4))
    psi = solve_stream(problem.vorticity, problem.far_field)
    flow = velocity_from_stream(psi)
    far_pts = np.array([500.0 * np.exp(1j * t) for t in (0.3, 2.1, 4.4)])
    assert np.max(np.abs(flow.sample(far_pts) - complex(1.0, 0.4))) < 1e-4


def test_stream_is_the_slip_completion_of_the_direct_solver():
    # complex data, not conjugate-symmetric, admissible only up to K_c = 4:
    # the stream path equals the direct solver with rho = 0, g_r = 0 and the
    # tangential trace g_phi,k = 2 v_phi,k^inf - b_k(r0) for every k != 0
    grid = RadialGrid.geometric(1.0, 10.0, 500, ratio=1.006)
    K = 24
    far = FarField(0.7, -0.2)
    rng = np.random.default_rng(21)
    s = grid.nodes
    profiles = {}
    for k in range(-K, K + 1):
        lo = 1.1 + 3.0 * rng.random()
        amp = rng.normal() + 1j * rng.normal() * (k != 0)  # real w_0: no flux part
        profiles[k] = amp * smooth_bump(s, lo, lo + 1.0 + 3.0 * rng.random())
    zeros = SpectralField.zeros(grid, K)
    w = make_admissible(SpectralField.from_modes(grid, K, profiles), zeros,
                        BoundaryTrace.zeros(K), far, K_c=4)
    assert mirror_defect(w.coeffs) > 0.1
    with pytest.warns(UserWarning, match="orthogonality"):
        psi = solve_stream(w, far)
    flow = velocity_from_stream(psi)

    ks = np.arange(-K, K + 1)
    m = np.abs(ks)
    b0 = np.trapezoid(w.coeffs * (grid.r0 / s) ** (m[:, None] - 1.0), s, axis=1)
    vphi_inf = np.where(m == 1, 0.5 * (far.v2 + 1j * ks * far.v1), 0.0)
    g_phi = 2.0 * vphi_inf - b0
    g_phi[K] = 0.0
    completed = DiskProblem(w, zeros, BoundaryTrace(K, np.zeros(2 * K + 1), g_phi), far)
    report = moment_report(completed)
    assert report.max_residual <= 1e-12 and report.circulation_flux <= 1e-12
    direct = solve_disk(completed)

    for a, b in zip(direct.profiles(), flow.profiles()):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))
    pts = (1.0 + 11.0 * rng.random(3000)) * np.exp(2j * np.pi * rng.random(3000))
    a, b = direct.sample(pts), flow.sample(pts)
    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))


def _bump_mp(lo, hi):
    import mpmath

    def f(s):
        t = (2 * s - (lo + hi)) / (hi - lo)
        return mpmath.exp(1 - 1 / (1 - t * t))
    return f


def test_matches_variation_of_parameters_reference():
    # continuum psi_k from mpmath.quad on closed-form data, against the
    # solver at shared interior nodes of two uniform grids: second order
    far = FarField(0.7, -0.2)
    data = {0: (0.8, (1.5, 4.0)), 1: (0.6 - 0.9j, (2.0, 5.0)),
            2: (-0.4 + 1.1j, (1.3, 3.5)), -3: (1.2 + 0.5j, (2.5, 6.0))}
    radii = np.linspace(1.5, 7.5, 13)
    reference = {}
    for k in range(-3, 4):
        amp, support = data.get(k, (0.0, (2.0, 3.0)))
        vphi_inf = 0.5 * (far.v2 + 1j * k * far.v1) if abs(k) == 1 else 0.0
        bump = _bump_mp(*support)
        reference[k] = mp_stream_mode(k, lambda s: amp * bump(s), support, 1.0, vphi_inf, radii)
    scale = max(np.max(np.abs(ref)) for ref in reference.values())

    errors = []
    for count in (141, 281):
        grid = RadialGrid.uniform(1.0, 8.0, count)
        stride = (count - 1) // 14
        nodes = np.arange(stride, count - 1, stride)
        assert np.allclose(grid.nodes[nodes], radii, rtol=0.0, atol=1e-13)
        w = SpectralField.from_modes(grid, 3, {k: amp * smooth_bump(grid.nodes, *support) + 0j
                                               for k, (amp, support) in data.items()})
        with pytest.warns(UserWarning):
            psi = solve_stream(w, far)
        modes = _unfold(psi.psi, psi.velocity.K)
        errors.append(max(np.max(np.abs(modes[k + 3, nodes] - reference[k])) for k in range(-3, 4)))
    assert errors[-1] < 1e-3 * scale
    assert observed_order(errors) >= 1.9


def test_stream_function_requires_velocity_terms(grid):
    # a StreamFunction is a view of its velocity: psi' is the v_phi rows, and
    # psi is read off the v_r rows once, read-only, so they cannot disagree
    with pytest.raises(TypeError):
        StreamFunction()
    problem = random_admissible_problem(np.random.default_rng(7), grid, K=4, K_data=3, K_c=4)
    psi = solve_stream(problem.vorticity, problem.far_field)
    v_r, v_phi = psi.velocity.rows
    assert psi.d_psi is v_phi
    assert psi.psi is psi.psi and not psi.psi.flags.writeable
    nonzero = psi.velocity.terms.ks != 0
    ks = psi.velocity.terms.ks[nonzero, None]
    assert np.array_equal(psi.psi[nonzero], 1j * grid.nodes / ks * v_r[nonzero])


def test_non_finite_vorticity_raises(grid):
    coeffs = np.zeros((7, len(grid)), dtype=complex)
    coeffs[5, 300] = np.inf
    with pytest.raises(ValueError, match="vorticity"):
        solve_stream(SpectralField(grid, 3, coeffs), FarField(1.0, 0.0))


def test_a_far_field_needs_a_band_with_modes_one(grid):
    with pytest.raises(ValueError, match="far field"):
        solve_stream(SpectralField.zeros(grid, 0), FarField(1.0, 0.0))


@pytest.mark.parametrize("tolerance", [-1e-8, np.nan])
def test_a_negative_or_nan_warn_tolerance_is_refused(grid, tolerance):
    with pytest.raises(ValueError, match="warn_tolerance"):
        solve_stream(SpectralField.zeros(grid, 3), FarField(), warn_tolerance=tolerance)
