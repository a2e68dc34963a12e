import tracemalloc
import warnings

import numpy as np
import pytest

from divcurl.biot_savart import biot_savart_omega
from divcurl.conformal import (
    ConformalMap,
    ExteriorProblem,
    ExteriorSolution,
    MapVerificationError,
    identity_map,
    joukowski_map,
    _BAND_POINTS,
    _weighted_sampler,
    pullback_boundary_trace,
    pullback_problem,
    solve_exterior,
    verify_map,
)
from divcurl.disk import DiskProblem, FarField, solve_disk
from divcurl.grids import (
    BoundaryTrace,
    RadialGrid,
    SpectralField,
    analysis_angles,
    analyze,
    equispaced_angles,
    smooth_bump,
)
from divcurl.moments import moment_report
from divcurl.presets import (
    ellipse_potential_velocity,
    potential_slip_boundary_fn,
    random_admissible_exterior_problem,
    random_admissible_problem,
)
from divcurl.quadrature import trapezoid_weights

from helpers import mirror_defect, observed_order


def test_joukowski_point_values():
    m = joukowski_map(0.5, 1.0)
    assert abs(m.inverse(1.0 + 0j) - 1.25) < 1e-15
    assert abs(m.d_inverse(1.0 + 0j) - 0.75) < 1e-15


def test_joukowski_identity_case():
    m = joukowski_map(0.0, 1.0)
    z = np.array([1.3 + 0.2j, -2.0 + 1.0j])
    assert np.array_equal(m.forward(z), z)
    assert np.array_equal(m.inverse(z), z)
    assert np.all(m.d_inverse(z) == 1.0)


def test_joukowski_parameter_validation():
    with pytest.raises(ValueError):
        joukowski_map(1.5, 1.0)
    with pytest.raises(ValueError):
        joukowski_map(-0.1, 1.0)
    # segment limit c = r0 is allowed
    verify_map(joukowski_map(1.0, 1.0))


def test_joukowski_branch_round_trip():
    m = joukowski_map(0.5, 1.0)
    angles = equispaced_angles(64)
    for radius in (1.0, 2.0, 10.0):
        z = radius * np.exp(1j * angles)
        assert np.max(np.abs(m.forward(m.inverse(z)) - z)) < 1e-12 * radius


def _two_root_forward(p, c):
    """The forward map as a product of principal roots, which loses the sign of a zero."""
    return 0.5 * (p + np.sqrt(p - 2.0 * c) * np.sqrt(p + 2.0 * c))


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_joukowski_forward_keeps_a_negative_zero_imaginary_part(c):
    # p = x - 0j beyond the body (x < -r0 - c^2/r0) on the negative real axis:
    # p + 2c turns the -0.0 into +0.0, and the product of principal roots
    # picked the interior branch
    m = joukowski_map(c, 1.0)
    tip = m.r0 + c * c / m.r0
    p = np.conj(np.array([-tip - 1e-9, -tip - 0.3, -3.0, -50.0]) + 0j)
    assert np.all(np.signbit(p.imag))
    z = m.forward(p)
    assert np.all(np.abs(z) >= m.r0)
    assert np.max(np.abs(m.inverse(z) - p) / np.abs(p)) <= 1e-15
    # 0-d input gives a scalar on the same branch
    assert m.forward(p[2]) == z[2] and np.ndim(m.forward(p[2])) == 0
    assert m.forward(complex(-3.0, -0.0)) == z[2]


def test_exterior_solution_samples_both_sides_of_a_zero_imaginary_part():
    m = joukowski_map(0.5, 1.0)
    far = FarField(1.0, 0.0)
    ext = ExteriorProblem(m, RadialGrid.uniform(1.0, 10.0, 301), 4,
                          boundary_fn=potential_slip_boundary_fn(m, far), far_field=far)
    solution = solve_exterior(ext)
    below, above = solution.sample(np.conj([-3.0 + 0j])), solution.sample(np.array([-3.0 + 0j]))
    assert np.all(np.isfinite(below)) and np.all(np.isfinite(above))
    assert np.allclose(below, above, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("point", [complex(np.nan, 1.0), complex(np.inf, 0.0),
                                   complex(0.0, -np.inf)])
def test_exterior_solution_rejects_a_point_that_is_not_finite(point):
    # before the map: the Joukowski forward map of an infinite point warned
    m = joukowski_map(0.5, 1.0)
    far = FarField(1.0, 0.0)
    ext = ExteriorProblem(m, RadialGrid.uniform(1.0, 10.0, 301), 4,
                          boundary_fn=potential_slip_boundary_fn(m, far), far_field=far)
    solution = solve_exterior(ext)
    with pytest.raises(ValueError, match="sample points must be finite"):
        solution.sample(np.array([-3.0 + 1.0j, point]))


@pytest.mark.parametrize("c", [1e-3, 0.5, 1.0 - 1e-6, 1.0])
def test_joukowski_forward_agrees_with_the_two_root_form_off_its_trap(c):
    # scattered points, both signs of zero on both axes, and points 1e-300 off
    # the slit: wherever the two-root form lands outside the disk the forms
    # agree, and no point outside the circle |p| = 2 r0 (which holds the body)
    # maps inside the disk
    rng = np.random.default_rng(8)
    axis = rng.uniform(-6.0, 6.0, 500)
    slit = rng.uniform(-2.0 * c, 2.0 * c, 500)
    x = np.concatenate([rng.uniform(-6.0, 6.0, 4000), axis, axis, np.zeros(1000), slit, slit])
    y = np.concatenate([rng.uniform(-6.0, 6.0, 4000), np.zeros(1000), axis, -axis,
                        np.full(500, 1e-300), np.full(500, -1e-300)])
    p = np.empty(x.size, dtype=complex)
    p.real, p.imag = x, y
    p = np.concatenate([p, np.conj(p)])
    m = joukowski_map(c, 1.0)
    z, reference = m.forward(p), _two_root_forward(p, c)
    outside = np.abs(reference) >= m.r0
    assert np.max(np.abs(z - reference)[outside] / np.abs(reference[outside])) <= 1e-15
    assert np.all(np.abs(z[np.abs(p) > 2.0 * m.r0]) >= m.r0)


def test_verify_map_rejects_bad_asymptotics():
    bad = ConformalMap(
        forward=lambda z: np.asarray(z, dtype=complex),
        inverse=lambda z: np.asarray(z, dtype=complex) + 0.3,  # O(1) shift, not O(1/z)
        d_inverse=lambda z: np.ones_like(np.asarray(z, dtype=complex)),
        r0=1.0,
    )
    with pytest.raises(MapVerificationError):
        verify_map(bad)


def test_cauchy_riemann_derivative_consistency():
    # central differences of the inverse map converge to d_inverse at order 2
    m = joukowski_map(0.5, 1.0)
    z = np.array([1.5 + 0.8j, 2.0 - 1.0j, -1.2 + 2.2j])
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        fd = (m.inverse(z + h) - m.inverse(z - h)) / (2.0 * h)
        errors.append(np.max(np.abs(fd - m.d_inverse(z))))
    assert observed_order(errors) >= 1.9


@pytest.fixture
def grid():
    return RadialGrid.uniform(1.0, 8.0, 801)


def test_pullback_identity_map(grid):
    K = 5
    rng = np.random.default_rng(0)
    profile = smooth_bump(grid.nodes, 2.0, 5.0)

    def w_fn(points):
        p = np.asarray(points, dtype=complex)
        return profile_interp(p) * np.cos(2.0 * np.angle(p))

    def profile_interp(p):
        return np.interp(np.abs(p), grid.nodes, profile)

    ext = ExteriorProblem(identity_map(1.0), grid, K, vorticity_fn=w_fn)
    pulled = pullback_problem(ext)
    angles = analysis_angles(ext.K)
    rr, pp = np.meshgrid(grid.nodes, angles, indexing="ij")
    direct = analyze(grid, w_fn(rr * np.exp(1j * pp)), K)
    assert np.max(np.abs(pulled.vorticity.coeffs - direct.coeffs)) < 1e-15
    assert np.max(np.abs(pulled.divergence.coeffs)) == 0.0
    assert np.max(np.abs(pulled.boundary.g_r)) == 0.0


def test_change_of_variables_mass_identity():
    # integral of w over Omega equals integral of the weighted pullback over
    # the disk exterior; left side by independent 2D midpoint quadrature in Omega
    c, r0 = 0.5, 1.0
    m = joukowski_map(c, r0)
    grid = RadialGrid.uniform(r0, 8.0, 1201)

    def w_fn(points):
        p = np.asarray(points, dtype=complex)
        d = np.abs(p - 3.0)
        return np.exp(-2.0 * d * d)

    ext = ExteriorProblem(m, grid, 8, vorticity_fn=w_fn)
    pulled = pullback_problem(ext)
    s = grid.nodes
    rhs = 2.0 * np.pi * (trapezoid_weights(s) @ (s * pulled.vorticity.coeff(0))).real

    # physical-plane quadrature on a box that contains the support, masking
    # the interior of the ellipse
    xs = np.linspace(-6.0, 8.0, 1400)
    ys = np.linspace(-6.0, 6.0, 1200)
    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    xc = 0.5 * (xs[:-1] + xs[1:])
    yc = 0.5 * (ys[:-1] + ys[1:])
    xx, yy = np.meshgrid(xc, yc, indexing="ij")
    pts = xx + 1j * yy
    outside = np.abs(m.forward(pts)) >= r0
    lhs = float(np.sum(w_fn(pts) * outside) * dx * dy)
    assert abs(lhs - rhs) < 2e-4 * abs(rhs)


def test_pullback_boundary_oracle_refinement():
    # tangential unit field on the ellipse: ghat_phi = |(Phi^-1)'| on the circle;
    # compare a coarse analysis against a 10x-resolution quadrature oracle
    c, r0 = 0.5, 1.0
    m = joukowski_map(c, r0)

    def tangent_fn(points):
        p = np.asarray(points, dtype=complex)
        z = m.forward(p)
        tangent = 1j * z * m.d_inverse(z)
        return tangent / np.abs(tangent)

    K, K_fine = 8, 160
    coarse = pullback_boundary_trace(m, tangent_fn, K)
    fine = pullback_boundary_trace(m, tangent_fn, K_fine)
    assert len(analysis_angles(K)) == 64 and len(analysis_angles(K_fine)) == 640
    band = slice(K_fine - K, K_fine + K + 1)
    assert np.max(np.abs(coarse.g_r - fine.g_r[band])) < 1e-12
    assert np.max(np.abs(coarse.g_phi - fine.g_phi[band])) < 1e-12
    # closed-form structure: g_r = 0 and g_phi(theta) = |(Phi^-1)'(r0 e^{i theta})|;
    # its band coefficients from a 10x-resolution DFT oracle
    assert np.max(np.abs(fine.g_r)) < 1e-12
    theta = equispaced_angles(640)
    exact_gphi = np.abs(m.d_inverse(r0 * np.exp(1j * theta)))
    oracle = np.fft.fft(exact_gphi) / theta.size
    ks = np.arange(-K, K + 1)
    assert np.max(np.abs(fine.g_phi[band] - oracle[ks % theta.size])) < 1e-12


def test_pushforward_identity_passthrough(grid):
    rng = np.random.default_rng(1)
    problem = random_admissible_problem(rng, grid, K=5, K_data=3, K_c=5)
    solution = solve_disk(problem)
    points = np.array([1.5 + 0.5j, -2.0 + 3.0j])
    assert np.array_equal(ExteriorSolution(solution, identity_map(1.0)).sample(points),
                          solution.sample(points))


def test_pushforward_marks_interior_points(grid):
    w = SpectralField.zeros(grid, 2)
    with pytest.warns(UserWarning, match="moment conditions"):
        solution = solve_disk(DiskProblem(w, w, BoundaryTrace.zeros(2), FarField(1.0, 0.0)))
    m = joukowski_map(0.5, 1.0)
    # the origin is inside the ellipse
    out = ExteriorSolution(solution, m).sample(np.array([0.0 + 0.0j, 5.0 + 0.0j]))
    assert np.isnan(out[0].real) and np.isnan(out[0].imag)
    assert np.isfinite(out[1].real)
    # on the slit (c = r0) the tips z = +-r0 are singular points of the map
    theta = np.array([0.0, 0.5 * np.pi, np.pi, 4.0])
    edge = ExteriorSolution(solution, joukowski_map(1.0, 1.0)).boundary_samples(theta)
    assert np.all(np.isnan(edge[[0, 2]])) and np.all(np.isfinite(edge[[1, 3]]))


def test_pushforward_far_field_invariance(grid):
    far = FarField(1.0, -0.5)
    m = joukowski_map(0.5, 1.0)
    ext = ExteriorProblem(m, grid, 4,
                          boundary_fn=potential_slip_boundary_fn(m, far), far_field=far)
    solution = solve_exterior(ext)
    big = np.array([300.0 + 0j, 250j, -200.0 + 100j])
    assert np.max(np.abs(solution.sample(big) - far.as_complex)) < 1e-4


def test_ellipse_potential_flow_against_classical_oracle():
    c, r0 = 0.5, 1.0
    m = joukowski_map(c, r0)
    far = FarField(1.0, 0.0)
    grid = RadialGrid.uniform(r0, 10.0, 301)
    ext = ExteriorProblem(m, grid, 4,
                          boundary_fn=potential_slip_boundary_fn(m, far), far_field=far)
    solution = solve_exterior(ext)
    assert solution.disk_solution.report.admissible

    rng = np.random.default_rng(2)
    pts = []
    while len(pts) < 100:
        p = complex(rng.uniform(-7, 7), rng.uniform(-7, 7))
        if 1.05 < abs(m.forward(p)) < 9.0:
            pts.append(p)
    pts = np.array(pts)
    v_exact = ellipse_potential_velocity(pts, c, r0, far)
    err = np.max(np.abs(solution.sample(pts) - v_exact)) / np.max(np.abs(v_exact))
    assert err < 1e-6


def test_exterior_solution_reproduces_physical_boundary_trace():
    # the velocity restricted to the ellipse boundary equals the supplied g
    c, r0 = 0.5, 1.0
    m = joukowski_map(c, r0)
    far = FarField(1.0, -0.4)
    grid = RadialGrid.uniform(r0, 10.0, 301)
    boundary_fn = potential_slip_boundary_fn(m, far)
    ext = ExteriorProblem(m, grid, 4, boundary_fn=boundary_fn, far_field=far)
    solution = solve_exterior(ext)
    theta = np.linspace(0.1, 2.0 * np.pi, 17)
    got = solution.boundary_samples(theta)
    expected = boundary_fn(m.inverse(r0 * np.exp(1j * theta)))
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_real_data_pulled_back_to_the_disk_takes_the_half_path():
    # the angular transforms of real samples are exactly mirrored, so the
    # mapped problem is solved on the modes k >= 0 alone
    c, r0 = 0.5, 1.0
    m = joukowski_map(c, r0)
    far = FarField(1.0, -0.4)
    grid = RadialGrid.uniform(r0, 10.0, 301)

    def bump(points):
        d = np.abs(np.asarray(points, dtype=complex) - 3.0)
        return np.exp(-2.0 * d * d)

    ext = ExteriorProblem(m, grid, 8, vorticity_fn=bump, divergence_fn=bump,
                          boundary_fn=potential_slip_boundary_fn(m, far), far_field=far)
    pulled = pullback_problem(ext)
    assert mirror_defect(pulled.vorticity.coeffs) == 0.0
    assert mirror_defect(pulled.divergence.coeffs) == 0.0
    for g in (pulled.boundary.g_r, pulled.boundary.g_phi):
        assert np.array_equal(g[::-1], np.conj(g))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the bump is not admissible
        assert solve_exterior(ext).disk_solution.terms.mirrored


def test_identity_map_reduction_matches_disk_path(grid):
    K = 6
    rng = np.random.default_rng(3)
    disk_problem = random_admissible_problem(rng, grid, K=K, K_data=4, K_c=6)
    w_fn = disk_problem.vorticity_fn

    ext = ExteriorProblem(identity_map(1.0), grid, K,
                          vorticity_fn=lambda p: w_fn(np.abs(p), np.angle(p)))
    angles = analysis_angles(ext.K)
    rr, pp = np.meshgrid(grid.nodes, angles, indexing="ij")
    resampled = analyze(grid, w_fn(rr, pp), K)
    disk_resampled = DiskProblem(resampled, SpectralField.zeros(grid, K),
                                 BoundaryTrace.zeros(K))
    sol_disk = solve_disk(disk_resampled)
    sol_ext = solve_exterior(ext)
    points = np.array([1.5 + 0.2j, -3.0 + 1.0j, 2.0 - 4.0j, 6.0 + 0.5j])
    a = sol_disk.sample(points)
    b = sol_ext.sample(points)
    # identical pipeline up to the rounding of the resampled data lattice
    assert np.max(np.abs(a - b)) < 1e-13 * max(1.0, np.max(np.abs(a)))


def test_mapped_moment_residual_identity_reduction(grid):
    K = 5
    rng = np.random.default_rng(4)
    disk_problem = random_admissible_problem(rng, grid, K=K, K_data=3, K_c=2)
    w_fn = disk_problem.vorticity_fn
    ext = ExteriorProblem(identity_map(1.0), grid, K,
                          vorticity_fn=lambda p: w_fn(np.abs(p), np.angle(p)))
    pulled = moment_report(pullback_problem(ext)).residuals
    direct = moment_report(disk_problem).residuals
    for k in range(1, K + 1):
        assert abs(pulled[k] - direct[k]) < 1e-15


def test_mapped_moment_residual_far_field_violation(grid):
    far = FarField(2.0, 0.0)
    for m in (identity_map(1.0), joukowski_map(0.5, 1.0)):
        ext = ExteriorProblem(m, grid, 4, far_field=far)
        residuals = moment_report(pullback_problem(ext)).residuals
        assert abs(residuals[1] + 2.0j) < 1e-14
        for k in (2, 3):
            assert abs(residuals[k]) < 1e-14


def test_mapped_residuals_after_projection():
    c, r0 = 0.5, 1.0
    m = joukowski_map(c, r0)
    grid = RadialGrid.uniform(r0, 8.0, 1001)
    rng = np.random.default_rng(5)
    ext = random_admissible_exterior_problem(rng, m, grid, K=8, K_data=5, K_c=8,
                                             support=(1.6, 4.5))
    residuals = moment_report(pullback_problem(ext)).residuals
    for k in range(1, 9):
        assert abs(residuals[k]) < 1e-8


def test_physical_field_satisfies_original_system():
    # end to end: finite differences of the pushed-forward velocity recover
    # the physical vorticity (and zero divergence) on the ellipse exterior
    m = joukowski_map(0.5, 1.0)
    grid = RadialGrid.uniform(1.0, 8.0, 4001)
    rng = np.random.default_rng(8)
    ext = random_admissible_exterior_problem(rng, m, grid, K=6, K_data=4, K_c=6,
                                             support=(1.8, 4.0))
    solution = solve_exterior(ext)
    probes = m.inverse(np.array([2.2 * np.exp(0.4j), 2.9 * np.exp(2.0j),
                                 3.4 * np.exp(-1.1j)]))
    from helpers import fd_div_curl

    div, curl = fd_div_curl(solution.sample, probes, 1e-3)
    w_exact = ext.vorticity_fn(probes).real
    scale = np.max(np.abs(w_exact))
    assert np.max(np.abs(curl - w_exact)) < 1e-4 * scale
    assert np.max(np.abs(div)) < 1e-4 * scale


def test_divcurl_transformation_law_by_finite_differences():
    # curl of the disk-plane field equals the Jacobian-weighted vorticity
    c, r0 = 0.5, 1.0
    m = joukowski_map(c, r0)
    rng = np.random.default_rng(6)
    errors = []
    probe = np.array([2.1 * np.exp(0.5j), 2.6 * np.exp(2.2j), 3.2 * np.exp(-1.4j)])
    for nodes, h in ((1001, 2e-2), (2001, 1e-2), (4001, 5e-3)):
        grid = RadialGrid.uniform(r0, 8.0, nodes)
        ext = random_admissible_exterior_problem(rng, m, grid, K=6, K_data=4, K_c=6,
                                                 support=(1.7, 4.0))
        pulled = pullback_problem(ext)
        solution = solve_disk(pulled)
        from helpers import fd_div_curl

        div, curl = fd_div_curl(solution.sample, probe, h)
        expected = pulled.vorticity_fn(np.abs(probe), np.angle(probe)).real
        errors.append(np.max(np.abs(curl - expected)) + np.max(np.abs(div)))
        rng = np.random.default_rng(6)  # same data at every resolution
    assert observed_order(errors) >= 1.9


def test_slit_crosscheck_against_the_oracle():
    # c = r0: (Phi^-1)' vanishes at the slit tips z = +-r0, which are analysis
    # nodes; the preset data and the pullback must give exact zeros there
    # rather than 0 * inf
    m = joukowski_map(1.0, 1.0)
    grid = RadialGrid.uniform(1.0, 8.0, 1501)
    ext = random_admissible_exterior_problem(np.random.default_rng(5), m, grid, 12, K_data=8,
                                             K_c=12, support=(1.8, 4.2))
    # the crosscheck's probe layout: 20 inside and 30 outside the support
    rng = np.random.default_rng(2)
    radii = np.concatenate([rng.uniform(1.12, 1.62, 20), rng.uniform(4.45, 7.2, 30)])
    z = radii * np.exp(2j * np.pi * rng.random(50))
    z = z[np.abs(np.abs(z) - m.r0) > 0.2]  # away from the tips
    points = m.inverse(z)
    v = solve_exterior(ext).sample(points)
    v_oracle = biot_savart_omega(points, ext, n_radial=160, n_angular=256, support=(1.8, 4.2))
    assert np.all(np.isfinite(v))
    assert np.max(np.abs(v - v_oracle)) <= 1e-6 * np.max(np.abs(v))


def test_weighted_sampler_is_zero_at_the_slit_tip():
    # data unbounded at the tip p = 2c still pull back to an exact zero there
    m = joukowski_map(1.0, 1.0)

    def singular(points):
        with np.errstate(divide="ignore"):
            return np.abs(np.asarray(points) - 2.0) ** -0.5

    sampler = _weighted_sampler(m, singular)
    values = sampler(np.linspace(1.0, 3.0, 5)[:, None], analysis_angles(4)[None, :])
    assert values[0, 0] == 0.0 and np.all(np.isfinite(values))
    assert sampler(1.0, 0.0) == 0.0


def test_pullback_works_in_bands():
    # a crosscheck-size Joukowski pullback (K = 12, M = 1501: 96,064 lattice
    # points) evaluates its data band by band; whole-lattice evaluation
    # peaked near 15 MB of temporaries
    m = joukowski_map(0.5, 1.0)
    grid = RadialGrid.uniform(1.0, 8.0, 1501)
    ext = random_admissible_exterior_problem(np.random.default_rng(5), m, grid, 12, K_data=8,
                                             K_c=12, support=(1.8, 4.2))
    assert len(grid) * len(analysis_angles(12)) >= 20 * _BAND_POINTS
    pullback_problem(ext)
    tracemalloc.start()
    try:
        pullback_problem(ext)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_weighted_sampler_writes_its_bands_into_one_lattice_array():
    # the banded values are the whole-lattice formula bit for bit; a band whose
    # data come back complex widens the array already written
    m = joukowski_map(0.5, 1.0)
    r, phi = np.linspace(1.0, 8.0, 1501)[:, None], analysis_angles(12)[None, :]
    z = r * np.exp(1j * phi)

    def real(p):
        return np.exp(-np.abs(p - 3.0) ** 2)

    def widening(p):
        return real(p) + 0j if np.max(np.abs(p)) > 7.0 else real(p)

    jac = np.abs(m.d_inverse(z)) ** 2
    for data, values in ((real, real(m.inverse(z))), (widening, real(m.inverse(z)) + 0j)):
        sampled = _weighted_sampler(m, data)(r, phi)
        assert sampled.shape == z.shape and sampled.dtype == values.dtype
        assert sampled.tobytes() == (jac * values).tobytes()


@pytest.mark.parametrize("make", [lambda: identity_map(np.nan), lambda: identity_map(np.inf),
                                  lambda: joukowski_map(np.nan, 1.0),
                                  lambda: joukowski_map(0.5, np.nan),
                                  lambda: joukowski_map(0.5, np.inf)],
                         ids=["identity-nan", "identity-inf", "joukowski-c-nan",
                              "joukowski-r0-nan", "joukowski-r0-inf"])
def test_map_parameters_that_are_not_finite_are_refused(make):
    # each check was a comparison that NaN passes
    with pytest.raises(ValueError):
        make()


def _ident(z):
    return np.asarray(z, dtype=complex)


@pytest.mark.parametrize("part, value", [("inverse", np.nan), ("d_inverse", np.nan),
                                         ("d_inverse", np.inf), ("forward", np.nan)])
def test_verify_map_rejects_constants_and_round_trips_that_are_not_finite(part, value):
    maps = {"forward": _ident, "inverse": _ident,
            "d_inverse": lambda z: np.ones_like(_ident(z))}
    maps[part] = lambda z: np.full_like(_ident(z), value)
    with pytest.raises(MapVerificationError):
        verify_map(ConformalMap(r0=1.0, **maps))


def test_exterior_problem_checks_its_radius_against_a_map_that_is_not_finite():
    # with r0 = nan the map passed the check and the solve returned v_inf alone
    grid = RadialGrid.uniform(1.0, 6.0, 101)
    with pytest.raises(ValueError):
        ExteriorProblem(identity_map(np.nan), grid, 4, far_field=FarField(1.0, 0.0))
