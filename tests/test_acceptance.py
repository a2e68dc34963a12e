"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes a couple of minutes, dominated by the oracle
cross-checks.
"""

import numpy as np
import pytest

from divcurl.biot_savart import biot_savart_disk
from divcurl.conformal import ExteriorProblem, identity_map, joukowski_map, solve_exterior
from divcurl.disk import DiskProblem, FarField, solve_disk
from divcurl.grids import (
    BoundaryTrace,
    RadialGrid,
    SpectralField,
    analysis_angles,
    analyze,
    equispaced_angles,
    synthesize,
)
from divcurl.moments import make_admissible, moment_report
from divcurl.norms import (
    far_field_deviation_h1,
    h1_seminorm,
    h_half_boundary_norm,
    l2_weighted_norm,
)
from divcurl.presets import (
    ellipse_potential_velocity,
    potential_slip_boundary_fn,
    potential_slip_trace,
    random_admissible_problem,
)
from divcurl.quadrature import trapezoid_weights
from divcurl.stream import neumann_defect, solve_stream, velocity_from_stream

from helpers import cylinder_flow_polar, fd_div_curl, mirror_defect, observed_order, polar_samples


def _criterion(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {number}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_cylinder_potential_flow():
    grid = RadialGrid.uniform(1.0, 12.0, 401)
    K = 4
    zeros = SpectralField.zeros(grid, K)
    far = FarField(1.0, 0.0)
    problem = DiskProblem(zeros, zeros, potential_slip_trace(K, far), far)
    solution = solve_disk(problem)

    rng = np.random.default_rng(10)
    r = 1.0 + 10.0 * rng.random(200)
    phi = 2.0 * np.pi * rng.random(200)
    v_r, v_phi = polar_samples(solution, r, phi)
    exp_r, exp_phi = cylinder_flow_polar(r, phi)
    scale = np.max(np.hypot(np.abs(exp_r), np.abs(exp_phi)))
    err = max(np.max(np.abs(v_r - exp_r)), np.max(np.abs(v_phi - exp_phi))) / scale

    report = solution.report
    res = max(report.max_residual, report.circulation_flux)
    _criterion(1, err <= 1e-10 and res <= 1e-12,
               f"field rel err {err:.3e} <= 1e-10, residuals {res:.3e} <= 1e-12")


def test_criterion_2_impossibility_witness():
    grid = RadialGrid.uniform(1.0, 12.0, 401)
    K = 4
    zeros = SpectralField.zeros(grid, K)
    problem = DiskProblem(zeros, zeros, BoundaryTrace.zeros(K), FarField(1.0, 0.0))
    residual = moment_report(problem).residuals[1]
    err = abs(residual - (-1j))
    _criterion(2, err <= 1e-12, f"k=1 residual {residual} vs -i, err {err:.3e} <= 1e-12")


def _suite_problem(seed, grid, K=12, K_c=12, support=(1.8, 4.2)):
    rng = np.random.default_rng(seed)
    kind = seed % 3
    return random_admissible_problem(
        rng, grid, K=K, K_data=8, K_c=K_c, support=support,
        with_divergence=(kind == 1), boundary_modes=3 if kind == 2 else 0,
        far_field=FarField(0.8, -0.3) if kind == 2 else FarField(),
    )


def test_criterion_3_oracle_equivalence_disk():
    grid = RadialGrid.uniform(1.0, 8.0, 1501)
    support = (1.8, 4.2)
    rng = np.random.default_rng(123)
    radii = np.concatenate([rng.uniform(1.12, 1.62, 20), rng.uniform(4.45, 7.2, 30)])
    points = radii * np.exp(2j * np.pi * rng.random(50))

    worst = 0.0
    for seed in range(20):
        problem = _suite_problem(seed, grid, support=support)
        solution = solve_disk(problem)
        v_ref = solution.sample(points)
        v_orc = biot_savart_disk(points, problem, n_radial=160, n_angular=256,
                                 support=support)
        scale = np.max(np.abs(v_ref)) + abs(problem.far_field.as_complex)
        worst = max(worst, float(np.max(np.abs(v_orc - v_ref)) / scale))

    # observed convergence under oracle refinement on a problem subset
    sub_points = points[::10]
    converged = True
    for seed in range(3):
        problem = _suite_problem(seed, grid, support=support)
        solution = solve_disk(problem)
        v_ref = solution.sample(sub_points)
        errors = []
        for n_r, n_a in ((20, 32), (40, 64), (80, 128)):
            v = biot_savart_disk(sub_points, problem, n_radial=n_r, n_angular=n_a,
                                 support=support)
            errors.append(float(np.max(np.abs(v - v_ref))))
        converged = converged and errors[0] > errors[1] > errors[2]

    _criterion(3, worst <= 1e-6 and converged,
               f"20 problems x 50 points, worst rel err {worst:.3e} <= 1e-6, "
               f"oracle refinement monotone: {converged}")


def test_criterion_4_pde_residual_convergence():
    rng0 = np.random.default_rng(42)
    probes = (2.0 + 1.3 * rng0.random(24)) * np.exp(2j * np.pi * rng0.random(24))
    errors = []
    for count, h in ((401, 2e-2), (801, 1e-2), (1601, 5e-3)):
        rng = np.random.default_rng(5)
        grid = RadialGrid.uniform(1.0, 8.0, count)
        problem = random_admissible_problem(rng, grid, K=6, K_data=4, K_c=6,
                                            support=(1.8, 4.2), with_divergence=True)
        solution = solve_disk(problem)
        div, curl = fd_div_curl(solution.sample, probes, h)
        rho_exact = problem.divergence_fn(np.abs(probes), np.angle(probes)).real
        w_exact = problem.vorticity_fn(np.abs(probes), np.angle(probes)).real
        scale = max(np.max(np.abs(w_exact)), np.max(np.abs(rho_exact)))
        errors.append(max(np.max(np.abs(div - rho_exact)),
                          np.max(np.abs(curl - w_exact))) / scale)
    order = observed_order(errors)
    _criterion(4, order >= 1.9,
               f"div/curl residual errors {[f'{e:.2e}' for e in errors]}, "
               f"observed order {order:.3f} >= 1.9")


def test_criterion_5_conformal_path():
    c, r0 = 0.5, 1.0
    m = joukowski_map(c, r0)
    far = FarField(1.0, 0.0)
    grid = RadialGrid.uniform(r0, 10.0, 401)
    ext = ExteriorProblem(m, grid, 4, boundary_fn=potential_slip_boundary_fn(m, far),
                          far_field=far)
    solution = solve_exterior(ext)
    rng = np.random.default_rng(2)
    pts = []
    while len(pts) < 100:
        p = complex(rng.uniform(-7, 7), rng.uniform(-7, 7))
        if 1.05 < abs(m.forward(p)) < 9.0:
            pts.append(p)
    pts = np.array(pts)
    v_exact = ellipse_potential_velocity(pts, c, r0, far)
    ellipse_err = float(np.max(np.abs(solution.sample(pts) - v_exact))
                        / np.max(np.abs(v_exact)))

    # identity-map reduction against the disk path on shared data samples
    K = 6
    rng = np.random.default_rng(3)
    disk_problem = random_admissible_problem(rng, grid, K=K, K_data=4, K_c=6,
                                             support=(2.0, 6.0))
    w_fn = disk_problem.vorticity_fn
    ident = ExteriorProblem(identity_map(r0), grid, K,
                            vorticity_fn=lambda p: w_fn(np.abs(p), np.angle(p)))
    angles = analysis_angles(ident.K)
    rr, pp = np.meshgrid(grid.nodes, angles, indexing="ij")
    resampled = DiskProblem(analyze(grid, w_fn(rr, pp), K),
                            SpectralField.zeros(grid, K), BoundaryTrace.zeros(K))
    sol_disk = solve_disk(resampled)
    sol_ident = solve_exterior(ident)
    check = np.array([1.4 + 0.3j, -2.5 + 1.2j, 3.0 - 4.0j, 8.0 + 1.0j])
    a = sol_disk.sample(check)
    b = sol_ident.sample(check)
    ident_err = float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-30))

    _criterion(5, ellipse_err <= 1e-6 and ident_err <= 1e-13,
               f"ellipse vs classical oracle {ellipse_err:.3e} <= 1e-6, "
               f"identity reduction {ident_err:.3e} within rounding")


def _estimate_ratios(grid, n_problems=50, weight=2.0):
    ratio1 = np.empty(n_problems)
    ratio2 = np.empty(n_problems)
    for seed in range(n_problems):
        problem = _suite_problem(seed, grid, K=10, K_c=10, support=(1.8, 5.0))
        solution = solve_disk(problem)
        g_norm = h_half_boundary_norm(problem.boundary)
        den1 = (l2_weighted_norm(problem.divergence, 0.0)
                + l2_weighted_norm(problem.vorticity, 0.0) + g_norm)
        den2 = (l2_weighted_norm(problem.divergence, weight)
                + l2_weighted_norm(problem.vorticity, weight) + g_norm)
        ratio1[seed] = h1_seminorm(solution) / den1
        ratio2[seed] = far_field_deviation_h1(solution) / den2
    return ratio1, ratio2


def test_criterion_6_estimate_properties():
    coarse = RadialGrid.uniform(1.0, 8.0, 801)
    fine = RadialGrid.uniform(1.0, 8.0, 1601)
    r1c, r2c = _estimate_ratios(coarse)
    r1f, r2f = _estimate_ratios(fine)
    finite = (np.all(np.isfinite(r1c)) and np.all(np.isfinite(r2c))
              and np.all(np.isfinite(r1f)) and np.all(np.isfinite(r2f)))
    drift1 = abs(np.max(r1f) - np.max(r1c)) / np.max(r1f)
    drift2 = abs(np.max(r2f) - np.max(r2c)) / np.max(r2f)
    _criterion(6, finite and drift1 < 0.10 and drift2 < 0.10,
               f"50-problem suite: max grad ratio {np.max(r1f):.3f} "
               f"(drift {drift1:.2%}), max H1 ratio {np.max(r2f):.3f} "
               f"(drift {drift2:.2%}), both < 10%")


def test_criterion_7_stream_function_path():
    grid = RadialGrid.uniform(1.0, 12.0, 1601)
    rng = np.random.default_rng(8)
    problem = random_admissible_problem(rng, grid, K=8, K_data=6, K_c=8,
                                        support=(1.6, 5.0), far_field=FarField(0.9, 0.0))
    direct = solve_disk(problem)
    psi = solve_stream(problem.vorticity, problem.far_field)
    flow = velocity_from_stream(psi)
    pts = np.array([1.2 * np.exp(0.5j), 2.4 * np.exp(-1.2j), 5.0 * np.exp(2.9j),
                    10.0 * np.exp(0.1j)])
    a = direct.sample(pts)
    b = flow.sample(pts)
    path_err = float(np.max(np.abs(a - b)) / np.max(np.abs(a)))
    defect_ok = neumann_defect(psi)

    v = 1.7
    with pytest.warns(UserWarning, match="orthogonality"):
        psi_bad = solve_stream(SpectralField.zeros(grid, 4), FarField(v, 0.0))
    closed_form = 2.0 * v * np.sqrt(np.pi)
    defect_err = abs(neumann_defect(psi_bad) - closed_form)

    _criterion(7, path_err <= 1e-8 and defect_ok <= 1e-6 and defect_err <= 1e-8,
               f"path equivalence {path_err:.3e} <= 1e-8, admissible defect "
               f"{defect_ok:.3e} <= 1e-6, slip defect vs 2|v|sqrt(pi) err {defect_err:.3e}")


def test_criterion_8_invariant_suite():
    grid = RadialGrid.uniform(1.0, 8.0, 801)
    rng = np.random.default_rng(11)
    checks = {}

    # Parseval: sampled L2 equals the mode-sum norm
    K = 6
    coeffs = rng.normal(size=(2 * K + 1, len(grid))) + 1j * rng.normal(
        size=(2 * K + 1, len(grid)))
    field = SpectralField(grid, K, coeffs)
    samples = synthesize(field, equispaced_angles(2 * K + 1))
    weights = trapezoid_weights(grid.nodes) * grid.nodes
    sampled = np.sqrt(2.0 * np.pi * np.sum(weights * np.mean(np.abs(samples) ** 2, axis=1)))
    checks["parseval"] = abs(sampled - l2_weighted_norm(field, 0.0)) <= 1e-10 * sampled

    # analyze/synthesize round trip
    back = analyze(grid, samples, K)
    checks["round_trip"] = np.max(np.abs(back.coeffs - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))

    # conjugate symmetry of analyze on real samples
    real_samples = samples.real + 0j
    checks["conjugate_symmetry"] = mirror_defect(analyze(grid, real_samples, K).coeffs) < 1e-13

    # linearity of the solve in all data jointly
    p1 = _suite_problem(2, grid)
    p2 = _suite_problem(5, grid)
    a, b = 1.3, -0.7
    combined = DiskProblem(
        SpectralField(grid, 12, a * p1.vorticity.coeffs + b * p2.vorticity.coeffs),
        SpectralField(grid, 12, a * p1.divergence.coeffs + b * p2.divergence.coeffs),
        BoundaryTrace(12, a * p1.boundary.g_r + b * p2.boundary.g_r,
                      a * p1.boundary.g_phi + b * p2.boundary.g_phi),
        FarField(a * p1.far_field.v1 + b * p2.far_field.v1,
                 a * p1.far_field.v2 + b * p2.far_field.v2),
    )
    pts = np.array([1.4 * np.exp(0.2j), 3.0 * np.exp(-2.0j), 6.5 * np.exp(1.0j)])
    expected = a * solve_disk(p1).sample(pts) + b * solve_disk(p2).sample(pts)
    got = solve_disk(combined).sample(pts)
    checks["linearity"] = np.max(np.abs(got - expected)) <= 1e-11 * np.max(np.abs(expected) + 1.0)

    # make_admissible idempotence
    p3 = _suite_problem(7, grid)
    again = make_admissible(p3.vorticity, p3.divergence, p3.boundary, p3.far_field, 12,
                            support=(1.8, 4.2))
    checks["admissible_idempotent"] = np.max(
        np.abs(again.coeffs - p3.vorticity.coeffs)
    ) <= 1e-12 * np.max(np.abs(p3.vorticity.coeffs))

    # far-field decay at least r^-2 beyond the support for zero-circulation data
    wide = RadialGrid.uniform(1.0, 64.0, 2001)
    p4 = random_admissible_problem(np.random.default_rng(13), wide, K=5, K_data=4,
                                   K_c=5, support=(1.5, 3.0), boundary_modes=2,
                                   far_field=FarField(1.0, 0.0))
    sol4 = solve_disk(p4)
    vinf = p4.far_field.as_complex
    phis = np.linspace(0.0, 2.0 * np.pi, 17)
    dev1 = np.max(np.abs(sol4.sample(16.0 * np.exp(1j * phis)) - vinf))
    dev2 = np.max(np.abs(sol4.sample(48.0 * np.exp(1j * phis)) - vinf))
    checks["far_field_decay"] = dev2 <= dev1 * (16.0 / 48.0) ** 2 * 1.5

    failed = [name for name, ok in checks.items() if not ok]
    _criterion(8, not failed, "all invariants green" if not failed
               else f"failed: {failed}")
