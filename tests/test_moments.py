import gc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcurl import quadrature
from divcurl.disk import DiskProblem, FarField, solve_disk
from divcurl.grids import BoundaryTrace, RadialGrid, SpectralField, smooth_bump
from divcurl.moments import admissibility_corrections, make_admissible, moment_report
from divcurl.presets import potential_slip_trace, random_admissible_problem
from divcurl.quadrature import _scaled, _support, trapezoid_weights

from helpers import mirror_defect
from test_highmode import admissible_highmode_problem


@pytest.fixture
def grid():
    return RadialGrid.uniform(1.0, 6.0, 1501)


def zeros_problem(grid, K=4, g=None, far=FarField()):
    w = SpectralField.zeros(grid, K)
    return DiskProblem(w, w, g if g is not None else BoundaryTrace.zeros(K), far)


def test_zero_data_residuals(grid):
    report = moment_report(zeros_problem(grid))
    for k in range(1, 5):
        assert report.residuals[k] == 0.0
    assert report.circulation == 0.0 and report.flux == 0.0


def test_far_field_violation(grid):
    v = 2.5
    residuals = moment_report(zeros_problem(grid, far=FarField(v, 0.0))).residuals
    assert abs(residuals[1] + 1j * v) < 1e-15
    for k in range(2, 5):
        assert residuals[k] == 0.0


def test_cylinder_trace_is_admissible(grid):
    v = 2.5
    far = FarField(v, 0.0)
    report = moment_report(zeros_problem(grid, g=potential_slip_trace(4, far), far=far))
    assert abs(report.residuals[1]) < 1e-15
    assert report.admissible and report.max_residual < 1e-15


def step_profile(grid, lo, hi, value=1.0):
    """Indicator of [lo, hi]; interior jump nodes carry the midpoint value."""
    nodes = grid.nodes
    out = np.where((nodes > lo) & (nodes < hi), value, 0.0).astype(complex)
    out[nodes == lo] = value if lo <= grid.r0 else 0.5 * value
    out[nodes == hi] = value if hi >= grid.rmax else 0.5 * value
    return out


def test_circulation_flux_examples(grid):
    # w_0 = 1 on [1,2]: circulation residual 2 pi * 3/2 = 3 pi
    w = SpectralField.from_modes(grid, 2, {0: step_profile(grid, 1.0, 2.0)})
    rho = SpectralField.zeros(grid, 2)
    problem = DiskProblem(w, rho, BoundaryTrace.zeros(2))
    report = moment_report(problem)
    assert np.hypot(abs(report.circulation - 3.0 * np.pi), abs(report.flux)) < 1e-3
    # cancel it with the tangential trace
    g = BoundaryTrace.from_coeffs(2, tangential={0: -report.circulation.real / (2.0 * np.pi)})
    problem2 = DiskProblem(w, rho, g)
    assert moment_report(problem2).circulation_flux < 1e-12


def test_flux_residual_scales_with_r0():
    # boundary integral of (g, n) over the circle carries the factor r0
    grid = RadialGrid.uniform(2.0, 8.0, 101)
    w = SpectralField.zeros(grid, 2)
    g = BoundaryTrace.from_coeffs(2, radial={0: 1.0})
    report = moment_report(DiskProblem(w, w, g))
    assert np.hypot(abs(report.circulation), abs(report.flux - 2.0 * np.pi * 2.0)) < 1e-14


def test_no_slip_orthogonality_examples(grid):
    # the no-slip orthogonality relations are the moment conditions with g = 0
    K = 4
    rho = SpectralField.zeros(grid, K)

    def no_slip_residual(k, w):
        return moment_report(DiskProblem(w, rho, BoundaryTrace.zeros(K), FarField())).residuals[k]

    assert no_slip_residual(2, rho) == 0.0

    # +-1 step pair integrates to zero at k = 1
    pm = step_profile(grid, 1.0, 2.0) - step_profile(grid, 2.0, 3.0)
    w1 = SpectralField.from_modes(grid, K, {1: pm})
    assert abs(no_slip_residual(1, w1)) < 1e-12

    # same profile at k = 2 leaves log(4/3) (times r0^{k-1} = 1)
    w2 = SpectralField.from_modes(grid, K, {2: pm})
    res = no_slip_residual(2, w2)
    assert abs(res - np.log(4.0 / 3.0)) < 1e-5


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-2, 2), b=st.floats(-2, 2), k=st.integers(1, 4))
def test_moment_residual_linearity(a, b, k):
    grid = RadialGrid.uniform(1.0, 6.0, 201)
    nodes = grid.nodes
    bump1 = smooth_bump(nodes, 1.5, 3.0) + 0j
    bump2 = smooth_bump(nodes, 2.5, 5.0) * 1j
    w1 = SpectralField.from_modes(grid, 4, {k: bump1})
    w2 = SpectralField.from_modes(grid, 4, {k: bump2})
    rho = SpectralField.zeros(grid, 4)
    g = BoundaryTrace.zeros(4)
    combo = SpectralField.from_modes(grid, 4, {k: a * bump1 + b * bump2})
    lhs = moment_report(DiskProblem(combo, rho, g)).residuals[k]
    rhs = (a * moment_report(DiskProblem(w1, rho, g)).residuals[k]
           + b * moment_report(DiskProblem(w2, rho, g)).residuals[k])
    assert abs(lhs - rhs) < 1e-12


def test_make_admissible_identity_on_admissible_input(grid):
    rng = np.random.default_rng(0)
    problem = random_admissible_problem(rng, grid, K=6, K_data=4, K_c=6)
    w2 = make_admissible(problem.vorticity, problem.divergence, problem.boundary,
                         problem.far_field, 6)
    assert np.array_equal(w2.coeffs, problem.vorticity.coeffs)


def test_make_admissible_circulation_example(grid):
    w = SpectralField.from_modes(grid, 4, {0: step_profile(grid, 1.0, 2.0)})
    rho = SpectralField.zeros(grid, 4)
    g = BoundaryTrace.zeros(4)
    w2 = make_admissible(w, rho, g, FarField(), 4)
    problem = DiskProblem(w2, rho, g)
    assert moment_report(problem).circulation_flux < 1e-12
    # only the offending mode was touched
    for k in range(1, 5):
        assert np.array_equal(w2.coeff(k), w.coeff(k))


def test_make_admissible_random_violations(grid):
    rng = np.random.default_rng(1)
    K = 10
    profiles = {}
    for k in range(0, 9):
        amp = rng.normal() + (1j * rng.normal() if k else 0.0)
        profiles[k] = amp * smooth_bump(grid.nodes, 1.3, 5.5)
        if k:
            profiles[-k] = np.conj(profiles[k])
    w = SpectralField.from_modes(grid, K, profiles)
    rho = SpectralField.zeros(grid, K)
    g = BoundaryTrace.zeros(K)
    far = FarField(0.8, -0.4)
    w2 = make_admissible(w, rho, g, far, 8)
    report = moment_report(DiskProblem(w2, rho, g, far))
    for k in range(1, 9):
        assert abs(report.residuals[k]) < 1e-10
    assert report.circulation_flux < 1e-10
    # conjugate symmetry preserved
    assert mirror_defect(w2.coeffs) < 1e-13


def test_make_admissible_idempotent(grid):
    rng = np.random.default_rng(2)
    w = SpectralField.from_modes(grid, 6, {
        0: rng.normal() * smooth_bump(grid.nodes, 1.5, 4.0),
        2: (rng.normal() + 1j) * smooth_bump(grid.nodes, 2.0, 5.0),
        -2: (rng.normal() - 1j) * smooth_bump(grid.nodes, 2.0, 5.0),
    })
    rho = SpectralField.zeros(grid, 6)
    g = BoundaryTrace.zeros(6)
    once = make_admissible(w, rho, g, FarField(), 6)
    twice = make_admissible(once, rho, g, FarField(), 6)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-12 * np.max(np.abs(once.coeffs))


def test_make_admissible_flux_warning(grid):
    # a net source cannot be fixed through the vorticity
    rho = SpectralField.from_modes(grid, 4, {0: step_profile(grid, 1.5, 2.5)})
    w = SpectralField.zeros(grid, 4)
    g = BoundaryTrace.zeros(4)
    with pytest.warns(UserWarning, match="flux"):
        make_admissible(w, rho, g, FarField(), 4)


def test_make_admissible_k_c_validation(grid):
    w = SpectralField.zeros(grid, 4)
    with pytest.raises(ValueError):
        make_admissible(w, w, BoundaryTrace.zeros(4), FarField(), 7)


def test_closure_admissible_solution_recovers_its_own_moments(grid):
    rng = np.random.default_rng(3)
    problem = random_admissible_problem(rng, grid, K=6, K_data=4, K_c=6,
                                        boundary_modes=2, far_field=FarField(1.0, 0.2))
    solution = solve_disk(problem)
    # boundary trace reproduced
    trace = solution.boundary_trace()
    assert np.max(np.abs(trace.g_phi - problem.boundary.g_phi)) < 1e-10
    # recompute the moments from the solved field's own boundary trace: the
    # solved field satisfies the same div-curl data, so residuals still vanish
    problem2 = DiskProblem(problem.vorticity, problem.divergence, trace, problem.far_field)
    report = moment_report(problem2)
    assert report.admissible
    # far-field condition: the deviation keeps dropping at the r^-2 rate
    # beyond the data support (zero circulation and flux)
    vinf = problem.far_field.as_complex
    phis = np.linspace(0.0, 2.0 * np.pi, 9)
    dev_mid = np.max(np.abs(solution.sample(5.0 * np.exp(1j * phis)) - vinf))
    dev_edge = np.max(np.abs(solution.sample(5.9 * np.exp(1j * phis)) - vinf))
    assert dev_edge <= dev_mid * (5.0 / 5.9) ** 2 * 1.5


def test_residual_conjugation_for_real_data(grid):
    # for real data the negative-k condition is the conjugate of the +k one:
    # check by conjugating the data and comparing residuals
    rng = np.random.default_rng(4)
    problem = random_admissible_problem(rng, grid, K=6, K_data=4, K_c=3,
                                        far_field=FarField(0.5, 0.1))
    conj_w = SpectralField(grid, 6, np.conj(problem.vorticity.coeffs[::-1]))
    conj_problem = DiskProblem(conj_w, problem.divergence, problem.boundary,
                               problem.far_field)
    conj_residuals = moment_report(conj_problem).residuals
    residuals = moment_report(problem).residuals
    for k in range(1, 6):
        assert abs(conj_residuals[k] - residuals[k]) < 1e-13


def test_report_text_round_trip(grid):
    problem = zeros_problem(grid, far=FarField(1.0, 0.0))
    report = moment_report(problem)
    text = report.to_text()
    assert "admissible,false" in text
    assert text.splitlines()[1].startswith("1,")


def test_complex_circulation_and_flux_do_not_cancel():
    # w_0 with circulation i and rho_0 with flux -1: circulation + i flux is 0,
    # yet neither k = 0 condition holds
    grid = RadialGrid.uniform(1.0, 8.0, 801)
    bump = smooth_bump(grid.nodes, 2.0, 5.0)
    moment = 2.0 * np.pi * (trapezoid_weights(grid.nodes) @ (grid.nodes * bump))
    w = SpectralField.from_modes(grid, 2, {0: (1j / moment) * bump})
    rho = SpectralField.from_modes(grid, 2, {0: (-1.0 / moment) * bump + 0j})
    problem = DiskProblem(w, rho, BoundaryTrace.zeros(2))
    report = moment_report(problem)
    assert abs(report.circulation + 1j * report.flux) < 1e-14
    assert abs(report.circulation - 1j) < 1e-14 and abs(report.flux + 1.0) < 1e-14
    assert not report.admissible
    text = report.to_text()
    assert "admissible,false" in text
    lines = text.splitlines()
    assert not any(line.startswith("circulation_flux,") for line in lines)
    assert {"circulation", "flux"} <= {line.split(",")[0] for line in lines}
    # the projection removes the complex circulation and warns about the flux
    with pytest.warns(UserWarning, match="flux residual"):
        corrections, _ = admissibility_corrections(w, rho, BoundaryTrace.zeros(2), FarField(), 2)
    assert abs(corrections[0].imag) > 0.0
    with pytest.warns(UserWarning, match="flux residual"):
        fixed = make_admissible(w, rho, BoundaryTrace.zeros(2), FarField(), 2)
    report = moment_report(DiskProblem(fixed, rho, BoundaryTrace.zeros(2)))
    assert abs(report.circulation) < 1e-14 and abs(report.flux + 1.0) < 1e-14
    assert not report.admissible


def test_real_data_report_prints_circulation_and_flux_combined(grid):
    rho = SpectralField.from_modes(grid, 2, {0: step_profile(grid, 1.5, 2.5)})
    w = SpectralField.from_modes(grid, 2, {0: step_profile(grid, 1.0, 2.0)})
    report = moment_report(DiskProblem(w, rho, BoundaryTrace.zeros(2)))
    c = report.circulation + 1j * report.flux
    assert f"\ncirculation_flux,{c.real:.17g},{c.imag:.17g},{abs(c):.17g}\n" in report.to_text()
    assert report.circulation_flux == abs(c)


def solved_report(problem):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return solve_disk(problem).report


@pytest.mark.parametrize("kind", ["real", "complex", "solenoidal", "zero"])
def test_report_reads_the_moments_of_the_solve(kind):
    # moment_report and solve_disk read one b_k(r0), so their residuals agree byte for byte
    if kind == "zero":
        problem = zeros_problem(RadialGrid.uniform(1.0, 6.0, 1501), far=FarField(0.5, -0.2))
    elif kind == "solenoidal":  # rho zero: the integrand is w alone
        problem = random_admissible_problem(np.random.default_rng(9), RadialGrid.uniform(
            1.0, 6.0, 1501), K=6, K_data=4, K_c=3, far_field=FarField(0.5, 0.1))
    else:
        problem = admissible_highmode_problem(K=24, M=400, seed=5, real=kind == "real")
    assert moment_report(problem).residuals.tobytes() == solved_report(problem).residuals.tobytes()


def test_projection_reads_the_moments_of_the_solve(grid):
    # with K_c < K each bump scale is minus the solve's residual over the bump's
    # b_k(r0) on the solve's schedule (all K modes), and modes above K_c stay
    K, K_c = 8, 5
    rng = np.random.default_rng(12)
    bump = smooth_bump(grid.nodes, 2.0, 4.0)
    w = SpectralField.from_modes(grid, K, {k: (rng.normal() + 1j * rng.normal()) * bump
                                           for k in range(-K, K + 1) if k})
    rho, g, far = SpectralField.zeros(grid, K), BoundaryTrace.zeros(K), FarField(0.3, -0.1)
    # the data are not mirrored, so each mode -k is corrected from its own residual
    corrections, profile = admissibility_corrections(w, rho, g, far, K_c)
    report = solved_report(DiskProblem(w, rho, g, far))
    rows = np.broadcast_to(profile.astype(complex), (K, profile.size))
    moments = _scaled(grid.nodes, rows, np.arange(K, dtype=float), True,
                      _support(profile)).table[:, 0]
    assert sorted(corrections) == [k for k in range(-K_c, K_c + 1) if k]
    for k in range(1, K_c + 1):
        assert corrections[k] == complex(-report.residuals[k] / moments[k - 1])
        assert corrections[-k] == complex(-report.negative[k] / moments[k - 1])


def memo_cases():
    grid = RadialGrid.uniform(1.0, 6.0, 1501)
    rng = np.random.default_rng(9)
    solenoidal = random_admissible_problem(rng, grid, K=6, K_data=4, K_c=3,
                                           far_field=FarField(0.5, 0.1))
    real = admissible_highmode_problem(K=24, M=400, seed=5, real=True)
    return {"real": real,
            "complex": admissible_highmode_problem(K=24, M=400, seed=5),
            "solenoidal": solenoidal,
            "divergence": replace(real, vorticity=SpectralField.zeros(real.grid, 24))}


@pytest.mark.parametrize("kind", ["real", "complex", "solenoidal", "divergence"])
def test_report_after_a_solve_reads_the_memo(kind, monkeypatch):
    # while the solution lives, a report reads its suffix table (disk._TABLES)
    # and tabulates nothing, w and rho combined included; once the solution is
    # released, a report builds the solve's suffix table alone
    problem = memo_cases()[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        solution = solve_disk(problem)
    solved, rows = solution.report, len(solution.terms.ks)
    calls = []
    table = quadrature._scaled_table

    def counted(nodes, integrand, powers, suffix, out, span):
        calls.append((suffix, len(integrand)))
        return table(nodes, integrand, powers, suffix, out, span)

    monkeypatch.setattr(quadrature, "_scaled_table", counted)
    report = moment_report(problem)
    fresh = moment_report(replace(problem))  # the same fields: the same live table
    assert calls == []
    del solution
    gc.collect()
    cold = moment_report(problem)
    assert calls == [(True, rows)]
    for other in (solved, fresh, cold):
        assert report.residuals.tobytes() == other.residuals.tobytes()
        assert report.negative.tobytes() == other.negative.tobytes()
    assert report.negative.size == (0 if kind in ("real", "divergence", "solenoidal") else 25)


def found_case(K=4):
    """w only in mode -2, a unit bump on [2, 4]; rho, g and v_inf zero."""
    grid = RadialGrid.uniform(1.0, 12.0, 2201)
    w = SpectralField.from_modes(grid, K, {-2: smooth_bump(grid.nodes, 2.0, 4.0)})
    return DiskProblem(w, SpectralField.zeros(grid, K), BoundaryTrace.zeros(K))


def test_complex_data_have_their_negative_modes_checked():
    problem = found_case()
    with pytest.warns(UserWarning, match="will not match the boundary trace"):
        solution = solve_disk(problem)
    report = moment_report(replace(problem))
    assert not report.admissible and not solution.report.admissible
    assert report.negative.tobytes() == solution.report.negative.tobytes()
    assert np.max(np.abs(report.residuals)) == 0.0
    assert [m for m in range(1, 5) if report.negative[m] != 0.0] == [2]
    defect = np.max(np.abs(solution.boundary_trace().g_phi))
    assert defect > 0.2 and report.max_residual == abs(report.negative[2])
    lines = report.to_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:9]] == ["1", "2", "3", "4",
                                                           "-1", "-2", "-3", "-4"]
    # orientation: a trace that takes the mode -2 residual off meets the trace condition
    g_phi = np.zeros(9, dtype=complex)
    g_phi[4 - 2] = -report.negative[2]
    fixed = replace(problem, boundary=BoundaryTrace(4, np.zeros(9, dtype=complex), g_phi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solution = solve_disk(fixed)
    assert solution.report.admissible
    trace = solution.boundary_trace()
    assert np.max(np.abs(trace.g_r)) <= 1e-14 and np.max(np.abs(trace.g_phi - g_phi)) <= 1e-14


def test_projection_of_complex_data_passes_its_own_report():
    # random complex amplitudes times a bump on [2, 4] in every mode 1 <= |k| <= 4:
    # each mode -k is corrected from its own residual, not with the conjugate of mode k's
    grid = RadialGrid.uniform(1.0, 6.0, 1501)
    rng = np.random.default_rng(4)
    bump = smooth_bump(grid.nodes, 2.0, 4.0)
    w = SpectralField.from_modes(grid, 4, {k: (rng.normal() + 1j * rng.normal()) * bump
                                           for k in range(-4, 5) if k})
    rho, g, far = SpectralField.zeros(grid, 4), BoundaryTrace.zeros(4), FarField()
    assert np.min(np.abs(moment_report(DiskProblem(w, rho, g, far)).negative[1:])) > 1e-2
    fixed = make_admissible(w, rho, g, far, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solution = solve_disk(DiskProblem(fixed, rho, g, far))
    assert solution.report.admissible
    assert moment_report(DiskProblem(fixed, rho, g, far)).admissible
    trace = solution.boundary_trace()
    assert np.max(np.abs(trace.g_r - g.g_r)) <= 1e-12
    assert np.max(np.abs(trace.g_phi - g.g_phi)) <= 1e-12


@pytest.mark.parametrize("tolerance", [-1e-8, np.nan])
def test_a_negative_or_nan_tolerance_is_refused(grid, tolerance):
    # a negative tolerance read admissible data as inadmissible, a NaN one read any data so
    problem = zeros_problem(grid)
    with pytest.raises(ValueError, match="tolerance"):
        moment_report(problem, tolerance=tolerance)
    with pytest.raises(ValueError, match="tolerance"):
        solve_disk(problem, warn_tolerance=tolerance)


def test_a_negative_k_c_is_refused(grid):
    # the projection corrected the circulation alone, quietly
    w = SpectralField.zeros(grid, 4)
    with pytest.raises(ValueError, match="K_c"):
        admissibility_corrections(w, w, BoundaryTrace.zeros(4), FarField(), -1)
    with pytest.raises(ValueError, match="K_c"):
        make_admissible(w, w, BoundaryTrace.zeros(4), FarField(), -2)
