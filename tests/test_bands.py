"""Row bands: the banded passes equal the whole-array ones and stay within the budget.

The kernel tables, node profiles and norms walk the (2K+1) x M arrays in row
bands of quadrature._BAND_BYTES.  Each row is independent and every sum keeps
its order, so these must equal the whole-array reference path bit for bit;
the sampler walks the +-k rows in bands and may differ by rounding only.
Real data (mode -k the conjugate of mode k) is solved on the rows k >= 0
and mirrored: its tables, profiles, samples and stream profiles equal the
full path's bit for bit, and its norms, summed as row 0 plus twice rows
1..K, equal the whole-array ones to rounding.  tracemalloc (numpy reports
its buffers to it) bounds the temporaries.
"""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from divcurl import disk, grids, norms, quadrature
from divcurl.disk import solve_disk
from divcurl.moments import _report_of, moment_report
from divcurl.grids import BoundaryTrace, RadialGrid, SpectralField
from divcurl.norms import far_field_deviation_h1, far_field_deviation_l2, h1_seminorm
from divcurl.quadrature import (_BAND_BYTES, _bands, _scaled, _support, _unfold,
                                trapezoid_weights)
from divcurl.stream import neumann_defect, solve_stream

from helpers import (
    reference_far_field_deviation_h1,
    reference_profiles,
    reference_sample,
    reference_scaled_prefix,
)
from test_highmode import admissible_highmode_problem

M = 4000
BAND_ROWS = _BAND_BYTES // (16 * M)


def test_band_rows_follow_the_budget():
    assert BAND_ROWS == 16
    bands = _bands(2 * BAND_ROWS + 5, M)
    assert [b.stop - b.start for b in bands] == [BAND_ROWS, BAND_ROWS, 5]
    assert len(_bands(25, 400)) == 1 and len(_bands(25, 1501)) == 1


@pytest.mark.parametrize("rows", [2 * BAND_ROWS + 5, BAND_ROWS - 1])
@pytest.mark.parametrize("suffix", [False, True])
def test_banded_kernel_equals_whole_array_kernel(rows, suffix):
    # complex rows with no conjugate symmetry, powers up to 200 so that the
    # block schedule cuts the grid several times
    grid = RadialGrid.geometric(1.0, 12.0, M, ratio=1.0005)
    rng = np.random.default_rng(rows)
    f = rng.normal(size=(rows, M)) + 1j * rng.normal(size=(rows, M))
    powers = rng.integers(-150, 151, rows).astype(float)
    powers[0] = 200.0
    got = _scaled(grid.nodes, f, powers, suffix, _support(np.any(f != 0, axis=0))).table
    if suffix:
        want = -reference_scaled_prefix(grid.nodes[::-1], f[:, ::-1], -powers)[:, ::-1]
    else:
        want = reference_scaled_prefix(grid.nodes, f, powers)
    assert np.array_equal(got.view(float), want.view(float))


@pytest.fixture(scope="module")
def highmode():
    """(problem, solution, points) for complex data, then for real data (mirrored terms)."""
    rng = np.random.default_rng(8)
    points = (1.0 + 11.5 * rng.random(8192)) * np.exp(2j * np.pi * rng.random(8192))
    cases = []
    for real in (False, True):
        problem = admissible_highmode_problem(K=128, M=M, seed=7, ratio=1.0005, real=real)
        solution = solve_disk(problem)
        assert solution.terms.mirrored == real
        cases.append((problem, solution, points))
    return cases


def test_node_profiles_and_h1_equal_the_whole_array_path(highmode):
    for problem, solution, _ in highmode:
        assert len(_bands(2 * problem.K + 1, M)) > 1
        for got, want in zip(solution.profiles(), reference_profiles(solution.terms)):
            assert np.array_equal(got.view(float), want.view(float))
        weights = trapezoid_weights(problem.grid.nodes)
        got = far_field_deviation_h1(solution)
        want = reference_far_field_deviation_h1(solution, weights)
        if solution.terms.mirrored:  # row 0 plus twice rows 1..K: equal to rounding
            assert abs(got - want) <= 1e-15 * want
        else:
            assert got == want


def test_norms_equal_the_sequential_sums_bit_for_bit(highmode, monkeypatch, two_cpus):
    # the density pass splits its bands between the threads in a fixed way and
    # each half keeps its own sums, added in order at the end: the per-node
    # densities and the norms are the same bits with the worker thread as
    # without it, and the radial product can round no drift away
    densities, split = [], []
    volume_norm, together = norms._volume_norm, norms._together

    def recorded(power, s, weight=1.0):
        densities.append(power)
        return volume_norm(power, s, weight)

    def recorded_together(first, second, size):
        split.append(quadrature._side_by_side(size))
        return together(first, second, size)

    monkeypatch.setattr(norms, "_volume_norm", recorded)
    monkeypatch.setattr(norms, "_together", recorded_together)
    for _, solution, _ in highmode:
        runs = []
        for threads in (2, 1):
            with monkeypatch.context() as patch:
                if threads == 1:
                    patch.setattr(quadrature, "_side_by_side", lambda size: False)
                norms_ = (h1_seminorm(solution), far_field_deviation_l2(solution),
                          far_field_deviation_h1(solution))
            runs.append((norms_, [d.tobytes() for d in densities], list(split)))
            densities.clear()
            split.clear()
        (threaded, threaded_densities, used), (sequential, sequential_densities, unused) = runs
        assert used == [True] * 3 and unused == [False] * 3
        assert threaded == sequential and len(threaded_densities) == 4
        assert threaded_densities == sequential_densities


def counted_rows(monkeypatch):
    """The row counts quadrature._scaled_table receives, call by call."""
    rows = []
    table = quadrature._scaled_table

    def counted(nodes, integrand, powers, suffix, out, span):
        rows.append(len(integrand))
        return table(nodes, integrand, powers, suffix, out, span)

    monkeypatch.setattr(quadrature, "_scaled_table", counted)
    return rows


def one_ulp_off(problem, name, row):
    """problem with one value of mode row - K of w, rho or g moved by one ulp."""
    K = problem.K
    if name == "boundary":
        g_phi = np.array(problem.boundary.g_phi)
        g_phi.real[row] = np.nextafter(g_phi.real[row], np.inf)
        return replace(problem, boundary=BoundaryTrace(K, problem.boundary.g_r, g_phi))
    coeffs = np.array(getattr(problem, name).coeffs)
    coeffs.real[row, 200] = np.nextafter(coeffs.real[row, 200], np.inf)
    return replace(problem, **{name: SpectralField(problem.grid, K, coeffs)})


def test_real_data_tabulates_the_rows_k_ge_0_only(monkeypatch):
    K = 12
    problem = admissible_highmode_problem(K=K, M=400, seed=9, real=True)
    rows = counted_rows(monkeypatch)
    solution = solve_disk(problem)
    assert rows == [K + 1, K + 1] and solution.terms.mirrored
    assert [len(x) for x in solution.rows] == [K + 1, K + 1]


@pytest.mark.parametrize("name", ["vorticity", "divergence", "boundary"])
def test_one_ulp_off_the_mirror_takes_the_full_rows(monkeypatch, name):
    K = 12
    problem = admissible_highmode_problem(K=K, M=400, seed=9, real=True)
    rows = counted_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # one ulp may tip the moment report
        broken = solve_disk(one_ulp_off(problem, name, K - 3))
    assert rows == [2 * K + 1, 2 * K + 1] and not broken.terms.mirrored


@pytest.mark.parametrize("name", ["vorticity", "divergence"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_data_in_a_negative_mode_only_raises(name, value):
    K = 12
    problem = admissible_highmode_problem(K=K, M=400, seed=9, real=True)
    coeffs = np.array(getattr(problem, name).coeffs)
    coeffs[K - 5, 100] = value
    bad = replace(problem, **{name: SpectralField(problem.grid, K, coeffs)})
    with pytest.raises(ValueError, match=name):
        solve_disk(bad)


def test_non_finite_vorticity_and_divergence_name_the_vorticity(two_cpus):
    # the scans run in order, vorticity first, at a size whose passes run side by
    # side; the vorticity's error is the one raised
    K = 40
    problem = admissible_highmode_problem(K=K, M=M, seed=9, ratio=1.0005, real=True)
    assert 2 * (2 * K + 1) * M >= quadrature._SIDE_BY_SIDE
    bad = {}
    for name in ("vorticity", "divergence"):
        coeffs = np.array(getattr(problem, name).coeffs)
        coeffs[K + 2, 100] = np.nan
        bad[name] = SpectralField(problem.grid, K, coeffs)
    with pytest.raises(ValueError, match="vorticity"):
        solve_disk(replace(problem, **bad))


def test_complex_data_with_a_non_finite_trace_name_the_trace():
    # the trace is scanned whatever the mirror flags of w and rho say
    K = 12
    problem = admissible_highmode_problem(K=K, M=400, seed=9)
    g_phi = np.array(problem.boundary.g_phi)
    g_phi[K + 3] = np.nan
    bad = replace(problem, boundary=BoundaryTrace(K, problem.boundary.g_r, g_phi))
    with pytest.raises(ValueError, match="boundary trace has non-finite coefficients"):
        solve_disk(bad)
    with pytest.raises(ValueError, match="boundary trace has non-finite coefficients"):
        moment_report(replace(bad))  # no solve before it


def rescanned(field, scan):
    """A copy of field whose scan, taken when it is made, is scan(grids._scan)."""
    own = grids._scan
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grids, "_scan", lambda values: scan(own, values))
        return replace(field)


def test_one_scan_steers_every_entry_to_the_full_rows():
    # solve_disk, solve_stream and a cold moment_report share the field's scan:
    # a real vorticity whose scan says it is not mirrored sends all three to -K..K
    K = 12
    problem = admissible_highmode_problem(K=K, M=400, seed=9, real=True)
    vorticity = rescanned(problem.vorticity, lambda scan, values: (scan(values)[0], False))
    problem = replace(problem, vorticity=vorticity)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the data is not no-slip
        psi = solve_stream(problem.vorticity, problem.far_field)
    solution = solve_disk(replace(problem))
    report = moment_report(replace(problem))
    full = np.arange(-K, K + 1)
    assert np.array_equal(solution.terms.ks, full) and np.array_equal(psi.velocity.terms.ks, full)
    assert len(psi.psi) == len(solution.rows[0]) == 2 * K + 1
    assert len(report.negative) == K + 1


def test_zero_divergence_equals_the_zero_array_path_byte_for_byte(monkeypatch):
    K = 12
    problem = admissible_highmode_problem(K=K, M=400, seed=9, real=True)
    problem = replace(problem, divergence=SpectralField.zeros(problem.grid, K))
    points = (1.0 + 11.5 * np.linspace(0.0, 1.0, 97)) * np.exp(1j * np.linspace(0.0, 6.0, 97))

    def solve():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # rho = 0 breaks admissibility
            solution = solve_disk(problem)
        return (solution.terms.inner.table, solution.terms.outer.table, *solution.rows,
                solution.sample(points), np.array(far_field_deviation_h1(solution)),
                solution.boundary_trace().g_r, solution.boundary_trace().g_phi,
                solution.report.residuals), solution.terms
    skipped, terms = solve()
    assert terms.zero[0] is None  # no w -+ i sigma rho was formed
    # a zero divergence scanned as nonzero in every column: the zero array goes
    # through w -+ i sigma rho, over the whole grid
    scan = grids._scan
    monkeypatch.setattr(grids, "_scan", lambda values: (np.maximum(scan(values)[0], 1.0),
                                                        scan(values)[1]))
    problem = replace(problem, divergence=SpectralField.zeros(problem.grid, K))
    monkeypatch.undo()
    formed, terms = solve()
    assert terms.zero[0] is not None
    for got, want in zip(skipped, formed):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", [0, 1], ids=["complex", "real"])
def test_a_zero_view_divergence_solves_as_a_zero_array(highmode, case):
    # SpectralField.zeros is a zero-stride view; a materialised zero array
    # must give the same solve, sample and norms byte for byte
    problem, _, points = highmode[case]
    grid, K = problem.grid, problem.K
    view = SpectralField.zeros(grid, K)
    array = SpectralField(grid, K, np.zeros((2 * K + 1, len(grid)), dtype=complex))
    assert view.coeffs.strides == (0, 0) and array.coeffs.strides == (16 * M, 16)

    def solved(divergence):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # rho = 0 breaks admissibility
            solution = solve_disk(replace(problem, divergence=divergence))
        trace = solution.boundary_trace()
        return (*solution.profiles(), trace.g_r, trace.g_phi, solution.report.residuals,
                solution.sample(points), np.array(far_field_deviation_h1(solution)),
                np.array(norms.l2_weighted_norm(divergence, 1.0)))

    for got, want in zip(solved(view), solved(array), strict=True):
        assert got.tobytes() == want.tobytes()


def test_real_data_equals_the_general_path_bit_for_bit(highmode):
    problem, half, points = highmode[1]
    K = problem.K
    with pytest.warns(UserWarning, match="no-slip"):  # the data is not no-slip
        half_stream = solve_stream(problem.vorticity, problem.far_field)
    # a vorticity whose scan fails the mirror test: the general path
    vorticity = rescanned(problem.vorticity, lambda scan, values: (scan(values)[0], False))
    full = solve_disk(replace(problem, vorticity=vorticity))
    with pytest.warns(UserWarning, match="no-slip"):
        full_stream = solve_stream(vorticity, problem.far_field)
    assert half.terms.mirrored and half_stream.velocity.terms.mirrored
    assert not full.terms.mirrored and not full_stream.velocity.terms.mirrored
    assert len(half.terms.inner.table) == K + 1 and len(full.terms.inner.table) == 2 * K + 1
    # the public per-mode views have every row and are built once
    views = [(half.v_r, full.v_r), (half.v_phi, full.v_phi),
             *zip(half.profiles(), full.profiles()),
             (_unfold(half_stream.psi, K), _unfold(full_stream.psi, K)),
             (_unfold(half_stream.d_psi, K), _unfold(full_stream.d_psi, K))]
    for got, want in views:
        assert got.shape == want.shape == (2 * K + 1, M)
    assert half.profiles()[0] is half.v_r
    assert not half.v_r.flags.writeable
    pairs = [(half.terms.inner.table, full.terms.inner.table[K:]),
             (half.terms.outer.table, full.terms.outer.table[K:]),
             *views,
             (half.sample(points[:1024]), full.sample(points[:1024])),
             (half.boundary_trace().g_r, full.boundary_trace().g_r),
             (half.boundary_trace().g_phi, full.boundary_trace().g_phi)]
    for got, want in pairs:
        assert np.array_equal(got.view(float), want.view(float))
    assert neumann_defect(half_stream) == neumann_defect(full_stream)


def unrotated(problem):
    """(solution, report) of pure-divergence data through the integrands w -+ i sigma rho.

    The zero w is scanned with rho's column maxima, as for data with any
    nonzero w on rho's support, so the reference's tables are those of
    w -+ i sigma rho.
    """
    rho_top = problem.divergence._scanned[0]
    own = grids._scan
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grids, "_scan", lambda values: (rho_top, own(values)[1]))
        problem = replace(problem, vorticity=SpectralField.zeros(problem.grid, problem.K))
    terms, _ = disk._direct_terms(problem)
    terms = disk._with_trace(terms, problem.boundary.g_r, problem.boundary.g_phi)
    report = _report_of(problem, np.array(terms.outer.table[:, 0]), 1e-8)
    return disk.VelocitySolution(terms, terms.at_nodes(), problem.far_field, problem.grid), report


def test_pure_divergence_tables_rho_itself(highmode):
    # zero vorticity: both tables are of rho, rotated by -i, and every profile,
    # trace and residual is the w -+ i sigma rho path's bit for bit
    for problem, with_w, points in highmode:
        assert not with_w.terms.rotated  # any nonzero w keeps the w -+ i sigma rho path
        problem = replace(problem, vorticity=SpectralField.zeros(problem.grid, problem.K))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # w = 0 breaks admissibility
            solution = solve_disk(problem)
            want, report = unrotated(problem)
        assert solution.terms.rotated and not want.terms.rotated
        assert solution.terms.mirrored == want.terms.mirrored == with_w.terms.mirrored
        assert solution.terms.inner.integrand is solution.terms.outer.integrand
        cold = moment_report(replace(problem))
        got, ref = solution.boundary_trace(), want.boundary_trace()
        pairs = [*zip(solution.profiles(), want.profiles()), (got.g_r, ref.g_r),
                 (got.g_phi, ref.g_phi), (solution.report.residuals, report.residuals),
                 (solution.report.negative, report.negative), (cold.residuals, report.residuals),
                 (cold.negative, report.negative)]
        for got, ref in pairs:
            assert got.tobytes() == ref.tobytes()
        got, ref = solution.sample(points), want.sample(points)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_mirrored_profiles_unfold_in_place(highmode):
    # the rows k = 0..K are the upper rows of the full view, whose lower rows
    # are written on first access: no second (2K+1)-row array is made
    problem = highmode[1][0]
    solution = solve_disk(problem)
    tracemalloc.start()
    try:
        v_r = solution.v_r
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solution.terms.mirrored and solution.rows[0].base is v_r
    assert peak < _BAND_BYTES and not v_r.flags.writeable
    K = problem.K
    assert np.array_equal(v_r[:K].view(float), np.conj(v_r[: K : -1]).view(float))


def test_banded_sampling_matches_the_whole_array_path(highmode):
    for _, solution, points in highmode:
        got = solution.sample(points)
        want = reference_sample(solution.terms, points)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def transient_bytes(fn):
    """Peak traced memory of fn() above what it leaves allocated when it returns."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current


def test_temporaries_stay_within_a_few_bands(highmode):
    # whole-array passes at K = 128, M = 4000 hold 30-50 MB of temporaries
    bound = 8 * _BAND_BYTES
    for problem, solution, points in highmode:
        _, solve = transient_bytes(lambda: solve_disk(problem))
        _, sample = transient_bytes(lambda: solution.sample(points))
        _, h1 = transient_bytes(lambda: far_field_deviation_h1(solution))
        _, report = transient_bytes(lambda: moment_report(problem))
        assert max(solve, sample, h1, report) < bound, (solve, sample, h1, report)
