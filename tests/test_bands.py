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
from dataclasses import replace

import numpy as np
import pytest

from divcurl import disk, quadrature
from divcurl.disk import solve_disk
from divcurl.moments import moment_report
from divcurl.grids import RadialGrid, SpectralField
from divcurl.norms import far_field_deviation_h1
from divcurl.quadrature import _BAND_BYTES, _bands, scaled_integrals, trapezoid_weights
from divcurl.stream import solve_stream

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
    got = scaled_integrals(grid.nodes, f, powers, suffix=suffix).table
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


def test_real_data_tabulates_the_rows_k_ge_0_only(monkeypatch):
    rows = []
    table = quadrature._scaled_table

    def counted(nodes, integrand, powers, suffix, out):
        rows.append(len(integrand))
        return table(nodes, integrand, powers, suffix, out)

    monkeypatch.setattr(quadrature, "_scaled_table", counted)
    K = 12
    problem = admissible_highmode_problem(K=K, M=400, seed=9, real=True)
    solution = solve_disk(problem)
    assert rows == [K + 1, K + 1] and solution.terms.mirrored
    # one ulp off the mirror in one row of w: the full rows, both tables
    coeffs = np.array(problem.vorticity.coeffs)
    coeffs.real[K - 3, 200] = np.nextafter(coeffs.real[K - 3, 200], np.inf)
    rows.clear()
    broken = solve_disk(replace(problem, vorticity=SpectralField(problem.grid, K, coeffs)))
    assert rows == [2 * K + 1, 2 * K + 1] and not broken.terms.mirrored


def test_real_data_equals_the_general_path_bit_for_bit(highmode):
    problem, half, points = highmode[1]
    with pytest.warns(UserWarning, match="no-slip"):  # the data is not no-slip
        half_stream = solve_stream(problem.vorticity, problem.far_field)
    with pytest.MonkeyPatch.context() as patch:  # the mirror test fails: the general path
        patch.setattr(disk, "_mirror_defect", lambda rows: 1.0)
        full = solve_disk(problem)
        with pytest.warns(UserWarning, match="no-slip"):
            full_stream = solve_stream(problem.vorticity, problem.far_field)
    assert half_stream.velocity.terms.mirrored
    assert not full.terms.mirrored and not full_stream.velocity.terms.mirrored
    pairs = [(half.terms.inner.table, full.terms.inner.table),
             (half.terms.outer.table, full.terms.outer.table),
             *zip(half.profiles(), full.profiles()),
             (half_stream.modes, full_stream.modes), (half_stream.d_modes, full_stream.d_modes),
             (half.sample(points[:1024]), full.sample(points[:1024]))]
    for got, want in pairs:
        assert np.array_equal(got.view(float), want.view(float))


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
