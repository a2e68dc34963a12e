"""Row bands: the banded passes equal the whole-array ones and stay within the budget.

The kernel tables, node profiles and norms walk the (2K+1) x M arrays in row
bands of quadrature._BAND_BYTES.  Each row is independent and every sum keeps
its order, so these must equal the whole-array reference path bit for bit;
the sampler walks the +-k rows in bands and may differ by rounding only.
tracemalloc (numpy reports its buffers to it) bounds the temporaries.
"""

import tracemalloc

import numpy as np
import pytest

from divcurl.disk import solve_disk
from divcurl.moments import moment_report
from divcurl.grids import RadialGrid
from divcurl.norms import far_field_deviation_h1
from divcurl.quadrature import _BAND_BYTES, _bands, scaled_integrals, trapezoid_weights

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
    problem = admissible_highmode_problem(K=128, M=M, seed=7, ratio=1.0005)
    rng = np.random.default_rng(8)
    points = (1.0 + 11.5 * rng.random(8192)) * np.exp(2j * np.pi * rng.random(8192))
    return problem, solve_disk(problem), points


def test_node_profiles_and_h1_equal_the_whole_array_path(highmode):
    problem, solution, _ = highmode
    assert len(_bands(2 * problem.K + 1, M)) > 1
    for got, want in zip(solution.profiles(), reference_profiles(solution.terms)):
        assert np.array_equal(got.view(float), want.view(float))
    weights = trapezoid_weights(problem.grid.nodes)
    assert far_field_deviation_h1(solution) == reference_far_field_deviation_h1(solution, weights)


def test_banded_sampling_matches_the_whole_array_path(highmode):
    _, solution, points = highmode
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
    problem, solution, points = highmode
    bound = 8 * _BAND_BYTES
    _, solve = transient_bytes(lambda: solve_disk(problem))
    _, sample = transient_bytes(lambda: solution.sample(points))
    _, h1 = transient_bytes(lambda: far_field_deviation_h1(solution))
    _, report = transient_bytes(lambda: moment_report(problem))
    assert max(solve, sample, h1, report) < bound, (solve, sample, h1, report)
