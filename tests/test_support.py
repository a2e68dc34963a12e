"""The data's radial support: passes that skip what lies outside it equal the whole-grid ones.

The kernel tables sum panels only where they touch the support, write the
zeros on the near side directly and only rescale the carried sum on the
far side; the sampler sums only the polynomials that can be nonzero for
points off the support.  Each skipped term is an exact zero, so every
result here must equal, byte for byte, the same pass with the span forced
to the whole grid (disk._support patched to return every column).
"""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from divcurl import disk, grids, quadrature
from divcurl.disk import DiskProblem, FarField, solve_disk
from divcurl.grids import BoundaryTrace, RadialGrid, SpectralField
from divcurl.presets import random_admissible_problem
from divcurl.quadrature import _scaled, _support
from divcurl.stream import solve_stream

from test_highmode import admissible_highmode_problem


def whole_grid(columns):
    return 0, len(columns)


def solve_both(problem):
    """(solution, the same solve over the whole grid), warnings ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        skipped = solve_disk(problem)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(disk, "_support", whole_grid)
            whole = solve_disk(problem)
    assert whole.terms.span == (0, len(problem.grid))
    return skipped, whole


def outputs(solution, points):
    """Every array a solve hands out: tables, profiles, samples, trace, residuals."""
    terms = solution.terms
    trace = solution.boundary_trace()
    return [terms.inner.table, terms.outer.table, *solution.rows, solution.sample(points),
            trace.g_r, trace.g_phi, solution.report.residuals]


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), i


def supported(problem, lo, hi):
    """problem with complex vorticity and divergence in every mode, nonzero in columns lo..hi-1."""
    rng = np.random.default_rng([lo, hi])
    fields = []
    for field in (problem.vorticity, problem.divergence):
        coeffs = np.zeros_like(field.coeffs)
        shape = (len(coeffs), hi - lo)
        coeffs[:, lo:hi] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        fields.append(SpectralField(field.grid, field.K, coeffs))
    return replace(problem, vorticity=fields[0], divergence=fields[1])


def edge_points(nodes, lo, hi, count):
    """count points on the panels at both support edges, on their nodes, and beyond rmax."""
    rng = np.random.default_rng(lo + 7 * hi)
    M = len(nodes)
    panels = [j for j in (lo - 2, lo - 1, lo, hi - 1, hi, hi + 1) if 0 <= j < M - 1]
    idx = rng.choice(panels, count)
    r = nodes[idx] + rng.random(count) * (nodes[idx + 1] - nodes[idx])
    r[:8] = nodes[np.clip([lo - 1, lo, hi - 1, hi, lo - 2, hi + 1, 0, M - 1], 0, M - 1)]
    r[8:16] = nodes[-1] * (1.0 + rng.random(8))  # beyond rmax
    phi = 2.0 * np.pi * rng.random(count)
    phi[16:24] = 0.0  # on the real axis
    return r * np.exp(1j * phi)


@pytest.fixture(scope="module")
def complex_problem():
    """Complex data with no conjugate symmetry, in every mode |k| <= 24, M = 400."""
    return admissible_highmode_problem(K=24, M=400, seed=5, ratio=1.01, real=False)


@pytest.mark.parametrize("real_axis", [False, True])
def test_zero_data_tables_are_signed_zeros(real_axis):
    # the prefix zeros are +0.0 and the suffix ones the negated -0.0, in both
    # parts; with a real tangential trace alone, samples on the real axis have
    # an exactly zero part, whose sign the skipped zero terms could set
    grid = RadialGrid.geometric(1.0, 12.0, 400, ratio=1.01)
    K = 12
    if real_axis:
        boundary, far = BoundaryTrace.from_coeffs(K, {}, {1: 0.5, -1: 0.5}), FarField()
    else:
        boundary = BoundaryTrace.from_coeffs(K, {1: 0.3 - 0.1j, -1: 0.3 + 0.1j},
                                             {1: 0.2 + 0.4j, -1: 0.2 - 0.4j, 0: 0.5})
        far = FarField(0.7, -0.4)
    problem = DiskProblem(SpectralField.zeros(grid, K), SpectralField.zeros(grid, K),
                          boundary, far)
    skipped, whole = solve_both(problem)
    assert skipped.terms.span == (0, 0)
    prefix, suffix = skipped.terms.inner.table.view(float), skipped.terms.outer.table.view(float)
    assert np.all(prefix == 0.0) and not np.any(np.signbit(prefix))
    assert np.all(suffix == 0.0) and np.all(np.signbit(suffix))
    points = edge_points(grid.nodes, 0, 0, 2000)
    if real_axis:
        points = np.abs(points) * np.where(np.arange(points.size) % 2, 1.0, -1.0)
        assert np.any(skipped.sample(points).real == 0.0)
    assert_same_bytes(outputs(skipped, points), outputs(whole, points))


@pytest.mark.parametrize("lo, hi", [(0, 150), (250, 400), (0, 400), (200, 201), (0, 1),
                                    (399, 400), (120, 260)])
def test_support_edges_match_the_whole_grid(complex_problem, lo, hi):
    # data touching r0, data touching the last node, one column, and a middle band
    problem = supported(complex_problem, lo, hi)
    skipped, whole = solve_both(problem)
    assert skipped.terms.span == (lo, hi) and not skipped.terms.mirrored
    points = edge_points(problem.grid.nodes, lo, hi, 2000)
    assert 7 * problem.K * points.size >= quadrature._SIDE_BY_SIDE  # the sampler's groups
    assert_same_bytes(outputs(skipped, points), outputs(whole, points))


@pytest.mark.parametrize("suffix", [False, True])
def test_kernel_over_several_blocks_matches_the_whole_grid(suffix):
    # powers up to 200 cut the grid into blocks on both sides of the data;
    # a zero row and exact zero parts keep signed zeros in the running sums
    grid = RadialGrid.geometric(1.0, 12.0, 4000, ratio=1.0005)
    rng = np.random.default_rng(11)
    rows, lo, hi = 20, 1500, 2300
    f = np.zeros((rows, grid.nodes.size), dtype=complex)
    f[:, lo:hi] = rng.normal(size=(rows, hi - lo)) + 1j * rng.normal(size=(rows, hi - lo))
    f[3] = 0.0
    f.real[5, lo:hi:3] = 0.0
    powers = np.linspace(0.0, 200.0, rows)
    span = _support(np.any(f != 0, axis=0))
    table = _scaled(grid.nodes, f, powers, suffix, span).table
    want = _scaled(grid.nodes, f, powers, suffix, (0, grid.nodes.size)).table
    assert table.tobytes() == want.tobytes()


def test_underflowing_carry_matches_the_whole_grid(monkeypatch):
    # away from tiny data the rescaled carry underflows to signed zeros; a
    # -0.0 carry must meet the zero panels it would meet on the whole grid
    grid = RadialGrid.geometric(1.0, 1e3, 1501, ratio=1.005)
    rng = np.random.default_rng(3)
    f = np.zeros((12, grid.nodes.size), dtype=complex)
    # a carry whose parts are both negative underflows to -0.0: the rows of
    # negative data in the prefix, the positive ones in the suffix, whose
    # reversed panels have negative width
    f[:, 700:720] = 1e-290 * (rng.random((12, 20)) + 1j * rng.random((12, 20)))
    f[::2] *= -1.0
    powers = np.arange(1.0, 13.0) * 20.0
    found = []
    negative_zero = quadrature._negative_zero
    monkeypatch.setattr(quadrature, "_negative_zero",
                        lambda values: found.append(negative_zero(values)) or found[-1])
    for suffix in (False, True):
        found.clear()
        table = _scaled(grid.nodes, f, powers, suffix, (700, 720)).table
        assert any(found), suffix  # a -0.0 carry met zero panels
        want = _scaled(grid.nodes, f, powers, suffix, (0, grid.nodes.size)).table
        assert table.tobytes() == want.tobytes(), suffix


def test_crosscheck_sizes_match_the_whole_grid():
    # K = 12, M = 1501 on [1, 8], the crosscheck workload's sizes and support
    grid = RadialGrid.uniform(1.0, 8.0, 1501)
    rng = np.random.default_rng(21)
    for kind in range(3):
        far = FarField(0.4, -0.3) if kind == 2 else FarField()
        problem = random_admissible_problem(rng, grid, K=12, K_data=8, K_c=12,
                                            support=(1.8, 4.2), with_divergence=kind == 0,
                                            far_field=far)
        skipped, whole = solve_both(problem)
        lo, hi = skipped.terms.span
        assert 0 < lo and hi < len(grid)
        points = edge_points(grid.nodes, lo, hi, 1600)
        assert_same_bytes(outputs(skipped, points), outputs(whole, points))


def test_stream_path_matches_the_whole_grid(complex_problem):
    problem = supported(complex_problem, 60, 240)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        skipped = solve_stream(problem.vorticity, problem.far_field)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(disk, "_support", whole_grid)
            whole = solve_stream(problem.vorticity, problem.far_field)
    assert skipped.velocity.terms.span == (60, 240)
    points = edge_points(problem.grid.nodes, 60, 240, 2000)
    assert_same_bytes([skipped.psi, skipped.d_psi, skipped.velocity.sample(points)],
                      [whole.psi, whole.d_psi, whole.velocity.sample(points)])


def test_support_is_read_off_the_data_scan():
    grid = RadialGrid.uniform(1.0, 5.0, 41)
    coeffs = np.zeros((5, 41), dtype=complex)
    coeffs[0, 7] = 1e-300j  # mode -2, one column
    coeffs[3, 30] = -2.0
    top, mirrored = grids._scan(coeffs)
    assert not mirrored and _support(top) == (7, 31)
    field = SpectralField(grid, 2, coeffs)
    assert np.array_equal(field._scanned[0], top) and field._scanned[1] is mirrored
    assert _support(np.zeros(41)) == (0, 0)


def test_zero_stride_scan_reads_one_value():
    # a zero field is a zero-stride view: its scan is answered from its one
    # value, with the dense array's maxima and mirror flag, and no pass
    grid = RadialGrid.geometric(1.0, 12.0, 4000, ratio=1.0005)
    view = SpectralField.zeros(grid, 128).coeffs
    dense = np.zeros(view.shape, dtype=complex)
    tracemalloc.start()
    try:
        top, mirrored = grids._scan(view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want_top, want_mirrored = grids._scan(dense)
    assert peak < 64 * 1024
    assert np.array_equal(top, want_top) and top.dtype == want_top.dtype
    assert mirrored is want_mirrored is True
    for value in (3.0 - 0.0j, 1.0 + 2.0j):
        got = grids._scan(np.broadcast_to(value, (9, 41)))
        want = grids._scan(np.full((9, 41), value))
        assert np.array_equal(got[0], want[0]) and got[1] is want[1]
    # the scan keeps a NaN in its maxima; the solve names the field
    nan = np.broadcast_to(complex(np.nan, 0.0), (9, 41))
    assert np.all(np.isnan(grids._scan(nan)[0])) and grids._scan(nan)[1] is False
    small = RadialGrid.uniform(1.0, 5.0, 41)
    zero = SpectralField.zeros(small, 4)
    problem = DiskProblem(SpectralField._taking(small, 4, nan), zero, BoundaryTrace.zeros(4))
    with pytest.raises(ValueError, match="vorticity has non-finite coefficients"):
        solve_disk(problem)
