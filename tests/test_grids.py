import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcurl.grids import (
    BoundaryTrace,
    RadialGrid,
    SpectralField,
    _dft_coefficients,
    analyze,
    equispaced_angles,
    smooth_bump,
    synthesize,
    synthesize_boundary,
)

from helpers import mirror_defect


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(np.linspace(1, 2, 5))  # too few nodes
    with pytest.raises(ValueError):
        RadialGrid(np.linspace(0.0, 2, 20))  # r0 must be positive
    with pytest.raises(ValueError):
        RadialGrid(np.ones(20))  # not increasing
    with pytest.raises(ValueError):
        RadialGrid.uniform(2.0, 1.0, 20)
    with pytest.raises(ValueError, match=r"ratio 2\.0 overflows over 1999 panels"):
        RadialGrid.geometric(1.0, 12.0, 2000, ratio=2.0)  # ratio**(count - 1) overflows


def test_grid_rejects_non_finite_nodes():
    # every comparison with NaN is False, so the order checks alone pass these
    nodes = np.linspace(1.0, 8.0, 40)
    cases = [lambda: RadialGrid(np.append(nodes, np.inf)),
             lambda: RadialGrid(np.append(nodes, np.nan)),
             lambda: RadialGrid(np.insert(nodes, 0, np.nan)),
             lambda: RadialGrid.uniform(1.0, np.nan, 20),
             lambda: RadialGrid.geometric(1.0, np.nan, 20)]
    for build in cases:
        with pytest.raises(ValueError, match="radial nodes must be finite"):
            build()


def test_grid_properties():
    g = RadialGrid.uniform(0.5, 4.0, 12)
    assert g.r0 == 0.5 and g.rmax == 4.0 and len(g) == 12
    assert g.nodes.flags.writeable is False


def test_geometric_grading():
    g = RadialGrid.geometric(1.0, 9.0, 41, ratio=1.05)
    widths = np.diff(g.nodes)
    assert np.allclose(widths[1:] / widths[:-1], 1.05)
    assert g.nodes[0] == 1.0 and g.nodes[-1] == 9.0
    # ratio 1 falls back to uniform spacing
    u = RadialGrid.geometric(1.0, 9.0, 41, ratio=1.0)
    assert np.allclose(np.diff(u.nodes), np.diff(u.nodes)[0])


@pytest.fixture
def grid():
    return RadialGrid.uniform(1.0, 5.0, 33)


def test_analyze_constant_field(grid):
    K = 5
    angles = equispaced_angles(2 * K + 1)
    samples = np.ones((len(grid), angles.size), dtype=complex)
    field = analyze(grid, samples, K)
    assert np.allclose(field.coeff(0), 1.0)
    for k in range(1, K + 1):
        assert np.max(np.abs(field.coeff(k))) < 1e-14
        assert np.max(np.abs(field.coeff(-k))) < 1e-14


def test_analyze_cosine(grid):
    K = 3
    angles = equispaced_angles(16)
    samples = np.tile(np.cos(angles), (len(grid), 1))
    field = analyze(grid, samples, K)
    assert np.allclose(field.coeff(1), 0.5, atol=1e-14)
    assert np.allclose(field.coeff(-1), 0.5, atol=1e-14)
    assert np.max(np.abs(field.coeff(0))) < 1e-14
    assert np.max(np.abs(field.coeff(2))) < 1e-14


def test_analyze_rejects_aliasing(grid):
    samples = np.ones((len(grid), 8))
    with pytest.raises(ValueError, match="aliasing"):
        analyze(grid, samples, K=4)


def test_round_trip_band_limited(grid):
    rng = np.random.default_rng(0)
    K = 7
    coeffs = rng.normal(size=(2 * K + 1, len(grid))) + 1j * rng.normal(size=(2 * K + 1, len(grid)))
    field = SpectralField(grid, K, coeffs)
    angles = equispaced_angles(2 * K + 1)
    back = analyze(grid, synthesize(field, angles), K)
    scale = np.max(np.abs(coeffs))
    assert np.max(np.abs(back.coeffs - coeffs)) < 1e-12 * scale


def test_synthesize_single_modes(grid):
    K = 2
    angles = equispaced_angles(10)
    dc_only = SpectralField.from_modes(grid, K, {0: np.ones(len(grid))})
    assert np.allclose(synthesize(dc_only, angles), 1.0)
    pair = SpectralField.from_modes(
        grid, K, {1: np.ones(len(grid)), -1: np.ones(len(grid))}
    )
    assert np.allclose(synthesize(pair, angles), 2.0 * np.cos(angles)[None, :], atol=1e-14)


def test_conjugate_symmetry_of_real_samples(grid):
    rng = np.random.default_rng(3)
    K = 6
    angles = equispaced_angles(32)
    real_field = SpectralField(
        grid, K, rng.normal(size=(2 * K + 1, len(grid))) + 0j
    )
    # make physically real samples, then re-analyze
    sym = real_field.add_modes(
        {-k: np.conj(real_field.coeff(k)) - real_field.coeff(-k) for k in range(1, K + 1)}
    )
    samples = synthesize(sym, angles)
    assert np.max(np.abs(samples.imag)) < 1e-12
    back = analyze(grid, samples.real + 0j, K)
    # the real-input transform mirrors the modes exactly
    assert mirror_defect(back.coeffs) == 0.0
    assert np.array_equal(analyze(grid, samples.real, K).coeffs, back.coeffs)
    assert np.max(np.abs(back.coeffs - sym.coeffs)) < 1e-13
    trace = BoundaryTrace.from_samples(samples.real[0], samples.real[1] + 0j, K)
    assert np.array_equal(trace.g_r, back.coeffs[:, 0]) and np.array_equal(trace.g_phi, back.coeffs[:, 1])


def test_spectral_field_accessors(grid):
    field = SpectralField.zeros(grid, 3)
    with pytest.raises(ValueError):
        field.coeff(4)
    with pytest.raises(ValueError):
        SpectralField(grid, 2, np.zeros((4, len(grid))))
    bumped = field.add_modes({1: np.ones(len(grid))})
    assert np.allclose(bumped.coeff(1), 1.0)
    assert np.max(np.abs(field.coeff(1))) == 0.0  # original untouched


def test_constructed_fields_own_one_read_only_copy():
    # each field copies the caller's array once, owns it and freezes it
    grid_nodes = np.linspace(1.0, 4.0, 40)
    coeffs = np.arange(7 * 40, dtype=float).reshape(7, 40) * (1.0 - 0.5j)
    g = np.arange(7) * (0.25 + 1j)
    made = [(RadialGrid(grid_nodes).nodes, grid_nodes)]
    field = SpectralField(RadialGrid(grid_nodes), 3, coeffs)
    trace = BoundaryTrace(3, g, -g)
    made += [(field.coeffs, coeffs), (trace.g_r, g), (trace.g_phi, -g)]
    for held, given in made:
        assert not np.shares_memory(held, given)
        assert held.base is None and not held.flags.writeable
        assert held.tobytes() == np.asarray(given, dtype=held.dtype).tobytes()
    coeffs[0, 0] = 99.0
    assert field.coeffs[0, 0] == 0.0


def test_a_field_is_built_with_one_copy_of_its_coefficients():
    # tracemalloc (numpy reports its buffers to it): the peak while building
    # holds the caller's array and one copy, not a second copy on top
    import tracemalloc

    grid = RadialGrid.uniform(1.0, 12.0, 4000)
    coeffs = np.ones((257, 4000), dtype=complex)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        field = SpectralField(grid, 128, coeffs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert coeffs.nbytes <= peak < 1.5 * coeffs.nbytes, peak
    assert field.coeffs.tobytes() == coeffs.tobytes()


def test_a_zero_field_holds_no_memory_per_node():
    # one shared read-only zero behind a zero-stride view: a materialised
    # (257, 4000) complex zero field retained 16.1 MB and peaked at 32.2 MB
    import tracemalloc

    grid = RadialGrid.uniform(1.0, 12.0, 4000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        field = SpectralField.zeros(grid, 128)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current - base < 64 * 1024 and peak - base < 1 << 20, (current - base, peak - base)
    assert field.coeffs.shape == (257, 4000) and not field.coeffs.flags.writeable
    assert field.coeffs.dtype == complex and not np.any(field.coeffs)
    with pytest.raises(ValueError):
        field.coeffs[0, 0] = 1.0
    with pytest.raises(ValueError, match="K must be nonnegative"):
        SpectralField.zeros(grid, -1)


def test_built_fields_do_not_share_the_arrays_they_were_given():
    # from_modes and add_modes hold the array they build, not the caller's
    grid = RadialGrid.uniform(1.0, 4.0, 40)
    profile = np.linspace(0.0, 1.0, 40) * (1.0 + 2.0j)
    field = SpectralField.from_modes(grid, 2, {1: profile})
    delta = np.ones(40, dtype=complex)
    added = field.add_modes({-2: delta, 1: delta})
    before = field.coeffs.tobytes(), added.coeffs.tobytes()
    profile[:] = 7.0
    delta[:] = 7.0
    assert (field.coeffs.tobytes(), added.coeffs.tobytes()) == before
    for held in (field.coeffs, added.coeffs):
        assert not held.flags.writeable and held.flags.c_contiguous
    zero = SpectralField.zeros(grid, 2).add_modes({0: delta})
    assert zero.coeffs.flags.owndata and zero.coeffs.flags.writeable is False
    assert np.array_equal(zero.coeffs[2], delta) and not np.any(np.delete(zero.coeffs, 2, 0))


def test_analyze_holds_c_ordered_rows_of_one_copy():
    grid = RadialGrid.uniform(1.0, 4.0, 40)
    rng = np.random.default_rng(2)
    for samples in (rng.normal(size=(40, 64)), rng.normal(size=(40, 64)) * (1.0 - 1.0j)):
        field = analyze(grid, samples, 9)
        assert field.coeffs.flags.c_contiguous and not field.coeffs.flags.writeable
        assert field.coeffs.strides == (16 * 40, 16)
        assert np.array_equal(field.coeffs, _dft_by_copies(samples, 9))


def _dft_by_copies(samples, K):
    """_dft_coefficients as a chain of whole-array copies: divide, select,
    concatenate, and lay out C-ordered (mode rows contiguous)."""
    n = samples.shape[-1]
    if np.iscomplexobj(samples) and np.any(samples.imag):
        transform = np.fft.fft(samples, axis=-1) / n
        rows = np.moveaxis(transform[..., np.arange(-K, K + 1) % n], -1, 0)
    else:
        half = np.moveaxis(np.fft.rfft(samples.real, axis=-1)[..., : K + 1] / n, -1, 0)
        rows = np.concatenate((np.conj(half[:0:-1]), half))
    return np.ascontiguousarray(rows)


@pytest.mark.parametrize("shape, K", [((1501, 64), 12), ((1, 64), 12), ((7, 9), 4),
                                      ((3, 128), 31)])
def test_dft_coefficients_are_bit_identical_to_the_copying_formula(shape, K):
    rng = np.random.default_rng(shape[0] + K)
    real = rng.normal(size=shape)
    for samples in (real, real + 0j, real + 1j * rng.normal(size=shape)):
        got, expected = _dft_coefficients(samples, K), _dft_by_copies(samples, K)
        assert got.shape == expected.shape == (2 * K + 1, shape[0])
        # the same memory layout too: row sums over a field follow its strides
        layout = [(a.flags.c_contiguous, a.flags.f_contiguous) for a in (got, expected)]
        assert layout[0] == layout[1] and got.tobytes() == expected.tobytes()


def test_boundary_trace_round_trip():
    K = 4
    trace = BoundaryTrace.from_coeffs(K, radial={2: 1.0 - 0.5j, -2: 1.0 + 0.5j},
                                      tangential={1: 2j, -1: -2j})
    angles = equispaced_angles(2 * K + 1)
    g_r, g_phi = synthesize_boundary(trace, angles)
    back = BoundaryTrace.from_samples(g_r, g_phi, K)
    assert np.allclose(back.g_r, trace.g_r, atol=1e-14)
    assert np.allclose(back.g_phi, trace.g_phi, atol=1e-14)
    padded = trace.padded(7)
    assert padded.coeff_r(2) == trace.coeff_r(2)
    assert padded.coeff_phi(7) == 0.0


def test_from_coeffs_rejects_modes_outside_the_band():
    # -4 would wrap to mode 1, 3 past the end of the array
    for k in (-4, 3):
        for side in ("radial", "tangential"):
            with pytest.raises(ValueError, match=rf"mode {k} outside \|k\| <= 2"):
                BoundaryTrace.from_coeffs(2, **{side: {k: 1.0}})


@settings(max_examples=30)
@given(lo=st.floats(0.5, 3.0), width=st.floats(0.1, 2.0))
def test_smooth_bump_support(lo, width):
    hi = lo + width
    s = np.linspace(lo - 1.0, hi + 1.0, 301)
    b = smooth_bump(s, lo, hi)
    outside = (s <= lo) | (s >= hi)
    assert np.all(b[outside] == 0.0)
    assert np.all(b >= 0.0)
    assert abs(smooth_bump(np.array([0.5 * (lo + hi)]), lo, hi)[0] - 1.0) < 1e-12


def test_geometric_grading_of_one_node_is_refused():
    # it divided by ratio**0 - 1 = 0
    with pytest.raises(ValueError, match="9 radial nodes"):
        RadialGrid.geometric(1.0, 2.0, 1, ratio=1.1)
