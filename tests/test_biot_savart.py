import configparser
import tracemalloc

import numpy as np
import pytest

from divcurl import biot_savart
from divcurl.biot_savart import (
    _BAND_PAIRS,
    _CHARGE_CELLS,
    _disk_charge,
    _field_bands,
    _mapped_charge,
    _volume_cells,
    biot_savart_disk,
    biot_savart_omega,
)
from divcurl.cli import _build_scalar_data
from divcurl.conformal import (
    _BAND_POINTS,
    ExteriorProblem,
    _weighted_sampler,
    identity_map,
    joukowski_map,
    pullback_problem,
)
from divcurl.disk import DiskProblem, FarField, solve_disk
from divcurl.grids import (BoundaryTrace, RadialGrid, SpectralField, analysis_angles, analyze,
                           equispaced_angles, smooth_bump)
from divcurl.presets import (
    ellipse_potential_velocity,
    modal_field,
    potential_slip_boundary_fn,
    potential_slip_trace,
    random_admissible_exterior_problem,
    random_admissible_problem,
)
from divcurl.quadrature import trapezoid_weights

from helpers import (cylinder_flow, longdouble_kernel_sum, reference_biot_savart_disk,
                     reference_kernel_sum)


def test_green_function_gradient_matches_kernel():
    # the oracle sums grad_x G(x, y) with G = ln|x - y| / (2 pi): check its
    # own kernel against a central difference of G
    x = 1.7 + 0.9j
    y = -0.4 + 0.3j
    h = 1e-6

    def green(z):
        return np.log(abs(z - y)) / (2.0 * np.pi)

    gx = (green(x + h) - green(x - h)) / (2 * h)
    gy = (green(x + 1j * h) - green(x - 1j * h)) / (2 * h)
    # a one-cell lattice: radius |y|, angle arg y, unit charge
    kernel = biot_savart._lattice_sum(np.array([x]), np.array([abs(y)]),
                                      np.array([np.angle(y)]), np.array([[1.0 + 0j]]))[0]
    kernel /= 2.0 * np.pi
    assert abs(gx - kernel.real) < 1e-9
    assert abs(gy - kernel.imag) < 1e-9


@pytest.fixture
def grid():
    return RadialGrid.uniform(1.0, 8.0, 1201)


def test_zero_data_returns_far_field_exactly(grid):
    w = SpectralField.zeros(grid, 3)
    problem = DiskProblem(w, w, BoundaryTrace.zeros(3), FarField(1.2, -0.7))
    v = biot_savart_disk(2.0 + 1.0j, problem, n_radial=50, n_angular=32)
    assert v == complex(1.2, -0.7)


def test_rejects_boundary_and_interior_points(grid):
    w = SpectralField.zeros(grid, 3)
    problem = DiskProblem(w, w, BoundaryTrace.zeros(3))
    with pytest.raises(ValueError, match="boundary circle"):
        biot_savart_disk(1.0 + 0j, problem)
    with pytest.raises(ValueError, match="inside"):
        biot_savart_disk(0.5 + 0j, problem)


def test_support_must_lie_within_grid_span(grid):
    w = SpectralField.zeros(grid, 3)
    disk_problem = DiskProblem(w, w, BoundaryTrace.zeros(3))
    ext = ExteriorProblem(identity_map(1.0), grid, 3, vorticity_fn=lambda p: np.ones(np.shape(p)))
    for oracle, problem in ((biot_savart_disk, disk_problem), (biot_savart_omega, ext)):
        for support in ((0.5, 4.2), (1.8, 20.0)):
            with pytest.raises(ValueError,
                               match="quadrature support must lie within the grid span"):
                oracle(2.0 + 0j, problem, support=support)
        # a reversed interval has negative cell areas: the sum would flip its sign
        with pytest.raises(ValueError, match="lo < hi"):
            oracle(2.0 + 0j, problem, support=(4.2, 1.8))


def test_blocked_sum_matches_reference_direct_sum(grid):
    rng = np.random.default_rng(6)
    problem = random_admissible_problem(rng, grid, K=6, K_data=4, K_c=6, support=(1.8, 4.2),
                                        with_divergence=True, boundary_modes=2,
                                        far_field=FarField(0.3, -0.2))
    # the kernel takes blocks of _BAND_PAIRS // n_angular points and bands of
    # radii: on 100 x 256 cells the 300 points span two blocks and many bands
    for n_radial, n_angular in ((24, 40), (100, 256)):
        points_per_block = min(300, _BAND_PAIRS // n_angular)
        radii_per_band = max(1, _BAND_PAIRS // (points_per_block * n_angular))
        if n_angular == 256:
            assert points_per_block < 300 and radii_per_band < n_radial
        kwargs = {"n_radial": n_radial, "n_angular": n_angular, "n_boundary": 64,
                  "support": (1.8, 4.2)}
        h = (4.2 - 1.8) / n_radial
        centre = (1.8 + 10.5 * h) * np.exp(2j * np.pi * 7 / n_angular)  # a cell centre
        pts = rng.uniform(1.05, 7.9, 300) * np.exp(2j * np.pi * rng.random(300))
        pts[17] = centre
        pts = pts.reshape(20, 15)
        for x in (pts, 5.5 + 0.5j):
            v = biot_savart_disk(x, problem, **kwargs)
            v_ref = reference_biot_savart_disk(x, problem, **kwargs)
            if np.ndim(x) == 0:
                assert type(v) is complex
            else:
                assert v.shape == (20, 15)
            assert np.max(np.abs(v - v_ref)) <= 1e-13 * np.max(np.abs(v_ref))


def _relative_errors(v, exact):
    return np.abs(v - exact) / np.abs(exact)


def test_lattice_sum_matches_a_longdouble_direct_sum():
    # iid complex charge on 400 x 256 cells over [1, 10]; the far cells take
    # the polar form, the cells within |x|/32 the Cartesian one
    rng = np.random.default_rng(11)
    radii = 1.0 + (np.arange(400) + 0.5) * 9.0 / 400
    angles = equispaced_angles(256)
    charge = rng.normal(size=(400, 256)) + 1j * rng.normal(size=(400, 256))
    sources = (radii[:, None] * np.exp(1j * angles)).ravel()

    def kernel(points):
        return biot_savart._lattice_sum(points, radii, angles, charge)

    def cartesian(points):
        return np.array([reference_kernel_sum(x, sources, charge.ravel()) for x in points])

    centres = sources[[37 * 256 + 11, 200 * 256 + 100]]
    directions = np.exp(1j * np.array([0.3, 2.0, 4.1]))
    pts = rng.uniform(1.05, 12.0, 16) * np.exp(2j * np.pi * rng.random(16))
    pts = pts[[np.min(np.abs(x - sources)) >= 1e-3 for x in pts]]
    assert pts.size >= 10
    pts = np.concatenate([pts, (centres[:, None] + 1e-3 * directions).ravel()])
    assert np.max(_relative_errors(kernel(pts), longdouble_kernel_sum(pts, radii, angles,
                                                                      charge))) <= 1e-12
    # nearer to a cell centre both forms lose what the cell's rounded position costs
    for offset in (1e-6, 1e-9):
        pts = (centres[:, None] + offset * directions).ravel()
        exact = longdouble_kernel_sum(pts, radii, angles, charge)
        assert np.max(_relative_errors(kernel(pts), exact)) \
            <= 2.0 * np.max(_relative_errors(cartesian(pts), exact))
    # a point on a cell centre leaves that cell out, and only that one
    assert np.max(_relative_errors(kernel(centres), longdouble_kernel_sum(
        centres, radii, angles, charge))) <= 1e-12


def test_lattice_sum_at_the_crosscheck_probes():
    # the criterion-3 lattice (160 x 256 cells on (1.8, 4.2)) with iid charge,
    # at probes drawn as the crosscheck benchmark draws them, off the support
    rng = np.random.default_rng(12)
    radii = 1.8 + (np.arange(160) + 0.5) * 2.4 / 160
    angles = equispaced_angles(256)
    charge = rng.normal(size=(160, 256)) + 1j * rng.normal(size=(160, 256))
    probes = np.concatenate([rng.uniform(1.12, 1.62, 20), rng.uniform(4.45, 7.2, 30)])
    probes = probes * np.exp(2j * np.pi * rng.random(50))
    v = biot_savart._lattice_sum(probes, radii, angles, charge)
    exact = longdouble_kernel_sum(probes, radii, angles, charge)
    assert np.max(_relative_errors(v, exact)) <= 5e-14


def _gaussian_patch(grid, K, m):
    """The CLI gaussian_patch callable on the map m, as `divcurl` builds it."""
    cfg = configparser.ConfigParser()
    cfg.read_dict({"domain": {"kind": "disk" if m.label == "identity" else "joukowski"},
                   "vorticity": {"preset": "gaussian_patch", "x0": "2.1", "y0": "-1.3",
                                 "sigma": "0.6"}})
    return _build_scalar_data(cfg, "vorticity", grid, K, m, [])


@pytest.mark.parametrize("m", [identity_map(1.0), joukowski_map(0.5, 1.0)], ids=repr)
def test_separable_lattice_is_bit_identical_to_the_meshgrid(grid, m):
    # the oracle and the pullback call pointwise data on (radius column, angle
    # row); that must give exactly the values of the full meshgrid lattice
    K = 6
    _, modal_fn = modal_field(grid, K, {0: lambda s: smooth_bump(s, 1.8, 4.2) + 0j,
                                        2: lambda s: (0.3 - 0.8j) * smooth_bump(s, 2.0, 5.0),
                                        -2: lambda s: (0.3 + 0.8j) * smooth_bump(s, 2.0, 5.0)})
    field, patch_fn = _gaussian_patch(grid, K, m)
    radii, angles, area = _volume_cells(grid, (1.5, 6.5), 70, 96)
    rr, pp = np.meshgrid(radii.ravel(), angles.ravel(), indexing="ij")
    for fn in (modal_fn, patch_fn):
        ((_, values),) = _field_bands("vorticity", field, fn, radii, angles, radii.size)
        assert values.shape == rr.shape
        assert np.array_equal(values, np.asarray(fn(rr, pp), dtype=complex))
    assert np.array_equal(np.broadcast_to(area, rr.shape),
                          rr * (6.5 - 1.5) / 70 * (2.0 * np.pi / 96))

    def physical(p):
        return np.exp(-np.abs(p - (2.1 - 1.3j)) ** 2 / 0.72) * (1.0 + 0.2j * p.real)

    ext = ExteriorProblem(m, grid, K, vorticity_fn=physical, divergence_fn=physical)
    pulled = pullback_problem(ext)
    rr, pp = np.meshgrid(grid.nodes, analysis_angles(K), indexing="ij")
    # both lattices are larger than one band of the sampler (19 and 2 bands)
    assert min(rr.size, radii.size * angles.size) > _BAND_POINTS
    expected = analyze(grid, _weighted_sampler(m, physical)(rr, pp), K).coeffs
    assert np.array_equal(pulled.vorticity.coeffs, expected)
    assert np.array_equal(pulled.divergence.coeffs, expected)


@pytest.mark.parametrize("m", [identity_map(1.0), joukowski_map(0.5, 1.0)], ids=repr)
def test_banded_mapped_charge_equals_the_whole_lattice_charge(grid, m):
    # the criterion-3 lattice (160 x 256 cells) takes ten bands of 16 radii
    def physical(p):
        return np.exp(-np.abs(p - (2.1 - 1.3j)) ** 2 / 0.72) * (1.0 + 0.2j * p.real)

    ext = ExteriorProblem(m, grid, 6, vorticity_fn=physical, divergence_fn=physical)
    radii, angles, area = _volume_cells(grid, (1.8, 4.2), 160, 256)
    assert radii.size >= 2 * (_CHARGE_CELLS // angles.size)
    cells = radii * np.exp(1j * angles)
    jac = np.abs(m.d_inverse(cells)) ** 2
    y = m.inverse(cells)
    whole = np.zeros(cells.shape, dtype=complex)
    whole += 1.0 * (np.asarray(physical(y), dtype=complex) * jac)
    whole += 1j * (np.asarray(physical(y), dtype=complex) * jac)
    whole = whole * area
    assert _mapped_charge(ext, radii, angles, area).tobytes() == whole.tobytes()


@pytest.mark.parametrize("callables", [True, False], ids=["callables", "interpolated"])
def test_banded_disk_charge_equals_the_whole_lattice_charge(grid, callables):
    # the criterion-3 lattice takes ten bands of 16 radii, for the closed
    # forms and for the interpolation fallback alike
    problem = random_admissible_problem(np.random.default_rng(3), grid, K=6, K_data=4, K_c=6,
                                        support=(1.8, 4.2), with_divergence=True)
    if not callables:
        problem = DiskProblem(problem.vorticity, problem.divergence, problem.boundary)
    radii, angles, area = _volume_cells(grid, (1.8, 4.2), 160, 256)
    assert radii.size >= 2 * (_CHARGE_CELLS // angles.size)
    whole = np.zeros((radii.size, angles.size), dtype=complex)
    for unit, field, fn in ((1.0, problem.divergence, problem.divergence_fn),
                            (1j, problem.vorticity, problem.vorticity_fn)):
        ((_, values),) = _field_bands("data", field, fn, radii, angles, radii.size)
        whole += unit * values
    whole = whole * area
    assert _disk_charge(problem, radii, angles, area).tobytes() == whole.tobytes()


def test_disk_oracle_forms_its_charge_in_bands():
    # criterion-3 size (160 x 256 cells, 50 probes): whole-lattice sources
    # and charge temporaries peaked at 2.54 MB
    problem = random_admissible_problem(np.random.default_rng(5),
                                        RadialGrid.uniform(1.0, 8.0, 1501), K=12, K_data=8,
                                        K_c=12, support=(1.8, 4.2), with_divergence=True)
    rng = np.random.default_rng(1)
    z = rng.uniform(1.3, 7.0, 50) * np.exp(2j * np.pi * rng.random(50))
    kwargs = {"n_radial": 160, "n_angular": 256, "support": (1.8, 4.2)}
    expected = biot_savart_disk(z, problem, **kwargs)
    tracemalloc.start()
    try:
        v = biot_savart_disk(z, problem, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(v, expected)
    assert peak <= 2.0e6


def test_mapped_oracle_forms_its_charge_in_bands():
    # criterion-3 size (160 x 256 cells, 50 probes) on a Joukowski crosscheck
    # problem: bands of _BLOCK_PAIRS cells peaked at 4.7 MB
    m = joukowski_map(0.5, 1.0)
    ext = random_admissible_exterior_problem(np.random.default_rng(5), m,
                                             RadialGrid.uniform(1.0, 8.0, 1501), 12,
                                             K_data=8, K_c=12, support=(1.8, 4.2))
    rng = np.random.default_rng(1)
    p = m.inverse(rng.uniform(1.3, 7.0, 50) * np.exp(2j * np.pi * rng.random(50)))
    kwargs = {"n_radial": 160, "n_angular": 256, "support": (1.8, 4.2)}
    expected = biot_savart_omega(p, ext, **kwargs)
    tracemalloc.start()
    try:
        v = biot_savart_omega(p, ext, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(v, expected)
    assert peak <= 3.2e6


def test_mapped_oracle_peaks_near_the_disk_oracle():
    # criterion-3 size: with the disk-plane cells formed per band, the mapped
    # oracle holds no whole-lattice array the disk oracle does not (the
    # whole-lattice cells made it peak at 2.58 against 1.67 MB)
    grid = RadialGrid.uniform(1.0, 8.0, 1501)
    m = joukowski_map(0.5, 1.0)
    ext = random_admissible_exterior_problem(np.random.default_rng(5), m, grid, 12,
                                             K_data=8, K_c=12, support=(1.8, 4.2))
    problem = random_admissible_problem(np.random.default_rng(5), grid, K=12, K_data=8,
                                        K_c=12, support=(1.8, 4.2), with_divergence=True)
    rng = np.random.default_rng(1)
    z = rng.uniform(1.3, 7.0, 50) * np.exp(2j * np.pi * rng.random(50))
    kwargs = {"n_radial": 160, "n_angular": 256, "support": (1.8, 4.2)}
    peaks = []
    for oracle, case, points in ((biot_savart_disk, problem, z),
                                 (biot_savart_omega, ext, m.inverse(z))):
        oracle(points, case, **kwargs)  # warm: first-call allocations stay out
        tracemalloc.start()
        try:
            oracle(points, case, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 0.5e6, peaks


def _poisoned(bad, shape_fn):
    """Callable that is NaN/inf at one lattice point, or has a shape the lattice
    cannot take, as bad says."""
    def fn(*args):
        values = shape_fn(*args)
        if bad == "shape":
            return values.ravel()[:7]
        values = np.array(values, dtype=complex)
        values.flat[values.size // 2] = np.nan if bad == "nan" else np.inf
        return values
    return fn


@pytest.mark.parametrize("bad", ["nan", "inf", "shape"])
@pytest.mark.parametrize("name", ["vorticity", "divergence"])
def test_oracles_reject_bad_data_naming_the_field(grid, name, bad):
    zeros = SpectralField.zeros(grid, 3)
    disk_fn = _poisoned(bad, lambda r, phi: smooth_bump(r, 1.5, 2.5) * np.cos(phi))
    disk_problem = DiskProblem(zeros, zeros, BoundaryTrace.zeros(3),
                               **{f"{name}_fn": disk_fn})
    omega_fn = _poisoned(bad, lambda p: smooth_bump(np.abs(p), 1.5, 2.5) + 0j * p)
    omega_problem = ExteriorProblem(joukowski_map(0.5, 1.0), grid, 3,
                                    **{f"{name}_fn": omega_fn})
    # 2048 x 16 cells: both oracles meet the data in eight bands of radii,
    # and their messages still name the whole lattice
    assert 2048 >= 2 * (_CHARGE_CELLS // 16)
    message = r"does not broadcast to the \(2048, 16\) oracle lattice" if bad == "shape" \
        else "not finite"
    for oracle, problem in ((biot_savart_disk, disk_problem),
                            (biot_savart_omega, omega_problem)):
        with pytest.raises(ValueError, match=f"{name} data .*{message}"):
            oracle(3.0 + 0j, problem, n_radial=2048, n_angular=16, support=(1.4, 2.6))


def test_interpolation_fallback_matches_reference(grid):
    # complex, non-conjugate-symmetric modes with no callable: the oracle
    # interpolates at the lattice radii and synthesises once per angle
    rng = np.random.default_rng(7)
    bump = smooth_bump(grid.nodes, 1.6, 5.0)
    modes = {k: (rng.normal() + 1j * rng.normal()) * bump * (1.0 + 0.1 * k * grid.nodes)
             for k in range(-4, 5)}
    w = SpectralField.from_modes(grid, 4, modes)
    rho = SpectralField.from_modes(grid, 4, {2: 0.5j * bump, -1: (0.3 - 0.2j) * bump})
    problem = DiskProblem(w, rho, BoundaryTrace.zeros(4))
    kwargs = {"n_radial": 37, "n_angular": 29, "n_boundary": 16, "support": (1.5, 5.5)}
    pts = np.array([1.2 * np.exp(0.4j), 6.0 * np.exp(-1.7j), 3.1 * np.exp(2.2j)])
    v = biot_savart_disk(pts, problem, **kwargs)
    v_ref = reference_biot_savart_disk(pts, problem, **kwargs)
    assert np.max(np.abs(v - v_ref)) <= 1e-13 * np.max(np.abs(v_ref))


def test_localized_patch_far_field_circulation(grid):
    # a single vorticity patch seen from afar is a point vortex: the leading
    # field is circulation/(2 pi |x|), azimuthal
    bump = smooth_bump(grid.nodes, 1.5, 2.5)
    w = SpectralField.from_modes(grid, 2, {0: bump + 0j})
    rho = SpectralField.zeros(grid, 2)
    problem = DiskProblem(w, rho, BoundaryTrace.zeros(2),
                          vorticity_fn=lambda r, phi: smooth_bump(r, 1.5, 2.5)
                          * np.ones_like(np.asarray(phi, dtype=float)))
    circulation = 2.0 * np.pi * (trapezoid_weights(grid.nodes) @ (grid.nodes * bump))
    far_point = 250.0 * np.exp(0.7j)  # |x| = 100 * support radius
    v = biot_savart_disk(far_point, problem, n_radial=400, n_angular=128,
                         support=(1.5, 2.5))
    expected = circulation / (2.0 * np.pi * abs(far_point)) * 1j * far_point / abs(far_point)
    assert abs(v - expected) < 0.01 * abs(expected)


def test_matches_solver_on_admissible_data(grid):
    rng = np.random.default_rng(1)
    problem = random_admissible_problem(rng, grid, K=8, K_data=6, K_c=8,
                                        support=(1.8, 4.2), with_divergence=True)
    solution = solve_disk(problem)
    pts = np.array([1.3 * np.exp(0.3j), 5.5 * np.exp(2.0j), 6.8 * np.exp(-2.5j),
                    1.2 * np.exp(1.1j), 4.9 * np.exp(-0.8j)])
    v_ref = solution.sample(pts)
    v_orc = biot_savart_disk(pts, problem, n_radial=160, n_angular=256, support=(1.8, 4.2))
    scale = np.max(np.abs(v_ref))
    assert np.max(np.abs(v_orc - v_ref)) < 1e-6 * scale


def test_matches_solver_with_boundary_layers(grid):
    # potential flow: everything is carried by the single layers
    far = FarField(1.0, 0.0)
    problem = DiskProblem(SpectralField.zeros(grid, 3), SpectralField.zeros(grid, 3),
                          potential_slip_trace(3, far), far)
    pts = np.array([1.6 * np.exp(0.5j), 2.5 * np.exp(-1.0j), 4.0 * np.exp(2.8j)])
    v_orc = biot_savart_disk(pts, problem, n_radial=20, n_angular=16, n_boundary=256)
    v_exact = cylinder_flow(pts)
    assert np.max(np.abs(v_orc - v_exact)) < 1e-12


def test_agreement_improves_with_refinement(grid):
    rng = np.random.default_rng(2)
    problem = random_admissible_problem(rng, grid, K=6, K_data=4, K_c=6,
                                        support=(1.8, 4.2))
    solution = solve_disk(problem)
    pts = np.array([1.25 * np.exp(0.9j), 5.1 * np.exp(-2.2j)])
    v_ref = solution.sample(pts)
    errors = []
    for n_r, n_a in ((20, 32), (40, 64), (80, 128)):
        v = biot_savart_disk(pts, problem, n_radial=n_r, n_angular=n_a, support=(1.8, 4.2))
        errors.append(np.max(np.abs(v - v_ref)))
    assert errors[1] < errors[0] and errors[2] < errors[1]
    # observed order at least one (far better here: the integrand is smooth)
    assert np.log2(errors[0] / errors[2]) / 2.0 >= 1.0


def test_interpolated_field_fallback_without_callable(grid):
    # strip the closed-form callable: the oracle falls back to radial
    # interpolation of the mode profiles, accurate to the grid resolution
    rng = np.random.default_rng(9)
    problem = random_admissible_problem(rng, grid, K=6, K_data=4, K_c=6,
                                        support=(1.8, 4.2))
    stripped = DiskProblem(problem.vorticity, problem.divergence, problem.boundary,
                           problem.far_field)
    solution = solve_disk(problem)
    pts = np.array([1.3 * np.exp(0.9j), 5.4 * np.exp(-0.4j)])
    v_ref = solution.sample(pts)
    v = biot_savart_disk(pts, stripped, n_radial=300, n_angular=128, support=(1.8, 4.2))
    assert np.max(np.abs(v - v_ref)) < 1e-5


def test_zero_field_without_callable_is_not_evaluated(grid, monkeypatch):
    # zero divergence with no callable adds nothing to the charge, so the
    # oracle skips it and still equals the reference sum
    rng = np.random.default_rng(8)
    problem = random_admissible_problem(rng, grid, K=6, K_data=4, K_c=6, support=(1.8, 4.2))
    assert problem.divergence_fn is None and not problem.divergence.coeffs.any()
    evaluated = []

    def recording(name, *args):
        evaluated.append(name)
        return _field_bands(name, *args)

    monkeypatch.setattr(biot_savart, "_field_bands", recording)
    kwargs = {"n_radial": 24, "n_angular": 40, "n_boundary": 64, "support": (1.8, 4.2)}
    pts = np.array([1.3 * np.exp(0.9j), 5.4 * np.exp(-0.4j)])
    v = biot_savart_disk(pts, problem, **kwargs)
    assert evaluated == ["vorticity"]
    v_ref = reference_biot_savart_disk(pts, problem, **kwargs)
    assert np.max(np.abs(v - v_ref)) <= 1e-13 * np.max(np.abs(v_ref))


def test_omega_identity_reduces_to_disk(grid):
    rng = np.random.default_rng(4)
    disk_problem = random_admissible_problem(rng, grid, K=6, K_data=4, K_c=6,
                                             support=(1.8, 4.2))
    w_fn = disk_problem.vorticity_fn
    ext = ExteriorProblem(identity_map(1.0), grid, 6,
                          vorticity_fn=lambda p: w_fn(np.abs(p), np.angle(p)))
    pts = np.array([1.3 * np.exp(0.2j), 5.0 * np.exp(-1.3j)])
    v_disk = biot_savart_disk(pts, disk_problem, n_radial=100, n_angular=128,
                              support=(1.8, 4.2))
    v_omega = biot_savart_omega(pts, ext, n_radial=100, n_angular=128, support=(1.8, 4.2))
    assert np.max(np.abs(v_disk - v_omega)) < 1e-14


def test_omega_ellipse_potential_flow():
    c, r0 = 0.5, 1.0
    m = joukowski_map(c, r0)
    far = FarField(1.0, 0.0)
    grid = RadialGrid.uniform(r0, 8.0, 301)
    ext = ExteriorProblem(m, grid, 4,
                          boundary_fn=potential_slip_boundary_fn(m, far), far_field=far)
    pts = m.inverse(np.array([1.7 * np.exp(0.6j), 2.5 * np.exp(-2.0j), 4.0 * np.exp(1.2j)]))
    v_orc = biot_savart_omega(pts, ext, n_radial=10, n_angular=8, n_boundary=512)
    v_exact = ellipse_potential_velocity(pts, c, r0, far)
    assert np.max(np.abs(v_orc - v_exact)) < 1e-10 * np.max(np.abs(v_exact))


def test_omega_matches_solve_exterior():
    c, r0 = 0.5, 1.0
    m = joukowski_map(c, r0)
    grid = RadialGrid.uniform(r0, 8.0, 1501)
    rng = np.random.default_rng(5)
    ext = random_admissible_exterior_problem(rng, m, grid, K=8, K_data=5, K_c=8,
                                             support=(1.7, 4.0))
    from divcurl.conformal import solve_exterior

    solution = solve_exterior(ext)
    zs = np.array([1.3 * np.exp(0.4j), 5.2 * np.exp(2.0j), 6.0 * np.exp(-1.0j)])
    pts = m.inverse(zs)
    v_ref = solution.sample(pts)
    v_orc = biot_savart_omega(pts, ext, n_radial=160, n_angular=256, support=(1.7, 4.0))
    assert np.max(np.abs(v_orc - v_ref)) < 1e-5 * np.max(np.abs(v_ref))


@pytest.mark.parametrize("key", ["n_radial", "n_angular", "n_boundary"])
@pytest.mark.parametrize("count", [0, -3])
def test_oracles_refuse_an_empty_lattice(grid, key, count):
    # n_radial <= 0 summed nothing and returned 0j; the other counts divided by zero
    w = SpectralField.zeros(grid, 3)
    disk_problem = DiskProblem(w, w, BoundaryTrace.zeros(3))
    ext = ExteriorProblem(identity_map(1.0), grid, 3, vorticity_fn=lambda p: np.ones(np.shape(p)))
    for oracle, problem in ((biot_savart_disk, disk_problem), (biot_savart_omega, ext)):
        with pytest.raises(ValueError, match=key):
            oracle(2.0 + 0j, problem, **{key: count})
