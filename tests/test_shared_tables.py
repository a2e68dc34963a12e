"""Kernel tables of one integrand are shared while a solution holds them.

solve_stream of no-slip data is the direct solution of the slip-completed
problem, so next to a live solve_disk of the same field it reads that
solve's prefix and suffix tables (disk._kernels) instead of building them
again; a cold moment_report reads a live suffix table.  Sharing changes no
bit of any result, keeps no table alive after its last holder is released,
and never applies to a field of other memory, other rows or an integrand
combined from w and rho.
"""

import gc
import pathlib
import tracemalloc
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from divcurl import disk
from divcurl.cli import EXIT_OK, main
from divcurl.disk import DiskProblem, solve_disk
from divcurl.grids import BoundaryTrace, SpectralField
from divcurl.moments import moment_report
from divcurl.stream import neumann_defect, solve_stream

from test_highmode import admissible_highmode_problem

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def no_slip():
    """Real vorticity at K = 128, M = 4000 with rho = 0, g = 0, and 8192 sample points."""
    data = admissible_highmode_problem(K=128, M=4000, seed=5, ratio=1.0005, real=True)
    zeros = SpectralField.zeros(data.grid, data.K)
    problem = DiskProblem(data.vorticity, zeros, BoundaryTrace.zeros(data.K), data.far_field)
    rng = np.random.default_rng(8)
    points = (1.0 + 11.5 * rng.random(8192)) * np.exp(2j * np.pi * rng.random(8192))
    return problem, points


@contextmanager
def quiet():
    """No-slip data break the moment conditions and the orthogonality relations."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield


def outputs(stream, points) -> list:
    """The float views of a stream function's rows, psi, Neumann defect and samples."""
    values = [*stream.velocity.rows, stream.psi, np.array(neumann_defect(stream)),
              stream.velocity.sample(points)]
    return [np.ascontiguousarray(v).view(float) for v in values]


def tables(terms) -> tuple:
    return terms.inner, terms.outer


def cold_tables(terms, problem, with_rho=False) -> list:
    """_kernel's tables of the rows terms.ks, built directly, past the memo."""
    rows = slice(problem.K + terms.ks[0], None)
    w = problem.vorticity.coeffs[rows]
    rho = problem.divergence.coeffs[rows] if with_rho else None
    return [disk._kernel(problem.grid.nodes, w, rho, terms.ks, suffix, terms.span)
            for suffix in (False, True)]


def counted_tables(monkeypatch) -> list:
    """The sides (False the prefix, True the suffix) of each kernel table built from now on."""
    built, scaled = [], disk._scaled
    monkeypatch.setattr(disk, "_scaled", lambda *args: built.append(args[3]) or scaled(*args))
    return built


def test_stream_next_to_a_live_solve_reads_its_tables(no_slip):
    problem, points = no_slip
    w, far = problem.vorticity, problem.far_field
    with quiet():
        stream = solve_stream(w, far)
        refs = [weakref.ref(table) for table in tables(stream.velocity.terms)]
        cold = outputs(stream, points)
        del stream
        gc.collect()
        assert all(ref() is None for ref in refs)  # the cold tables are gone
        solution = solve_disk(replace(problem))
        live = solve_stream(w, far)
    assert live.velocity.terms.inner is solution.terms.inner
    assert live.velocity.terms.outer is solution.terms.outer
    for got, want in zip(outputs(live, points), cold):
        assert np.array_equal(got, want)


def test_released_tables_leave_the_memo(no_slip):
    problem, _ = no_slip
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with quiet():
            solution = solve_disk(replace(problem))
            live = solve_stream(problem.vorticity, problem.far_field)
        assert all(a is b for a, b in zip(tables(live.velocity.terms), tables(solution.terms)))
        refs = [weakref.ref(table) for table in tables(solution.terms)]
        del solution, live
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert all(ref() is None for ref in refs)
    assert retained < 2**20


def test_other_inputs_build_their_own_tables(no_slip):
    problem, _ = no_slip
    grid, K, w = problem.grid, problem.K, problem.vorticity
    copy = replace(problem, vorticity=SpectralField(grid, K, w.coeffs))  # other memory
    # a trace that is not mirrored: the rows -K..K
    other_rows = replace(problem, boundary=BoundaryTrace.from_coeffs(K, tangential={1: 1e-3j}))
    with_rho = replace(problem, divergence=SpectralField(grid, K, 0.5 * w.coeffs))
    with quiet():
        solution = solve_disk(replace(problem))
        cases = [(copy, solve_stream(copy.vorticity, problem.far_field).velocity.terms, False),
                 (other_rows, solve_disk(other_rows).terms, False),
                 (with_rho, solve_disk(with_rho).terms, True)]
    assert len(cases[1][1].ks) == 2 * K + 1 and not cases[2][1].rotated
    # an integrand that can be written is never shared
    ks, span = solution.terms.ks, solution.terms.span
    assert disk._memo_key(grid.nodes, np.array(w.coeffs[K:]), None, ks, True, span) is None
    for case, terms, rho in cases:
        for got, shared, want in zip(tables(terms), tables(solution.terms),
                                     cold_tables(terms, case, rho)):
            assert got is not shared
            assert np.array_equal(got.table.view(float), want.table.view(float))


def test_cold_report_reads_the_live_suffix_table(no_slip, monkeypatch):
    problem, _ = no_slip
    want = moment_report(replace(problem))  # nothing of this field alive
    gc.collect()
    built = counted_tables(monkeypatch)
    with quiet():
        live = solve_stream(problem.vorticity, problem.far_field)
    assert sorted(built) == [False, True]
    got = moment_report(replace(problem))
    assert len(built) == 2 and live.velocity.terms.outer is not None
    for name in ("residuals", "negative"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert (got.circulation, got.flux) == (want.circulation, want.flux)


def test_stream_cli_builds_one_table_pair(tmp_path, monkeypatch):
    # the projection's report builds the suffix table of the data it projects;
    # the stream function builds its pair, and its report reads the suffix
    built = counted_tables(monkeypatch)
    cfg = str(CONFIGS / "vortex_patch.cfg")
    out = tmp_path / "stream"
    assert main(["solve", "--config", cfg, "--out", str(out), "--solver", "stream"]) == EXIT_OK
    assert sorted(built) == [False, True, True]
