"""A field is scanned once, when it is made; kernel tables are kept in one memo.

Every SpectralField carries the scan of its coefficients (grids._scan: the
column maxima and the mirror flag), so solve_disk, moment_report and
solve_stream read it and scan no field's data.  disk._TABLES holds every
kernel table, those of w and rho combined too: next to a live solve, a
report and a second solve of the same fields read its tables, and every
result equals a cold solve's bit for bit.
"""

import warnings
from dataclasses import replace

import numpy as np

from divcurl import disk, grids, moments
from divcurl.disk import solve_disk
from divcurl.moments import moment_report
from divcurl.stream import solve_stream

from test_highmode import admissible_highmode_problem


def test_a_field_is_scanned_once_when_it_is_made(monkeypatch):
    # the calls of _scan on a dense (modes, nodes) array; disk scans the trace
    # and the far field (a few values each) through the same function
    K, M = 12, 400
    dense = []
    scan = grids._scan

    def counted(values):
        if any(values.strides) and values.shape[-1] == M:
            dense.append(values.shape)
        return scan(values)

    monkeypatch.setattr(grids, "_scan", counted)
    monkeypatch.setattr(disk, "_scan", counted)
    problem = admissible_highmode_problem(K=K, M=M, seed=9)
    assert dense == [(2 * K + 1, M)] * 2  # w and rho, each when it was made
    dense.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the data are not no-slip
        solve_disk(problem)
        moment_report(replace(problem))
        solve_stream(problem.vorticity, problem.far_field)
    assert dense == []


def test_combined_tables_are_shared_while_a_solve_lives(monkeypatch):
    # complex w and rho: the tables are of w -+ i sigma rho, keyed on both
    problem = admissible_highmode_problem(K=24, M=400, seed=5)
    rng = np.random.default_rng(4)
    points = (1.0 + 11.5 * rng.random(512)) * np.exp(2j * np.pi * rng.random(512))
    copy = replace(problem, vorticity=replace(problem.vorticity),
                   divergence=replace(problem.divergence))  # other memory
    cold = solve_disk(copy)
    solution = solve_disk(problem)
    assert not solution.terms.rotated and solution.terms.zero[0] is not None
    assert solution.terms.outer is not cold.terms.outer
    read, b_at_r0 = [], moments._b_at_r0
    monkeypatch.setattr(moments, "_b_at_r0",
                        lambda outer, *rest: read.append(outer) or b_at_r0(outer, *rest))
    report = moment_report(problem)
    again = solve_disk(replace(problem))
    assert len(read) == 1 and read[0] is solution.terms.outer
    assert again.terms.inner is solution.terms.inner
    assert again.terms.outer is solution.terms.outer

    def results(solution, report):
        trace = solution.boundary_trace()
        return [solution.terms.inner.table, solution.terms.outer.table, *solution.rows,
                solution.sample(points), trace.g_r, trace.g_phi,
                report.residuals, report.negative]

    want = results(cold, cold.report)
    for got in (results(solution, solution.report), results(again, again.report),
                results(solution, report)):
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()

