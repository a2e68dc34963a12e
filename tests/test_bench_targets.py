"""The benchmark's tracer patches divcurl by name: every name it patches must exist."""

import importlib
import importlib.util
import inspect
import pathlib
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from divcurl import disk, moments, norms, stream
from divcurl.grids import SpectralField

from test_highmode import admissible_highmode_problem

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_divcurl():
    spans = _spans_module()
    for entry in spans.SPANS + spans.COUNTS:
        module = importlib.import_module(f"divcurl.{entry[0]}")
        owner_name, attr = entry[1], entry[2]
        if owner_name is None:
            target = getattr(module, attr, None)
            assert callable(target), f"divcurl.{entry[0]}.{attr} is gone"
        else:
            owner = getattr(module, owner_name)
            assert attr in owner.__dict__, f"divcurl.{entry[0]}.{owner_name}.{attr} is gone"
            target = owner.__dict__[attr]
        if len(entry) > 4 and entry[4] == "pairs":
            # the pair counter binds the oracle's lattice keywords by name
            params = inspect.signature(target).parameters
            assert {"n_radial", "n_angular", "n_boundary"} <= set(params)


def test_traced_targets_run_on_the_calling_thread(two_cpus):
    # the tracer keeps one span stack and one counter for the process, so the
    # worker thread of quadrature._together must call none of its targets
    spans = _spans_module()
    threads = set()

    class ThreadTracer(spans.Tracer):
        def _open(self, name):
            threads.add(threading.current_thread())
            return super()._open(name)

        def counting(self, fn, name):
            counted = super().counting(fn, name)

            def wrapper(*args, **kwargs):
                threads.add(threading.current_thread())
                return counted(*args, **kwargs)

            return wrapper

    problem = admissible_highmode_problem(K=128, M=4000, seed=7, ratio=1.0005, real=True)
    rng = np.random.default_rng(3)
    points = (1.0 + 11.5 * rng.random(8192)) * np.exp(2j * np.pi * rng.random(8192))
    tracer = ThreadTracer()
    with tracer.active(0):
        solution = disk.solve_disk(problem)
        moments.moment_report(problem)
        at_calls = tracer.counters["quadrature.at_calls"]
        solution.sample(points)
        at_calls = tracer.counters["quadrature.at_calls"] - at_calls
        norms.far_field_deviation_h1(solution)
        norms.l2_weighted_norm(problem.vorticity, 2.0)
        with pytest.warns(UserWarning, match="no-slip"):  # the data is not no-slip
            stream.solve_stream(problem.vorticity, problem.far_field)
    assert threads == {threading.main_thread()}
    # one evaluation of each mode-0 integral (rho and w) for all the points
    assert at_calls == 2
    assert {span[0] for span in tracer.spans} >= {"disk.solve", "disk.sample", "norms.h1"}


def test_table_memo_is_used_on_the_calling_thread(monkeypatch, two_cpus):
    # disk._TABLES is read and written only on the calling thread, never by
    # the worker of quadrature._together, which builds the tables themselves
    threads = []

    class Recorded(weakref.WeakValueDictionary):
        def get(self, key, default=None):
            threads.append(("get", threading.current_thread()))
            return super().get(key, default)

        def __setitem__(self, key, value):
            threads.append(("set", threading.current_thread()))
            super().__setitem__(key, value)

    monkeypatch.setattr(disk, "_TABLES", Recorded())
    problem = admissible_highmode_problem(K=128, M=4000, seed=7, ratio=1.0005, real=True)
    problem = replace(problem, divergence=SpectralField.zeros(problem.grid, problem.K))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the data are not no-slip
        moments.moment_report(replace(problem))
        solution = disk.solve_disk(problem)
        flow = stream.solve_stream(problem.vorticity, problem.far_field)
    assert flow.velocity.terms.inner is solution.terms.inner
    assert {op for op, _ in threads} == {"get", "set"}
    assert {thread for _, thread in threads} == {threading.main_thread()}
