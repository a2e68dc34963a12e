import multiprocessing
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcurl.disk import solve_disk
from divcurl.quadrature import _SIDE_BY_SIDE, _together, cumulative, trapezoid_weights

from helpers import observed_order, run_in_child
from test_highmode import admissible_highmode_problem


def test_linear_weight_exact():
    # trapezoid integrates s * 1 exactly: int_1^2 s ds = 3/2
    nodes = np.linspace(1.0, 2.0, 33)
    assert abs(trapezoid_weights(nodes) @ nodes - 1.5) < 1e-14


def test_inverse_weight_log():
    # int_1^e ds/s = 1, second-order accurate
    nodes = np.linspace(1.0, np.e, 4001)
    assert abs(trapezoid_weights(nodes) @ (1.0 / nodes) - 1.0) < 1e-7


def test_quadratic_closed_form_and_refinement():
    # int_1^2 s * s ds = 7/3
    errors = []
    for n in (65, 129, 257):
        nodes = np.linspace(1.0, 2.0, n)
        errors.append(abs(trapezoid_weights(nodes) @ (nodes * nodes) - 7.0 / 3.0))
    assert errors[0] < 1e-3
    assert observed_order(errors) >= 1.9


def test_convergence_order_on_monomials():
    for p, f_pow, exact in ((2, 0, 7.0 / 3.0), (-3, 1, 0.5)):
        errors = []
        for n in (33, 65, 129, 257):
            nodes = np.linspace(1.0, 2.0, n)
            errors.append(abs(trapezoid_weights(nodes) @ (nodes**p * nodes**f_pow) - exact))
        assert observed_order(errors) >= 1.9


def test_subrange_and_partial_panels():
    nodes = np.linspace(1.0, 3.0, 201)
    # int_{1.3}^{2.7} s ds with endpoints off the nodes
    exact = 0.5 * (2.7**2 - 1.3**2)
    acc = cumulative(nodes, nodes)
    assert abs(acc.at(2.7) - acc.at(1.3) - exact) < 1e-9


def test_cumulative_consistency():
    nodes = np.linspace(1.0, 4.0, 301)
    acc = cumulative(nodes, nodes**2)
    # node values agree with prefix sums
    assert np.allclose(acc.at(nodes), acc.prefix)
    # radii beyond the last node saturate at the total; below the first they raise
    assert acc.at(10.0) == acc.total
    with pytest.raises(ValueError):
        acc.at(0.5)


def test_trapezoid_weights_match_integral():
    nodes = np.concatenate(([1.0], np.sort(1.0 + 2.0 * np.random.default_rng(1).random(40)), [3.0]))
    values = np.sin(nodes)
    direct = cumulative(nodes, values).total
    assert abs(np.sum(trapezoid_weights(nodes) * values) - direct.real) < 1e-13


@settings(max_examples=25)
@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
def test_linearity(a, b):
    nodes = np.linspace(1.0, 2.0, 65)
    f = np.cos(nodes)
    g = nodes**2
    combined = cumulative(nodes, nodes * (a * f + b * g)).total
    split = a * cumulative(nodes, nodes * f).total + b * cumulative(nodes, nodes * g).total
    assert abs(combined - split) < 1e-12


def test_together_runs_large_passes_side_by_side_and_small_ones_here(two_cpus, monkeypatch):
    here = threading.current_thread()
    large = [_together(threading.current_thread, threading.current_thread, _SIDE_BY_SIDE)
             for _ in range(3)]
    assert all(second is here for _, second in large)
    assert all(first is not here and not first.is_alive() for first, _ in large)
    small = _together(threading.current_thread, threading.current_thread, _SIDE_BY_SIDE - 1)
    assert small == (here, here)
    # on one CPU the two threads would only take turns
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one_cpu = _together(threading.current_thread, threading.current_thread, _SIDE_BY_SIDE)
    assert one_cpu == (here, here)


def test_together_raises_only_after_both_calls_returned(two_cpus):
    done = []

    def first_fails():
        raise KeyError("first")

    def second_finishes():
        time.sleep(0.2)
        done.append("second")

    def first_finishes():
        time.sleep(0.2)
        done.append("first")

    def second_fails():
        raise IndexError("second")

    with pytest.raises(KeyError):
        _together(first_fails, second_finishes, _SIDE_BY_SIDE)
    assert done == ["second"]
    with pytest.raises(IndexError):  # first is left running by no error
        _together(first_finishes, second_fails, _SIDE_BY_SIDE)
    assert done == ["second", "first"]
    with pytest.raises(KeyError):  # both raise: first's error
        _together(first_fails, second_fails, _SIDE_BY_SIDE)
    with pytest.raises(KeyError):  # a small pass: second does not start
        _together(first_fails, second_finishes, 0)
    assert done == ["second", "first"]


class _Result:
    pass


def test_the_worker_keeps_nothing_of_a_finished_call(two_cpus):
    result, _ = _together(_Result, lambda: None, _SIDE_BY_SIDE)
    ref = weakref.ref(result)
    del result
    assert ref() is None


def _solve_in_child(problem, expected):
    rows = solve_disk(problem).rows
    sys.exit(0 if all(np.array_equal(a, b) for a, b in zip(rows, expected)) else 1)


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="no fork")


@needs_fork
def test_a_child_forked_after_the_worker_started_solves(two_cpus):
    # K = 40, M = 4000: every pass is large enough to run side by side
    problem = admissible_highmode_problem(K=40, M=4000, seed=9, ratio=1.0005, real=True)
    expected = solve_disk(problem).rows  # worker threads have run in this process
    assert run_in_child(_solve_in_child, (problem, expected), 20) == 0


def _nested_in_child():
    def inner():
        return _together(lambda: 1, lambda: 2, _SIDE_BY_SIDE)

    sys.exit(0 if _together(inner, lambda: 3, _SIDE_BY_SIDE) == ((1, 2), 3) else 1)


@needs_fork
def test_together_inside_first_of_another_completes(two_cpus):
    # in a child, so a pass that waits on itself fails this test and hangs nothing
    assert run_in_child(_nested_in_child, (), 20) == 0
