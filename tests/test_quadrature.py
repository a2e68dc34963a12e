import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcurl.quadrature import cumulative, trapezoid_weights

from helpers import observed_order


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
