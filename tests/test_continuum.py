"""The solver against a continuum modal reference: where its discretisation error lives.

helpers.continuum_velocity evaluates the paper's mode formula with
Gauss-Legendre integrals of the closed-form data, sharing the formula with
the solver but not its discretisation.  On the criterion-3 problems the
trapezoid integrates the smooth, compactly supported data over their whole
support to rounding, so off the support the two agree to rounding.  Inside
the support the solver's linear interpolation of the integrand is O(h^2).
These are characterisation tests of today's rule.
"""

import numpy as np
import pytest

from divcurl.disk import FarField, solve_disk
from divcurl.grids import RadialGrid
from divcurl.presets import random_admissible_problem

from helpers import continuum_velocity

SUPPORT = (1.8, 4.2)


def suite_problem(seed, count):
    """Criterion 3's problem of the seed on a uniform grid of count nodes on [1, 8]."""
    rng = np.random.default_rng(seed)
    kind = seed % 3
    return random_admissible_problem(
        rng, RadialGrid.uniform(1.0, 8.0, count), K=12, K_data=8, K_c=12, support=SUPPORT,
        with_divergence=(kind == 1), boundary_modes=3 if kind == 2 else 0,
        far_field=FarField(0.8, -0.3) if kind == 2 else FarField(),
    )


def probes(seed, low, high, count):
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, count) * np.exp(2j * np.pi * rng.random(count))


def relative_error(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_off_the_support_the_solver_is_exact_to_rounding(seed):
    # the probes of criterion 3: inside the data's inner edge and beyond its outer one
    points = np.concatenate([probes(123, 1.12, 1.62, 10), probes(124, 4.45, 7.2, 10)])
    problem = suite_problem(seed, 1501)
    want = continuum_velocity(problem, points, SUPPORT)
    assert relative_error(solve_disk(problem).sample(points), want) <= 1e-13


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inside_the_support_the_solver_is_second_order(seed):
    # measured: 1.7e-5 - 4.0e-5 at M = 751, order 2.00 over 751, 1501, 3001
    points = probes(125, 2.0, 4.0, 12)
    want = continuum_velocity(suite_problem(seed, 751), points, SUPPORT)
    errors = [relative_error(solve_disk(suite_problem(seed, count)).sample(points), want)
              for count in (751, 1501, 3001)]
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert errors[0] < 1e-4 and np.all(orders >= 1.9), (errors, orders)
