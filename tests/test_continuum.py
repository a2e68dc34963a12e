"""The solver against a continuum modal reference: where its discretisation error lives.

helpers.continuum_velocity evaluates the paper's mode formula with
Gauss-Legendre integrals of the closed-form data, sharing the formula with
the solver but not its discretisation.  On the criterion-3 problems the
trapezoid integrates the smooth, compactly supported data over their whole
support to rounding, so off the support the two agree to rounding.  Inside
the support the solver's linear interpolation of the integrand is O(h^2).
On a geometric grid the trapezoid is O(h^2) off the support too.  The
Joukowski c = 0.5 case pulls its data back from Omega through the map.
These are characterisation tests of today's rule.
"""

import numpy as np
import pytest

from divcurl.conformal import joukowski_map, pullback_problem
from divcurl.disk import FarField, solve_disk
from divcurl.grids import RadialGrid
from divcurl.presets import random_admissible_exterior_problem, random_admissible_problem

from helpers import continuum_velocity

SUPPORT = (1.8, 4.2)


def suite_problem(seed, count, geometric=False):
    """Criterion 3's problem of the seed on a grid of count nodes on [1, 8]: uniform,
    or geometric with its last panel 7.3 times its first."""
    rng = np.random.default_rng(seed)
    kind = seed % 3
    grid = (RadialGrid.geometric(1.0, 8.0, count, ratio=7.3 ** (1.0 / (count - 1))) if geometric
            else RadialGrid.uniform(1.0, 8.0, count))
    return random_admissible_problem(
        rng, grid, K=12, K_data=8, K_c=12, support=SUPPORT,
        with_divergence=(kind == 1), boundary_modes=3 if kind == 2 else 0,
        far_field=FarField(0.8, -0.3) if kind == 2 else FarField(),
    )


def joukowski_problem(seed, count):
    """A Joukowski c = 0.5 problem of the seed on a uniform grid on [1, 8], pulled back."""
    grid = RadialGrid.uniform(1.0, 8.0, count)
    return pullback_problem(random_admissible_exterior_problem(
        np.random.default_rng(seed), joukowski_map(0.5, 1.0), grid, 12, K_data=8, K_c=12,
        support=SUPPORT))


def probes(seed, low, high, count):
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, count) * np.exp(2j * np.pi * rng.random(count))


def relative_error(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def off_support_points():
    """The probes of criterion 3: inside the data's inner edge and beyond its outer one."""
    return np.concatenate([probes(123, 1.12, 1.62, 10), probes(124, 4.45, 7.2, 10)])


def errors_and_orders(problem_of, points, counts=(751, 1501, 3001)):
    """The solver's relative errors at the points over the counts, each against the
    continuum reference of its own problem, and their orders.

    The admissibility corrections are fitted on each grid, so the data differ
    from count to count by the quadrature error of their moments; off the
    support of a geometric grid's data that difference is the whole error.
    """
    errors = []
    for count in counts:
        problem = problem_of(count)
        want = continuum_velocity(problem, points, SUPPORT)
        errors.append(relative_error(solve_disk(problem).sample(points), want))
    return errors, np.log2(np.array(errors[:-1]) / errors[1:])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_off_the_support_the_solver_is_exact_to_rounding(seed):
    points = off_support_points()
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_on_a_geometric_grid_the_solver_is_second_order_everywhere(seed):
    # measured: off the support 1.2e-6, 2.9e-7, 7.3e-8 at M = 751, 1501, 3001;
    # inside it 2.2e-5 - 6.6e-5 at M = 751; both orders 2.00
    for points, largest in ((off_support_points(), 1e-5), (probes(125, 2.0, 4.0, 12), 1e-4)):
        errors, orders = errors_and_orders(lambda count: suite_problem(seed, count, True),
                                           points)
        assert errors[0] < largest and np.all(orders >= 1.9), (errors, orders)


def test_joukowski_pullback_against_the_continuum_reference():
    # measured on seeds 0-2: off the support 2.8e-15 - 4.1e-15 at M = 1501;
    # inside it 3.9e-5 - 5.5e-5 at M = 751, order 2.00
    points = off_support_points()
    problem = joukowski_problem(1, 1501)
    want = continuum_velocity(problem, points, SUPPORT)
    assert relative_error(solve_disk(problem).sample(points), want) <= 1e-13
    errors, orders = errors_and_orders(lambda count: joukowski_problem(1, count),
                                       probes(125, 2.0, 4.0, 12))
    assert errors[0] < 1e-4 and np.all(orders >= 1.9), (errors, orders)
