"""Negative horizons, empty grids and discount factors outside [0, 1) are
rejected, not answered vacuously.

Each call below once returned an answer that checked nothing: value
iteration to a negative horizon gave horizon 0 alone, a negative-horizon
Markov value the terminal vector, a negative-horizon derivative difference
zeros, an audit with negative extra horizons True, and small-discount
checks on an empty grid a pass over "0 points".  Condition B with a
negative K in its range gave a tangency verdict wherever a tangency
settled both sides before the K loop, and a derivative difference at a
discount factor of 1 or more, or below 0, raised ZeroDivisionError or
summed a divergent series."""

from fractions import Fraction as F

import pytest

from exactmdp import conditions
from exactmdp.bellman import evaluate_markov, value_iteration
from exactmdp.conditions import (
    boundedness_verdict,
    check_condition_B,
    derivative_difference,
)
from exactmdp.corpus import build_example
from exactmdp.mdp import DecisionRule, MarkovPrefix
from exactmdp.smalldiscount import small_discount_checks
from exactmdp.turnpike import certificate_audit, turnpike_integer


def test_value_iteration_rejects_a_negative_horizon():
    mdp = build_example("ex5").mdp
    assert len(value_iteration(mdp, F(1, 2), 0)) == 1
    for n_max in (-1, -7):
        with pytest.raises(ValueError):
            value_iteration(mdp, F(1, 2), n_max)


def test_evaluate_markov_rejects_a_negative_horizon():
    mdp = build_example("ex5").mdp
    prefix = MarkovPrefix((DecisionRule((0, 0)),))
    assert evaluate_markov(mdp, prefix, F(1, 2), 0).values == tuple(mdp.terminal)
    with pytest.raises(ValueError):
        evaluate_markov(mdp, prefix, F(1, 2), -1)


def test_derivative_difference_rejects_a_negative_horizon():
    mdp = build_example("ex5").mdp
    phi, psi = DecisionRule((0, 0)), DecisionRule((1, 0))
    prefix = MarkovPrefix((psi,), tail=psi)
    assert derivative_difference(mdp, phi, psi, prefix, F(2, 3), 0) == (F(0), F(0))
    with pytest.raises(ValueError):
        derivative_difference(mdp, phi, psi, prefix, F(2, 3), -1)


@pytest.mark.parametrize("alpha", [F(1), F(3, 2), F(-1, 2)])
@pytest.mark.parametrize("n", [None, 3])
def test_derivative_difference_rejects_a_discount_outside_the_unit_interval(alpha, n):
    mdp = build_example("ex5").mdp
    phi, psi = DecisionRule((0, 0)), DecisionRule((1, 0))
    prefix = MarkovPrefix((psi,), tail=psi)
    assert derivative_difference(mdp, phi, psi, prefix, F(2, 3), n)
    with pytest.raises(ValueError, match=r"^discount factor must lie in \[0, 1\)$"):
        derivative_difference(mdp, phi, psi, prefix, alpha, n)


@pytest.mark.parametrize("example_id, point", [("ex4", F(1, 2)), ("ex5", F(2, 3))])
def test_condition_b_rejects_a_negative_horizon_before_any_work(
    monkeypatch, example_id, point
):
    # ex4's tangency settles both sides before the K loop; ex5 reaches it
    mdp = build_example(example_id).mdp
    assert check_condition_B(mdp, point, "minus", range(0, 13)).holds is not None
    slopes = []
    monkeypatch.setattr(conditions, "value_slopes", lambda *args: slopes.append(args))
    for side in ("minus", "plus"):
        with pytest.raises(ValueError, match="k_range must be non-negative"):
            check_condition_B(mdp, point, side, range(-3, 2))
    with pytest.raises(ValueError, match="k_range must be non-negative"):
        boundedness_verdict(mdp, point, k_range_b=range(-3, 2))
    assert slopes == []


def test_certificate_audit_rejects_negative_extra_horizons():
    mdp = build_example("ex5").mdp
    result = turnpike_integer(mdp, F(1, 2))
    assert certificate_audit(mdp, result, extra=0)
    with pytest.raises(ValueError):
        certificate_audit(mdp, result, extra=-50)


def test_small_discount_checks_reject_an_empty_grid():
    mdp = build_example("ex5").mdp
    assert small_discount_checks(mdp, grid=1)
    for grid in (0, -3):
        with pytest.raises(ValueError):
            small_discount_checks(mdp, grid=grid)
