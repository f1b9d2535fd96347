"""Policy iteration's start rule changes how many rounds run, never a result.

``optimal_set`` starts policy iteration from the reward-greedy rule, and
``turnpike_integer`` (no partition) from the smallest rule of
value iteration's horizon-3 first-step set, whose steps its turnpike loop
then reuses.  V* and D are unique, so every start reaches the same
``OptSets``; the tests below hold each start, and the turnpike loop with
its stored steps, to policy iteration from the rule of all zeros, and pin
the number of exact solves on the benchmark's pointwise documents.
"""

import dataclasses
import random
from fractions import Fraction as F

import pytest

from conftest import mdpgen
from exactmdp import bellman, docio, turnpike
from exactmdp.bellman import (
    _integer_form,
    _policy_iteration,
    _reward_greedy_rule,
    optimal_set,
    smallest_rule,
    value_iteration,
)
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.mdp import DecisionRule
from exactmdp.turnpike import _turnpike_at, turnpike_integer

ALPHAS = (F(1, 10), F(1, 2), F(3, 4), F(9, 10), F(19, 20), F(97, 100))
POINTWISE_ALPHAS = (F(9, 10), F(19, 20), F(97, 100))
# (states, actions, index) of the random-partition and random-pointwise documents
BENCHMARK_DOCUMENTS = [
    (s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2)
] + [(12, 4, i) for i in range(2)]
SIZE_SHAPES = [(4, 3), (6, 3), (8, 4), (24, 4), (48, 4)]


def document_mdp(states: int, actions: int, seed: int):
    return docio.mdp_from_document(mdpgen.random_document(states, actions, 8, seed))


def family_ids() -> list[str]:
    return (
        [f"corpus-{e}" for e in EXAMPLE_IDS]
        + [f"bench-{s}x{a}-{i}" for s, a, i in BENCHMARK_DOCUMENTS]
        + [f"gen-{s}x{a}-{seed}" for s, a in SIZE_SHAPES for seed in range(3)]
    )


def family_mdp(model_id: str):
    kind, _, key = model_id.partition("-")
    if kind == "corpus":
        return build_example(key).mdp
    shape, _, index = key.partition("-")
    states, actions = map(int, shape.split("x"))
    return document_mdp(states, actions, int(index))


def zero_rule(mdp) -> DecisionRule:
    return DecisionRule(tuple(0 for _ in range(mdp.m)))


def cold_optimal_set(mdp, alpha: F):
    """Policy iteration from the rule of all zeros."""
    return _policy_iteration(alpha, _integer_form(mdp, alpha), zero_rule(mdp))


def cold_turnpike(mdp, alpha: F):
    """The turnpike loop on the cold start's D and V*, with no stored steps."""
    return _turnpike_at(mdp, cold_optimal_set(mdp, alpha))


def assert_turnpike_equals_cold(mdp, alpha: F):
    got, expected = turnpike.turnpike_integer(mdp, alpha), cold_turnpike(mdp, alpha)
    for field in dataclasses.fields(expected):
        name = field.name
        assert getattr(got, name) == getattr(expected, name), (name, alpha)


def starts(mdp, alpha: F) -> list[DecisionRule]:
    rng = random.Random(f"{mdp.m}/{alpha}")
    random_rules = [
        DecisionRule(tuple(rng.randrange(mdp.action_count(i)) for i in range(mdp.m)))
        for _ in range(5)
    ]
    d3 = value_iteration(mdp, alpha, 3)[3].first_step
    form = _integer_form(mdp, alpha)
    return [zero_rule(mdp), _reward_greedy_rule(form), smallest_rule(d3), *random_rules]


@pytest.mark.parametrize("model_id", family_ids())
def test_every_start_reaches_the_same_optimal_sets(model_id):
    mdp = family_mdp(model_id)
    for alpha in ALPHAS:
        form = _integer_form(mdp, alpha)
        expected = optimal_set(mdp, alpha)
        for rule in starts(mdp, alpha):
            assert _policy_iteration(alpha, form, rule) == expected, (alpha, rule)


@pytest.mark.parametrize("model_id", family_ids())
def test_turnpike_equals_the_cold_start_reference(model_id):
    mdp = family_mdp(model_id)
    for alpha in (F(0), *ALPHAS):
        assert_turnpike_equals_cold(mdp, alpha)


def test_reward_greedy_rule_is_the_horizon_1_rule_of_zero_terminal():
    for ex in EXAMPLE_IDS:
        mdp = build_example(ex).mdp
        form = _integer_form(mdp, F(1, 2))
        # at alpha = 0 the first-step set of horizon 1 is the reward argmax
        d1 = value_iteration(mdp, F(0), 1)[1].first_step
        assert _reward_greedy_rule(form) == smallest_rule(d1)


def count_solves(monkeypatch, run) -> int:
    original = bellman._policy_value
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(bellman, "_policy_value", counting)
        run()
    return calls[0]


def test_solve_counts_on_the_pointwise_documents(monkeypatch):
    """Exact solves over the two random-pointwise documents at the three
    discounts; policy iteration from the rule of all zeros made 18 for
    each."""
    mdps = [document_mdp(12, 4, i) for i in range(2)]
    cases = [(mdp, alpha) for mdp in mdps for alpha in POINTWISE_ALPHAS]
    cold = sum(count_solves(monkeypatch, lambda: cold_optimal_set(*c)) for c in cases)
    solve = sum(count_solves(monkeypatch, lambda: optimal_set(*c)) for c in cases)
    point = sum(count_solves(monkeypatch, lambda: turnpike_integer(*c)) for c in cases)
    assert (cold, solve, point) == (18, 13, 9)


def test_skipping_the_check_on_stored_horizons_is_caught(monkeypatch):
    """A mutant turnpike loop that takes the stored steps without checking
    their first-step sets against D fails the cold-start equality: on
    r12x4-1, N = 3, so horizons 1 and 2 both fail the check."""
    mdp = document_mdp(12, 4, 1)
    for alpha in POINTWISE_ALPHAS:
        assert_turnpike_equals_cold(mdp, alpha)
        assert cold_turnpike(mdp, alpha).n_value == 3
    original_subset, original_turnpike = turnpike.product_subset, turnpike_integer
    checks = [None]  # the loop's checks so far, inside turnpike_integer only

    def skipping_stored(a, b):
        if checks[0] is not None:
            checks[0] += 1
            if checks[0] <= turnpike._WARM_HORIZONS:
                return True
        return original_subset(a, b)

    def mutant(mdp, alpha, part=None):
        checks[0] = 0
        try:
            return original_turnpike(mdp, alpha, part)
        finally:
            checks[0] = None

    monkeypatch.setattr(turnpike, "product_subset", skipping_stored)
    monkeypatch.setattr(turnpike, "turnpike_integer", mutant)
    for alpha in POINTWISE_ALPHAS:
        assert turnpike.turnpike_integer(mdp, alpha).n_value == 1
        with pytest.raises(AssertionError):
            assert_turnpike_equals_cold(mdp, alpha)
