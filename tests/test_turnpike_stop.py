"""`turnpike_integer` stops value iteration at the exact span test
alpha * sp(V_n - V*) < gap instead of running it out to the a-priori
certificate horizon K.  These tests keep the exhaustive algorithm (check
every horizon up to K, N is one past the last failure) as a reference and
require the early stop to reproduce it exactly."""

import random
from fractions import Fraction as F

import pytest

from conftest import random_rational, random_stochastic_row
from exactmdp.bellman import optimal_set, product_subset, value_iteration
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.mdp import DecisionRule, Mdp, balance
from exactmdp.turnpike import (
    AllRulesOptimalError,
    certificate_audit,
    suboptimality_gap,
    turnpike_integer,
)
from test_growth_near_one import climbing_mdp
from test_irrational_points import irrational_break_mdp

CORPUS_ALPHAS = tuple(F(k, 10) for k in range(1, 10)) + (F(97, 100),)


def exhaustive_turnpike(mdp: Mdp, alpha: F):
    """(N, K, gap, witness) by exact value iteration over every horizon up
    to the a-priori certificate horizon K."""
    bal, sp = balance(mdp)
    opt = optimal_set(bal, alpha)
    try:
        gap = suboptimality_gap(bal, alpha)
    except AllRulesOptimalError:
        return 1, 0, None, None
    k_cert = 0
    bound = 2 * alpha * (sp.r1_star / (1 - alpha) + sp.r2_star)
    while bound >= gap:
        k_cert += 1
        bound *= alpha
    trace = value_iteration(bal, alpha, k_cert)
    failures = [
        step.horizon
        for step in trace[1:]
        if not product_subset(step.first_step, opt.d_alpha_sets)
    ]
    if not failures:
        return 1, k_cert, gap, None
    sets = trace[failures[-1]].first_step
    bad_state = next(
        i for i in range(mdp.m) if not sets[i] <= opt.d_alpha_sets[i]
    )
    witness = DecisionRule(
        tuple(
            min(s - opt.d_alpha_sets[i]) if i == bad_state else min(s)
            for i, s in enumerate(sets)
        )
    )
    return failures[-1] + 1, k_cert, gap, witness


def assert_matches_exhaustive(mdp: Mdp, alpha: F):
    res = turnpike_integer(mdp, alpha)
    n_value, k_cert, gap, witness = exhaustive_turnpike(mdp, alpha)
    assert (res.n_value, res.certificate_horizon, res.gap, res.witness) == (
        n_value,
        k_cert,
        gap,
        witness,
    )
    assert res.n_value - 1 <= res.horizons_checked <= res.certificate_horizon
    assert certificate_audit(mdp, res)
    return res


def shaped_mdp(seed: int, states: int, actions: int) -> Mdp:
    """Random MDP with exactly `actions` actions at each of `states` states."""
    rng = random.Random(seed)
    acts = tuple(tuple(f"a{k}" for k in range(actions)) for _ in range(states))
    return Mdp(
        tuple(f"s{i}" for i in range(states)),
        acts,
        tuple(
            tuple(random_stochastic_row(rng, states) for _ in row) for row in acts
        ),
        tuple(tuple(random_rational(rng, 8, -2, 2) for _ in row) for row in acts),
        tuple(random_rational(rng, 8, -2, 2) for _ in range(states)),
    )


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_corpus_matches_exhaustive(example_id):
    mdp = build_example(example_id).mdp
    for alpha in CORPUS_ALPHAS:
        assert_matches_exhaustive(mdp, alpha)


def test_climbing_fixture_at_nine_tenths():
    res = assert_matches_exhaustive(climbing_mdp(), F(9, 10))
    assert res.n_value == 29
    assert res.horizons_checked < res.certificate_horizon


def test_irrational_fixture_right_of_the_bracket():
    res = assert_matches_exhaustive(irrational_break_mdp(), F(5774, 10000))
    assert res.n_value == 17
    assert res.horizons_checked < res.certificate_horizon


@pytest.mark.parametrize(
    "states, actions, seeds, alphas",
    [
        (3, 2, range(12), (F(1, 2), F(9, 10), F(97, 100))),
        (4, 2, range(12), (F(1, 2), F(9, 10), F(97, 100))),
        (12, 4, range(2), (F(9, 10),)),
    ],
)
def test_random_shapes_match_exhaustive(states, actions, seeds, alphas):
    for seed in seeds:
        mdp = shaped_mdp(seed, states, actions)
        for alpha in alphas:
            assert_matches_exhaustive(mdp, alpha)


def test_stop_is_far_below_k_on_a_large_model():
    res = assert_matches_exhaustive(shaped_mdp(0, 12, 4), F(97, 100))
    assert res.horizons_checked * 4 < res.certificate_horizon


def test_no_iteration_without_a_gap():
    # at alpha = 0, and when every rule is optimal, nothing is iterated
    assert turnpike_integer(climbing_mdp(), F(0)).horizons_checked == 0
    twins = Mdp(
        ("s",), (("a", "b"),), (((F(1),), (F(1),)),), ((F(1), F(1)),), (F(0),)
    )
    res = turnpike_integer(twins, F(1, 2))
    assert (res.n_value, res.certificate_horizon, res.horizons_checked) == (1, 0, 0)
