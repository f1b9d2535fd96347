"""`derivative_difference` and `pushforwards_equal` against their frozen
`Fraction` references (`frozen_conditions`).

`derivative_difference` carries the continuation's value W and
U = W + alpha·W' back from its end, by condition B's tail recursion, and
`pushforwards_equal` compares t < m instead of running two `compute_G`
eliminations.  Each must answer exactly as its reference does: the same
values, or an error of the same type and message.  The only inputs on which
they part are discount factors outside [0, 1), which `derivative_difference`
now rejects (see `test_bad_counts`).
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

import frozen_conditions
from conftest import random_mdp
from exactmdp.conditions import derivative_difference
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.equivalence import pushforwards_equal
from exactmdp.mdp import MarkovPrefix, enumerate_decision_rules

ALPHAS = (F(0), F(1, 3), F(2, 3), F(19, 20))
HORIZONS = (None, -1, 0, 1, 2, 3, 5, 8)
RANDOM_SEEDS = range(24)


def outcome(call, *args):
    """The value, or the exception's type and message: the two functions
    must fail alike wherever they fail."""
    try:
        return call(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def models():
    for example_id in EXAMPLE_IDS:
        yield example_id, build_example(example_id).mdp
    for seed in RANDOM_SEEDS:
        yield f"random-{seed}", random_mdp(random.Random(seed), 3, 3, 4)


MODELS = list(models())
IDS = [model_id for model_id, _ in MODELS]


def prefixes(rng, rules):
    """Continuations with and without a stationary tail, of 0 to 3 rules
    before it: without a tail, long horizons run out of rules."""
    for length in range(4):
        head = tuple(rng.choice(rules) for _ in range(length))
        yield MarkovPrefix(head, tail=rng.choice(rules))
        if head:
            yield MarkovPrefix(head)


def differences(mdp, seed):
    rng = random.Random(seed)
    rules = enumerate_decision_rules(mdp)
    pairs = [(rules[0], rules[-1]), (rng.choice(rules), rng.choice(rules))]
    for (phi, psi), prefix in product(pairs, prefixes(rng, rules)):
        for alpha, n in product(ALPHAS, HORIZONS):
            yield phi, psi, prefix, alpha, n


@pytest.mark.parametrize("model_id, mdp", MODELS, ids=IDS)
def test_derivative_difference_matches_the_frozen_reference(model_id, mdp):
    kinds = set()
    for phi, psi, prefix, alpha, n in differences(mdp, model_id):
        args = (mdp, phi, psi, prefix, alpha, n)
        got = outcome(derivative_difference, *args)
        want = outcome(frozen_conditions.derivative_difference, *args)
        assert got == want, (phi, psi, prefix, alpha, n)
        assert type(got) is tuple and len(got) in (2, mdp.m)
        if isinstance(got[0], type):
            kinds.add(got[0].__name__)
        else:
            assert all(type(x) is F for x in got)
            kinds.add("nonzero" if any(got) else "zero")
    assert kinds >= {"ValueError", "InsufficientRulesError", "zero"}
    if model_id in EXAMPLE_IDS:
        assert "nonzero" in kinds


def vectors(mdp, rng):
    """Pairs (v1, v2): equal and unequal, constant, reward vectors, a grid of
    small integer vectors, and pairs of the wrong length."""
    m = mdp.m
    grid = [tuple(map(F, w)) for w in product(range(-1, 2), repeat=min(m, 3))]
    grid = [w + (F(0),) * (m - len(w)) for w in grid]
    for w in grid:
        yield w, w
    for _ in range(10):
        yield rng.choice(grid), rng.choice(grid)
    for rule in enumerate_decision_rules(mdp)[:3]:
        r = mdp.reward_vector(rule)
        yield r, r
    yield (F(7, 3),) * m, (F(7, 3),) * m
    for bad in ((F(1),) * (m + 1), (F(1),) * (m - 1)):
        yield bad, grid[0]
        yield grid[0], bad


@pytest.mark.parametrize("model_id, mdp", MODELS, ids=IDS)
def test_pushforwards_equal_matches_the_frozen_reference(model_id, mdp):
    rng = random.Random(model_id)
    rules = enumerate_decision_rules(mdp)
    pairs = list(product(rules, repeat=2))
    if len(pairs) > 9:
        pairs = rng.sample(pairs, 9)
    seen = set()
    for (rule1, rule2), (v1, v2) in product(pairs, list(vectors(mdp, rng))):
        args = (mdp, rule1, v1, rule2, v2)
        got = outcome(pushforwards_equal, *args)
        assert got == outcome(frozen_conditions.pushforwards_equal, *args)
        seen.add(got if isinstance(got, bool) else got[0])
    assert seen == {True, False, ValueError}


def test_pushforwards_agree_past_the_first_step_somewhere():
    """Some pair of distinct transition matrices agrees on a nonconstant
    vector for every t, so the two functions are compared where the bound
    t < m, not the first comparison, decides."""
    found = 0
    for _, mdp in MODELS:
        if mdp.m > 3:
            continue
        rules = enumerate_decision_rules(mdp)
        for rule1, rule2 in product(rules, repeat=2):
            p1, p2 = mdp.transition_matrix(rule1), mdp.transition_matrix(rule2)
            if p1 == p2:
                continue
            for w in product(range(-1, 2), repeat=mdp.m):
                w = tuple(map(F, w))
                if len(set(w)) > 1 and pushforwards_equal(mdp, rule1, w, rule2, w):
                    assert frozen_conditions.pushforwards_equal(mdp, rule1, w, rule2, w)
                    found += 1
    assert found > 0
