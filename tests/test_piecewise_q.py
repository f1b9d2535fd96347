"""Symbolic value iteration builds each horizon's Q values from the MDP's
integer table: integer coefficients over L times the common denominator of
the previous piece, as raw numerators (`partition._q_numerators`) and, in
the frozen step of `frozen_step`, as polynomials (`_q_polynomials`).  This
test keeps the `Fraction` construction as the reference, requires the
frozen step on it to give every horizon the same, cuts, pieces and
first-step sets alike, and requires both integer forms to equal it."""

import random
from fractions import Fraction as F

import pytest

import frozen_step
from conftest import mdpgen, random_mdp
from exactmdp import docio, partition
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.partition import symbolic_value_iteration
from exactmdp.polyarith import Polynomial, _poly

HORIZON = 9
# the benchmark's random-partition family
PARTITION_FAMILY = [(s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2)]


def reference_q_polynomials(mdp, pvec):
    """Q(i, k) = r(i, k) + alpha * sum_j P(i, k, j) * pvec[j] on `Fraction`
    coefficients."""
    return [
        [
            Polynomial.constant(mdp.rewards[i][k])
            + sum(
                (
                    pvec[j] * mdp.transitions[i][k][j]
                    for j in range(mdp.m)
                    if mdp.transitions[i][k][j] != 0
                ),
                Polynomial(),
            ).shift_up(1)
            for k in range(mdp.action_count(i))
        ]
        for i in range(mdp.m)
    ]


def assert_same_as_reference(monkeypatch, mdp):
    got = symbolic_value_iteration(mdp, HORIZON)
    with monkeypatch.context() as patch:
        frozen_step.use_frozen_step(patch)
        patch.setattr(frozen_step, "_q_polynomials", reference_q_polynomials)
        want = symbolic_value_iteration(mdp, HORIZON)
    assert len(got) == len(want) == HORIZON + 1
    for level, ref in zip(got, want):
        assert level.cuts == ref.cuts, level.horizon
        assert level.pieces == ref.pieces, level.horizon
        assert level.interval_sets == ref.interval_sets, level.horizon
        assert level.point_sets == ref.point_sets, level.horizon
        assert level == ref


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_corpus(monkeypatch, example_id):
    assert_same_as_reference(monkeypatch, build_example(example_id).mdp)


@pytest.mark.parametrize("states, actions, index", PARTITION_FAMILY)
def test_benchmark_partition_family(monkeypatch, states, actions, index):
    doc = mdpgen.random_document(states, actions, 8, index)
    assert_same_as_reference(monkeypatch, docio.mdp_from_document(doc))


@pytest.mark.parametrize("seed", range(30))
def test_random(monkeypatch, seed):
    mdp = random_mdp(random.Random(seed), max_states=3, max_actions=3)
    assert_same_as_reference(monkeypatch, mdp)


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_one_step_from_mixed_denominators(example_id):
    # pieces over different denominators, one of them zero
    mdp = build_example(example_id).mdp
    pvec = [Polynomial()] + [
        Polynomial([F(j, j + 2), F(-2, 2 * j + 1), F(0), F(3, j + 4)])
        for j in range(1, mdp.m)
    ]
    want = reference_q_polynomials(mdp, pvec)
    assert frozen_step._q_polynomials(mdp, pvec) == want
    nums, den = partition._q_numerators(mdp, pvec)
    assert len({len(c) for q in nums for c in q}) == 1  # one common length
    assert [[_poly(c[:], den) for c in q] for q in nums] == want
