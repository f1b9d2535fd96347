"""Condition A's certificate search tests each residual w_k = V* - V_k
against one pushforward kernel per rule pair (`equivalence.same_pushforwards`)
instead of calling `pushforwards_equal` at every horizon.  These tests keep
the G-bounded `pushforwards_equal`, frozen in `frozen_conditions` so that the
reference does not share the kernel's m-step bound, as the reference: the
kernel test must agree with it on every horizon of every certificate search,
on vectors that pass the t = 1 rows of the kernel alone, on a one-state model
and on pairs with equal transition matrices, and whole verdicts must equal
those of a search that calls the reference."""

import random
from fractions import Fraction as F
from itertools import product

import pytest

from conftest import random_mdp
from frozen_conditions import pushforwards_equal
from exactmdp import conditions
from exactmdp.bellman import smallest_rule, value_iteration
from exactmdp.conditions import A_HORIZON, _require_irregular, boundedness_verdict
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.equivalence import same_pushforwards
from exactmdp.mdp import DecisionRule, Mdp, count_rules, enumerate_decision_rules
from exactmdp.partition import canonical_partition


def family_a(seed):
    return random_mdp(random.Random(seed), max_states=3, max_actions=2, max_den=2)


def family_b(seed):
    return random_mdp(
        random.Random(10000 + seed), max_states=4, max_actions=2, max_den=3
    )


MODELS = (
    [(e, lambda e=e: build_example(e).mdp) for e in EXAMPLE_IDS]
    + [(f"a{s}", lambda s=s: family_a(s)) for s in range(400)]
    + [(f"b{s}", lambda s=s: family_b(s)) for s in range(150)]
)


def certificate_searches():
    """(mdp, point, phi, psi) for every rational irregular point whose
    one-sided optimal sets are single rules: the points where condition A
    runs its certificate search."""
    for _, build in MODELS:
        mdp = build()
        for ip in canonical_partition(mdp).irregular_points:
            if not (isinstance(ip.point, F) and 0 < ip.point < 1):
                continue
            _, d_minus, _, d_plus, _ = _require_irregular(mdp, ip.point)
            if count_rules(d_minus) == 1 and count_rules(d_plus) == 1:
                yield mdp, ip.point, smallest_rule(d_minus), smallest_rule(d_plus)


SEARCHES = list(certificate_searches())


def reference(mdp, phi, psi):
    return lambda w: pushforwards_equal(mdp, phi, w, psi, w)


def nullspace(rows, m):
    """A basis of {w : row·w = 0 for every row}, over the rationals."""
    rows = [list(map(F, r)) for r in rows]
    pivots = []
    for col in range(m):
        i = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        r = len(pivots)
        rows[r], rows[i] = rows[i], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for j in range(len(rows)):
            if j != r and rows[j][col]:
                rows[j] = [a - rows[j][col] * b for a, b in zip(rows[j], rows[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(m) if c not in pivots):
        w = [F(0)] * m
        w[free] = F(1)
        for r, col in enumerate(pivots):
            w[col] = -rows[r][free]
        basis.append(tuple(w))
    return basis


def first_step_kernel_vectors(mdp, phi, psi):
    """Vectors with P_phi w = P_psi w: a basis of that kernel, the basis
    vectors' sum, and the sum with the constant vector added."""
    p1, p2 = mdp.transition_matrix(phi), mdp.transition_matrix(psi)
    rows = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(p1, p2)]
    basis = nullspace(rows, mdp.m)
    total = tuple(map(sum, zip(*basis))) if basis else (F(0),) * mdp.m
    return basis + [total, tuple(x + 3 for x in total)]


def test_searches_cover_the_families():
    assert len(SEARCHES) >= 20
    assert {mdp.m for mdp, *_ in SEARCHES} >= {2, 3, 4}


def test_kernel_test_matches_reference_on_every_horizon():
    outcomes = set()
    for mdp, point, phi, psi in SEARCHES:
        in_kernel, want = same_pushforwards(mdp, phi, psi), reference(mdp, phi, psi)
        v_inf = canonical_partition(mdp).optimal_at(mdp, point).v_alpha.values
        for step in value_iteration(mdp, point, A_HORIZON):
            w = tuple(v - u for v, u in zip(v_inf, step.value.values))
            outcomes.add(in_kernel(w))
            assert in_kernel(w) == want(w), (point, step.horizon)
    assert outcomes == {True, False}


def test_kernel_test_matches_reference_past_the_first_step():
    outcomes = set()
    for mdp, _, phi, psi in SEARCHES:
        in_kernel, want = same_pushforwards(mdp, phi, psi), reference(mdp, phi, psi)
        for w in first_step_kernel_vectors(mdp, phi, psi):
            outcomes.add(in_kernel(w))
            assert in_kernel(w) == want(w), w
    assert outcomes == {True, False}


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_kernel_test_matches_reference_on_every_corpus_pair(example_id):
    mdp = build_example(example_id).mdp
    rules = enumerate_decision_rules(mdp)
    vectors = list(product(range(-1, 2), repeat=mdp.m))
    for phi, psi in product(rules, repeat=2):
        in_kernel, want = same_pushforwards(mdp, phi, psi), reference(mdp, phi, psi)
        for w in vectors + first_step_kernel_vectors(mdp, phi, psi):
            w = tuple(map(F, w))
            assert in_kernel(w) == want(w), (phi, psi, w)


def test_one_state_model_accepts_every_vector():
    mdp = Mdp(
        ("s",), (("a", "b"),), (((F(1),), (F(1),)),), ((F(1), F(2)),), (F(0),)
    )
    phi, psi = DecisionRule((0,)), DecisionRule((1,))
    for w in ((F(0),), (F(5, 3),), (F(-7),)):
        assert same_pushforwards(mdp, phi, psi)(w) is True
        assert pushforwards_equal(mdp, phi, w, psi, w)


def test_equal_transition_matrices_accept_every_vector():
    # s0's two actions share one transition row and differ in reward
    half = (F(1, 2), F(1, 2))
    mdp = Mdp(
        ("s0", "s1"),
        (("a", "b"), ("c",)),
        ((half, half), ((F(1, 3), F(2, 3)),)),
        ((F(0), F(1)), (F(2),)),
        (F(0), F(0)),
    )
    phi, psi = DecisionRule((0, 0)), DecisionRule((1, 0))
    assert mdp.transition_matrix(phi) == mdp.transition_matrix(psi)
    for rule1, rule2 in ((phi, psi), (phi, phi)):
        in_kernel = same_pushforwards(mdp, rule1, rule2)
        for w in product((F(-2), F(1, 3), F(4)), repeat=2):
            assert in_kernel(w) is True
            assert pushforwards_equal(mdp, rule1, w, rule2, w)


@pytest.mark.parametrize(
    "seed, point", [(236, F(2, 3)), (264, F(1, 2))]
)
def test_verdict_equals_the_reference_search(monkeypatch, seed, point):
    # at these points the t >= 2 rows of the kernel decide the certificate
    mdp = random_mdp(random.Random(seed), 3, 2, 2)
    got = boundedness_verdict(mdp, point)
    monkeypatch.setattr(conditions, "same_pushforwards", reference)
    assert got == boundedness_verdict(mdp, point)
