"""Cross-validation of the canonical partition against dense exhaustive
sampling: the set map read off the partition must agree with per-rule
exhaustive evaluation at many rationals, and the reported points must be
exactly the places where the set map changes.  At irrational points, where
no rational can be sampled, D is checked against a test of every rule."""

import random
from fractions import Fraction as F

import pytest

from exactmdp.bellman import evaluate_deterministic, rules_from_action_sets
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.exactarith import (
    IsolatedRoot,
    polynomial_vanishes_at,
    value_rational_function,
)
from exactmdp.mdp import enumerate_decision_rules
from exactmdp.partition import canonical_partition, point_position

from conftest import random_mdp


def exhaustive_d(mdp, alpha):
    rules = enumerate_decision_rules(mdp)
    values = {r: evaluate_deterministic(mdp, r, alpha).values for r in rules}
    best = tuple(max(values[r][i] for r in rules) for i in range(mdp.m))
    return [r for r in rules if values[r] == best]


def dense_check(mdp, denominator=97):
    """Partition-implied sets equal exhaustive sets on a prime-denominator
    grid (prime so that grid points never collide with low-denominator
    irregular points by accident)."""
    part = canonical_partition(mdp)
    for k in range(0, denominator):
        alpha = F(k, denominator)
        _, d_at, _ = part.sets_around(alpha)
        assert rules_from_action_sets(d_at) == exhaustive_d(mdp, alpha), (alpha, mdp)
    return part


def rational_points_checked(mdp):
    """Immediately left and right of each rational irregular point the sets
    differ from the point set in the advertised way.  Returns how many of
    the points checked lie inside (0, 1)."""
    part = canonical_partition(mdp)
    eps = F(1, 10**6)
    inside = 0
    for ip in part.irregular_points:
        if not isinstance(ip.point, F):
            continue
        at, left, right = map(rules_from_action_sets, (ip.d_at, ip.d_left, ip.d_right))
        d_at = exhaustive_d(mdp, ip.point)
        assert d_at == at
        if ip.point > 0:
            assert exhaustive_d(mdp, ip.point - eps) == left
            inside += 1
        assert exhaustive_d(mdp, ip.point + eps) == right
        assert (left != right) or (set(at) != set(left) | set(right))
    return inside


class TestPartitionAgainstDenseSampling:
    def test_corpus(self):
        from exactmdp.corpus import EXAMPLE_IDS, build_example

        for ex in EXAMPLE_IDS:
            dense_check(build_example(ex).mdp)

    def test_random_small(self, rng):
        for _ in range(8):
            dense_check(random_mdp(rng, max_states=3, max_actions=2))

    def test_random_larger(self):
        rng = random.Random(424242)
        for _ in range(3):
            dense_check(random_mdp(rng, max_states=4, max_actions=3), 53)

    def test_reported_points_are_actual_set_changes(self, rng):
        # about one draw in 22 has a rational irregular point inside (0, 1),
        # so draw until six have one
        draws, checked = 0, []
        while len(checked) < 6:
            draws += 1
            n = rational_points_checked(random_mdp(rng, max_states=3, max_actions=2))
            if n:
                checked.append(n)
        assert (draws, checked) == (111, [1] * 6)

    @pytest.mark.parametrize("example_id", ["ex4", "ex5", "ex6", "remark-variant"])
    def test_reported_points_on_corpus(self, example_id):
        assert rational_points_checked(build_example(example_id).mdp) == 1

    def test_interval_interiors_are_constant(self, rng):
        for _ in range(6):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            part = canonical_partition(mdp)
            for iv in part.intervals:
                lo = point_position(iv.lo)[1]
                hi = point_position(iv.hi)[0]
                for j in range(1, 6):
                    alpha = lo + (hi - lo) * F(j, 6)
                    if not lo < alpha < hi:
                        continue
                    assert exhaustive_d(mdp, alpha) == rules_from_action_sets(iv.d_set)


def all_rules_d_at(mdp, part, ip):
    """D at an irrational irregular point by testing every rule: a rule is
    optimal there when its whole value vector meets that of the smallest
    rule optimal just left of the point."""
    vstar = value_rational_function(mdp, min(rules_from_action_sets(ip.d_left)))
    return [
        rule
        for rule in enumerate_decision_rules(mdp)
        if all(
            d.is_zero or polynomial_vanishes_at(d.num, ip.point)
            for d in (a - b for a, b in zip(vstar, value_rational_function(mdp, rule)))
        )
    ]


def irrational_points_checked(mdp):
    part = canonical_partition(mdp)
    checked = 0
    for ip in part.irregular_points:
        if isinstance(ip.point, IsolatedRoot):
            assert rules_from_action_sets(ip.d_at) == all_rules_d_at(mdp, part, ip)
            checked += 1
    return checked


class TestIrrationalPointSets:
    """D at an irrational point, read off single-state switches of one
    optimal rule, equals the all-rules test."""

    @pytest.mark.parametrize("example_id", EXAMPLE_IDS)
    def test_corpus(self, example_id):
        irrational_points_checked(build_example(example_id).mdp)

    def test_seeded_random_family(self):
        checked = sum(
            irrational_points_checked(random_mdp(random.Random(seed), 4, 3))
            for seed in range(200)
        )
        assert checked == 32
