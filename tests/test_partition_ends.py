"""The canonical partition near the ends of [0, 1).

An irrational point whose isolating bracket reached the bound 0 or 1 left
an empty gap next to that bound, and the partition stopped with
"empty gap between partition points".  Brackets are now refined until they
lie strictly inside (0, 1).  A bracket could also end exactly on a rational
partition point, with the same result; brackets are now refined until their
closed hulls hold no rational partition point.  The property test checks, over a seeded family
of 2-4-state MDPs, that the partition returns and that its sets agree with
pointwise policy iteration.
"""

import random
from fractions import Fraction as F

import pytest

from conftest import random_mdp
from exactmdp.bellman import optimal_set, rules_from_action_sets
from exactmdp.exactarith import IsolatedRoot, Polynomial
from exactmdp.mdp import Mdp, count_rules
from exactmdp.partition import (
    _rational_inside,
    canonical_partition,
    point_position,
    symbolic_value_iteration,
)
from exactmdp.turnpike import turnpike_intervals


def d_rules(mdp: Mdp, alpha: F):
    return rules_from_action_sets(optimal_set(mdp, alpha).d_alpha_sets)


def assert_partition_agrees(mdp: Mdp):
    part = canonical_partition(mdp)
    for iv in part.intervals:
        assert rules_from_action_sets(iv.d_set) == d_rules(
            mdp, _rational_inside(iv.lo, iv.hi)
        )
    for ip in part.irregular_points:
        lo, hi = point_position(ip.point)
        assert 0 <= lo <= hi < 1
        if isinstance(ip.point, F):
            assert rules_from_action_sets(ip.d_at) == d_rules(mdp, ip.point)
        else:
            assert 0 < lo
    return part


def seed_6():
    return random_mdp(random.Random(6), max_states=3, max_actions=2, max_den=2)


def seed_35():
    return random_mdp(random.Random(35), max_states=3, max_actions=2, max_den=4)


def seed_1460():
    return random_mdp(
        random.Random(1460),
        max_states=3,
        max_actions=2,
        max_den=2,
        reward_lo=0,
        reward_hi=2,
    )


class TestNamedSeeds:
    def test_seed_6_bracket_clear_of_one(self):
        part = assert_partition_agrees(seed_6())
        (ip,) = part.irregular_points
        root = ip.point
        # the root of a^2 + 3a - 2 (about 0.5616), once bracketed by (1/2, 1)
        assert isinstance(root, IsolatedRoot)
        assert root.defining == Polynomial([F(-2), F(3), F(1)])
        assert F(1, 2) <= root.lo and root.hi < 1

    def test_seed_35(self):
        assert_partition_agrees(seed_35())

    def test_seed_1460_bracket_clear_of_rational_point(self):
        # the bracket (7/32, 1/4) of a root once ended on the candidate 1/4
        part = assert_partition_agrees(seed_1460())
        assert [ip.kind for ip in part.irregular_points] == ["touching", "break"]
        assert part.irregular_points[0].point == 0
        root = part.irregular_points[1].point
        assert isinstance(root, IsolatedRoot)
        assert root.defining == Polynomial([F(-4), F(10), F(3)])

    @pytest.mark.parametrize("build", [seed_6, seed_35, seed_1460])
    def test_symbolic_levels_and_turnpike_map_near_the_ends(self, build):
        mdp = build()
        for level in symbolic_value_iteration(mdp, 5)[1:]:
            for cut in level.cuts:
                lo, hi = point_position(cut)
                assert 0 < lo <= hi < 1
        tmap = turnpike_intervals(mdp, F(1, 100), F(99, 100), n_cap=6)
        assert tmap.spans


def seeded_family(count: int, max_den: int, seed: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        mdp = random_mdp(rng, max_states=4, max_actions=3, max_den=max_den)
        if mdp.m >= 2 and count_rules(mdp.actions) <= 27:
            out.append(mdp)
    return out


@pytest.mark.parametrize("max_den,seed", [(4, 1), (2, 2)])
def test_partition_returns_and_agrees_with_optimal_set(max_den, seed):
    for mdp in seeded_family(30, max_den, seed):
        assert_partition_agrees(mdp)
