"""D(alpha) and V*(alpha) read off the canonical partition.

``PartitionReport.optimal_at`` takes D from the partition and V* from the
stored value functions of D's smallest rule, and certifies both with one
integer Q pass.  It must equal ``optimal_set`` (policy iteration) as an
``OptSets`` at every interval's simplest interior rational, every rational
irregular point, alpha = 0 and the 20 points a ``sweep`` over
[1/100, 9/10] visits; and a report whose sets are wrong at alpha must fail
the certificate instead of answering.
"""

import dataclasses
import random
from fractions import Fraction as F

import pytest

from conftest import mdpgen, random_mdp
from exactmdp import docio
from exactmdp.bellman import optimal_set, smallest_rule
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.partition import canonical_partition
from exactmdp.polyarith import Polynomial, point_position, simplest_fraction_between

# the benchmark's random-partition family
PARTITION_FAMILY = [(s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2)]
SWEEP = [F(1, 100) + (F(9, 10) - F(1, 100)) * F(i, 21) for i in range(1, 21)]


def interior_rationals(part) -> list[F]:
    return [
        simplest_fraction_between(point_position(iv.lo)[1], point_position(iv.hi)[0])
        for iv in part.intervals
    ]


def probe_points(part) -> list[F]:
    rational_points = [
        ip.point for ip in part.irregular_points if isinstance(ip.point, F)
    ]
    return sorted({F(0), *interior_rationals(part), *rational_points, *SWEEP})


def assert_read_off_equals_solve(mdp):
    part = canonical_partition(mdp)
    for alpha in probe_points(part):
        assert part.optimal_at(mdp, alpha) == optimal_set(mdp, alpha), alpha


def other_sets(mdp, sets):
    """A product of action sets different from ``sets``."""
    every = tuple(frozenset(range(mdp.action_count(s))) for s in range(mdp.m))
    if sets != every:
        return every
    return tuple(frozenset({min(s)}) for s in sets)


def assert_wrong_sets_fail(mdp):
    """Give one interval another interval's set (or, with one set only, a
    different product) and read at its interior: the Q pass must object."""
    part = canonical_partition(mdp)
    alphas = interior_rationals(part)
    for i, iv in enumerate(part.intervals):
        others = [o.d_set for o in part.intervals if o.d_set != iv.d_set]
        swapped = others[0] if others else other_sets(mdp, iv.d_set)
        intervals = list(part.intervals)
        intervals[i] = dataclasses.replace(iv, d_set=swapped)
        broken = dataclasses.replace(part, intervals=tuple(intervals))
        with pytest.raises(AssertionError):
            broken.optimal_at(mdp, alphas[i])


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_corpus(example_id):
    assert_read_off_equals_solve(build_example(example_id).mdp)


@pytest.mark.parametrize("states, actions, index", PARTITION_FAMILY)
def test_benchmark_partition_family(states, actions, index):
    doc = mdpgen.random_document(states, actions, 8, index)
    assert_read_off_equals_solve(docio.mdp_from_document(doc))


@pytest.mark.parametrize("seed", range(32))
def test_random(seed):
    assert_read_off_equals_solve(
        random_mdp(random.Random(seed), max_states=3, max_actions=3)
    )


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_corpus_with_a_wrong_interval_set_fails(example_id):
    assert_wrong_sets_fail(build_example(example_id).mdp)


@pytest.mark.parametrize("seed", range(8))
def test_random_with_a_wrong_interval_set_fails(seed):
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_states=3, max_actions=3)
    while all(len(acts) == 1 for acts in mdp.actions):  # one rule, one product
        mdp = random_mdp(rng, max_states=3, max_actions=3)
    assert_wrong_sets_fail(mdp)


def test_wrong_set_at_an_irregular_point_fails():
    mdp = build_example("ex4").mdp
    part = canonical_partition(mdp)
    ip = part.irregular_points[0]
    assert ip.point == F(1, 2)
    broken = dataclasses.replace(
        part, irregular_points=(dataclasses.replace(ip, d_at=ip.d_left),)
    )
    with pytest.raises(AssertionError):
        broken.optimal_at(mdp, F(1, 2))


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_values_off_by_a_constant_fail(example_id):
    """V* + 1 has the same argmax sets as V* (each transition row sums to
    1), so only the fixed-point half of the check can object."""
    mdp = build_example(example_id).mdp
    part = canonical_partition(mdp)
    for iv, alpha in zip(part.intervals, interior_rationals(part)):
        rule = smallest_rule(iv.d_set)
        shifted = dict(part.value_functions)
        nums, det = shifted[rule]
        # V + 1 = (N + Δ) / Δ
        plus_one = tuple((Polynomial(num) + Polynomial(det)).ints for num in nums)
        shifted[rule] = (plus_one, det)
        broken = dataclasses.replace(part, value_functions=shifted)
        with pytest.raises(AssertionError):
            broken.optimal_at(mdp, alpha)
