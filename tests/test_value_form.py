"""One value-function form: each rule's values are its unreduced solve (N, Δ).

``PartitionReport.value_functions[rule]`` is ``_value_solve``'s output, the
numerators N_x and the determinant Δ, with V_x = N_x / Δ and Δ > 0 on
[0, 1).  The partition keys rule classes by (N, Δ) divided by the gcd of its
polynomials (``_class_key``), screens each class's differences
N_x·Δ' − N'_x·Δ (``value_difference``) by Descartes' rule and isolates
roots on each one divided by its gcd with Δ·Δ' (``_crossing_numerators``);
``values_at``, ``optimal_at`` and D at an irrational point read (N, Δ), and
condition B's tangency test compares ``value_slopes``.

The reference is ``frozen_values``: the reduced ``RationalFunction`` form
and the class loop on it.  On the corpus, a 40-seed 3×3 family and 13
``mdpgen`` sizes up to 5×5 and 6×3, the keys must group the rules as the
reduced tuples do and in the same order, the class loop must isolate roots
on the same polynomials up to a constant, and values, ``optimal_at`` and
whole partitions must be equal, brackets and ``defining`` included.
"""

from fractions import Fraction as F
from functools import cache
from unittest import mock

import pytest

import frozen_values
from conftest import mdpgen
from exactmdp import docio, partition
from exactmdp.bellman import smallest_rule
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.partition import _class_key, _crossing_numerators, canonical_partition
from exactmdp.polyarith import (
    IsolatedRoot,
    _poly,
    _primitive_ints,
    isolate_roots,
    point_position,
    points_equal,
    simplest_fraction_between,
    value_slopes,
    values_at,
)

FAMILY_SEEDS = range(100, 140)
SIZES = (
    (3, 3, 0), (3, 3, 1), (3, 3, 2), (4, 2, 0), (4, 2, 1), (4, 3, 0), (4, 3, 1),
    (4, 3, 2), (4, 4, 0), (4, 4, 1), (4, 4, 2), (5, 5, 0), (6, 3, 0),
)
MODELS = (
    [f"corpus-{eid}" for eid in EXAMPLE_IDS]
    + [f"family-{seed}" for seed in FAMILY_SEEDS]
    + [f"size-{s}x{a}-{seed}" for s, a, seed in SIZES]
)
ALPHAS = (F(0), F(1, 7), F(1, 2), F(2, 3), F(9, 10), F(99, 100))


@cache
def model(name):
    """(mdp, report, reference report) of one named model."""
    kind, _, rest = name.partition("-")
    if kind == "corpus":
        mdp = build_example(rest).mdp
    elif kind == "family":
        mdp = docio.mdp_from_document(mdpgen.random_document(3, 3, 4, int(rest)))
    else:
        shape, seed = rest.split("-")
        s, a = map(int, shape.split("x"))
        mdp = docio.mdp_from_document(mdpgen.random_document(s, a, 8, int(seed)))
    return mdp, canonical_partition(mdp), frozen_values.canonical_partition(mdp)


def reduced(mdp, report, rule):
    return frozen_values.reduced_values(mdp.m, *report.value_functions[rule])


def first_index(keys):
    """Each entry's class, named by the index of its first occurrence."""
    seen = {}
    return [seen.setdefault(k, len(seen)) for k in keys]


def assert_points_equal(a, b):
    assert points_equal(a, b)
    assert a == b  # brackets and defining polynomials too
    assert type(a) is type(b)


def gaps(report):
    """Each final gap's closed hull and its smallest optimal rule."""
    for iv in report.intervals:
        yield point_position(iv.lo)[0], point_position(iv.hi)[1], smallest_rule(iv.d_set)


def interior_rationals(report):
    for iv in report.intervals:
        yield simplest_fraction_between(point_position(iv.lo)[1], point_position(iv.hi)[0])


@pytest.mark.parametrize("name", MODELS)
def test_partition_equals_reduced_form(name):
    _, got, want = model(name)
    assert len(got.irregular_points) == len(want.irregular_points)
    for a, b in zip(got.irregular_points, want.irregular_points):
        assert_points_equal(a.point, b.point)
        assert (a.kind, a.d_at, a.d_left, a.d_right) == (b.kind, b.d_at, b.d_left, b.d_right)
    assert len(got.intervals) == len(want.intervals)
    for a, b in zip(got.intervals, want.intervals):
        assert_points_equal(a.lo, b.lo)
        assert_points_equal(a.hi, b.hi)
        assert a.d_set == b.d_set
    assert_points_equal(got.blackwell_point, want.blackwell_point)


@pytest.mark.parametrize("name", MODELS)
def test_class_keys_group_rules_as_reduced_values_do(name):
    mdp, report, _ = model(name)
    rules = list(report.value_functions)
    keys = [_class_key(report.value_functions[r]) for r in rules]
    reduced_tuples = [reduced(mdp, report, r) for r in rules]
    assert first_index(keys) == first_index(reduced_tuples)
    # a key is the lcm of the reduced denominators over Δ(0) > 0
    for key, values in zip(keys, reduced_tuples):
        nums, det = key
        assert det[0] > 0
        assert values_at(key, F(1, 3)) == frozen_values.values_at(values, F(1, 3))


@pytest.mark.parametrize("name", MODELS)
def test_class_loop_isolates_the_same_numerators(name):
    mdp, report, _ = model(name)
    rules = list(report.value_functions)
    keys = list(dict.fromkeys(_class_key(report.value_functions[r]) for r in rules))
    classes = frozen_values.value_classes(mdp, rules)
    assert len(keys) == len(classes)
    hulls = list(gaps(report)) + [(F(0), F(1), smallest_rule(report.sets_around(F(1, 2))[1]))]
    for lo, hi, best in hulls:
        vstar, rstar = report.value_functions[best], reduced(mdp, report, best)
        for key, vec in zip(keys, classes):
            got = _crossing_numerators(vstar, key, lo, hi)
            want = frozen_values.class_numerators(rstar, vec, lo, hi)
            if got and want:
                assert [_primitive_ints(u) for u in got] == [
                    _primitive_ints(d.ints) for d in want
                ]
            else:
                # a screen clears a class only when no difference has a root
                for num in [_poly(u) for u in got] + want:
                    assert isolate_roots(num, lo, hi) == []
    # unscreened, the two loops hand isolation the same polynomials, on
    # every gap: with the screen off the numerators do not depend on it
    for best in dict.fromkeys(best for _, _, best in hulls):
        vstar, rstar = report.value_functions[best], reduced(mdp, report, best)
        for key, vec in zip(keys, classes):
            with mock.patch.object(partition, "descartes_bound", lambda a, lo, hi: 1):
                got = _crossing_numerators(vstar, key, F(0), F(1))
            diffs = [a - b for a, b in zip(rstar, vec)]
            assert [_primitive_ints(u) for u in got] == [
                _primitive_ints(d.num.ints) for d in diffs if not d.is_zero
            ]


@pytest.mark.parametrize("name", MODELS)
def test_values_and_slopes_equal_reduced_form(name):
    mdp, report, _ = model(name)
    rules = list(report.value_functions)
    for rule in rules[:: max(1, len(rules) // 40)]:
        values, want = report.value_functions[rule], reduced(mdp, report, rule)
        for alpha in ALPHAS:
            assert values_at(values, alpha) == frozen_values.values_at(want, alpha)
            assert value_slopes(values, alpha) == tuple(
                f.derivative()(alpha) for f in want
            )


@pytest.mark.parametrize("name", MODELS)
def test_optimal_at_equals_reduced_form(name):
    mdp, report, want = model(name)
    alphas = [F(0), *interior_rationals(report)]
    alphas += [ip.point for ip in report.irregular_points if isinstance(ip.point, F)]
    for alpha in alphas:
        assert report.optimal_at(mdp, alpha) == frozen_values.optimal_at(want, mdp, alpha)


def test_the_models_reach_the_class_loop():
    """The family has irregular points, rational and irrational, so the
    class loop and D at irrational points are exercised."""
    points = [ip.point for name in MODELS for ip in model(name)[1].irregular_points]
    assert sum(isinstance(p, IsolatedRoot) for p in points) >= 5
    assert sum(isinstance(p, F) and p > 0 for p in points) >= 5
