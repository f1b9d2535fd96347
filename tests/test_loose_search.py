"""The partition's class search driven by the optimal rule's advantages.

For a gap that fails the break-free certificate, pi* is the smallest rule
optimal at its sample point and A(s, a) the advantages over pi*'s values.
A loose action has a nonzero advantage numerator with a Descartes count
above 0 on the gap's open hull.  For any rule sigma,
V_pi* - V_sigma = (I - alpha·P_sigma)^-1 (-A_sigma), and the resolvent is
nonnegative with a positive diagonal, so a rule that uses no loose action
has every value difference identically 0 or positive on the open hull and
yields no candidate point: only rules through loose actions are keyed and
screened.  A gap whose pi* had the class path run on a hull containing the
gap's hull is skipped, as every root it could give is already a point.
D at an irrational point is read off the same advantages: a is conserving
at s exactly when A(s, a) vanishes there.

The reference is ``frozen_values.canonical_partition``, which screens every
class in every gap and switches rules to read D at a root.  Points (with
their brackets and ``defining`` polynomials), kinds and sets must be equal.
"""

import random
from functools import cache
from unittest import mock

import pytest

import frozen_values
from conftest import mdpgen, random_mdp
from exactmdp import docio, partition
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.partition import canonical_partition
from exactmdp.polyarith import IsolatedRoot

PARTITION_DOCUMENTS = [(s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2)]
SIZES = [(4, 4, 0), (4, 4, 1), (4, 4, 2), (5, 5, 0), (6, 3, 0)]
DENS = (2, 3, 4, 8)


@cache
def model(name):
    kind, _, key = name.partition("-")
    if kind == "corpus":
        return build_example(key).mdp
    if kind == "doc":
        states, actions, index = map(int, key.split("-"))
        return docio.mdp_from_document(mdpgen.random_document(states, actions, 8, index))
    if kind == "seed":
        return random_mdp(random.Random(int(key)), 4, 3)
    den, seed = map(int, key.split("-"))  # kind == "den"
    return random_mdp(random.Random(f"{den}/{seed}"), 4, 3, den, -2, 2)


def doc_name(states, actions, index):
    return f"doc-{states}-{actions}-{index}"


GROUPS = {
    "corpus-and-documents": [f"corpus-{e}" for e in EXAMPLE_IDS]
    + [doc_name(*doc) for doc in PARTITION_DOCUMENTS],
    **{
        f"seeds-{k}": [f"seed-{seed}" for seed in range(k, 200, 4)]
        for k in range(4)
    },
    **{f"den-{den}": [f"den-{den}-{seed}" for seed in range(160)] for den in DENS},
    **{doc_name(*size): [doc_name(*size)] for size in SIZES},
}


@cache
def reference(name):
    return frozen_values.canonical_partition(model(name))


def report_of(part):
    """Everything of a report but its value functions, whose forms differ."""
    return part.irregular_points, part.intervals, part.blackwell_point


def differs(name):
    """Does the partition of the named model differ from the reference, or
    fail its own hemicontinuity check?"""
    try:
        got = canonical_partition(model(name))
    except AssertionError:
        return True
    return report_of(got) != report_of(reference(name))


@pytest.mark.parametrize("group", GROUPS)
def test_partition_equals_the_all_classes_loop(group):
    for name in GROUPS[group]:
        # equality covers every bracket, defining polynomial, kind and set
        assert report_of(canonical_partition(model(name))) == report_of(reference(name)), name


def test_the_models_reach_irrational_points():
    points = [
        ip.point
        for names in GROUPS.values()
        for name in names
        for ip in reference(name).irregular_points
    ]
    assert sum(isinstance(p, IsolatedRoot) for p in points) >= 100


# -- work counts -------------------------------------------------------------------

# Upper bounds on the class screens (``_crossing_numerators``) and rule solves
# (``_value_solve``) of one ``canonical_partition``.  Screening every class in
# every failing gap took 81 screens and 27 solves on 3×3 document 0, 3,072
# screens on 4×4 document 1, 2,187 on 6×3 document 0, and 9,375 screens and
# 3,125 solves on 5×5 document 0.
WORK_BOUNDS = [
    ((3, 3, 0), 18, 18),
    ((4, 4, 1), 432, None),
    ((6, 3, 0), 486, None),
    ((5, 5, 0), 1_250, 1_250),
]


@pytest.mark.parametrize(
    "doc, screens, solves", WORK_BOUNDS, ids=[doc_name(*doc) for doc, _, _ in WORK_BOUNDS]
)
def test_work_counts(monkeypatch, doc, screens, solves):
    calls = {"_crossing_numerators": 0, "_value_solve": 0}
    for name in calls:
        original = getattr(partition, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(partition, name, counting)
    canonical_partition(model(doc_name(*doc)))
    assert calls["_crossing_numerators"] <= screens
    if solves is not None:
        assert calls["_value_solve"] <= solves


# -- mutations ---------------------------------------------------------------------


def test_loose_sets_that_ignore_a_state_fail():
    original = partition._loose_actions

    def without_last(advantages, lo, hi):
        return original(advantages, lo, hi)[:-1] + [set()]

    def without_first(advantages, lo, hi):
        return [set()] + original(advantages, lo, hi)[1:]

    with mock.patch.object(partition, "_loose_actions", without_last):
        assert differs("seed-7")
        assert differs("den-2-23")
    with mock.patch.object(partition, "_loose_actions", without_first):
        assert differs("corpus-ex4")
        assert differs(doc_name(3, 3, 0))


def test_skipping_a_repeated_optimal_rule_without_the_hull_test_fails():
    with mock.patch.object(partition, "_hull_within", lambda hulls, lo, hi: bool(hulls)):
        for name in ("den-2-3", "den-3-151", "den-8-44"):
            assert differs(name), name


def test_a_zero_advantage_read_as_not_conserving_fails():
    original = partition.polynomial_vanishes_at

    def nonzero_only(p, root):
        return not p.is_zero and original(p, root)

    with mock.patch.object(partition, "polynomial_vanishes_at", nonzero_only):
        assert differs(doc_name(3, 3, 0))
        assert differs("seed-3")
