"""The partition inserts each new candidate point next to its neighbours.

``polyarith.insert_point(points, new)`` takes a list that
``separate_points`` returned and leaves what ``separate_points(points +
[new])`` would leave, refining only the points whose closed hulls meet
new's, in the same order, with no sort; it returns False and changes
nothing when new equals one of the points.  ``partition._add_point`` calls
it for every candidate, so a partition of n points no longer sorts all of
them twice per candidate.

The differential tests check every call the partition makes on the
corpus, the benchmark's random-partition documents, the 640 seeded models
and the 6×3 document of seed 0, plus seeded point sets built to put
rationals on and inside brackets.
"""

import math
import random
from fractions import Fraction as F

import pytest

from conftest import family_mdp, random_mdp
from exactmdp import partition
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.partition import canonical_partition
from exactmdp.polyarith import (
    IsolatedRoot,
    Polynomial,
    insert_point,
    points_equal,
    separate_points,
)

PARTITION_FAMILY = [(s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2)]


def checked_insert(points, new, tally):
    """insert_point, held to separate_points(points + [new]) on this call."""
    before = list(points)
    if any(points_equal(p, new) for p in before):
        assert not insert_point(points, new)
        assert points == before
        tally["duplicate"] += 1
        return False
    want = separate_points(before + [new])
    assert insert_point(points, new)
    assert points == want  # every bracket's ends, not only the order
    tally["rational" if isinstance(new, F) else "bracket"] += 1
    return True


def partition_inserts(monkeypatch, mdps) -> dict:
    tally = {"rational": 0, "bracket": 0, "duplicate": 0}
    with monkeypatch.context() as patch:
        patch.setattr(
            partition, "insert_point", lambda points, new: checked_insert(points, new, tally)
        )
        for mdp in mdps:
            canonical_partition(mdp)
    return tally


def test_every_insertion_on_the_corpus_and_the_benchmark_family(monkeypatch):
    mdps = [build_example(e).mdp for e in EXAMPLE_IDS]
    mdps += [family_mdp(*shape) for shape in PARTITION_FAMILY]
    tally = partition_inserts(monkeypatch, mdps)
    assert tally["rational"] > 0 and tally["bracket"] > 0


@pytest.mark.parametrize("den", [2, 3, 4, 8])
def test_every_insertion_on_seeded_models(monkeypatch, den):
    mdps = [
        random_mdp(random.Random(f"{den}/{seed}"), 4, 3, den, -2, 2) for seed in range(160)
    ]
    tally = partition_inserts(monkeypatch, mdps)
    assert tally["bracket"] > 10 and tally["duplicate"] > 10


def test_every_insertion_on_six_by_three(monkeypatch):
    tally = partition_inserts(monkeypatch, [family_mdp(6, 3, 0)])
    assert tally["bracket"] > 200


# -- seeded point sets ------------------------------------------------------------


def sqrt_bracket(rng: random.Random, width: F) -> IsolatedRoot:
    """The root of den·a^2 - num in (0, 1), irrational, in a bracket of
    about the given width."""
    while True:
        den = rng.choice([3, 5, 7, 11, 13, 17])
        num = rng.randint(1, den - 1)
        if math.isqrt(num * den) ** 2 != num * den:
            root = IsolatedRoot(F(0), F(1), Polynomial([-num, 0, den]))
            return root.refined(width)


def rational_near(rng: random.Random, points: list) -> F:
    """A rational on, inside or beside one of the points' brackets."""
    brackets = [p for p in points if isinstance(p, IsolatedRoot)]
    if not brackets or rng.random() < 0.2:
        return F(rng.randint(1, 63), 64)
    br = rng.choice(brackets)
    return rng.choice([br.lo, br.hi, (br.lo + br.hi) / 2, br.lo + (br.hi - br.lo) / 3])


def test_equal_to_separating_again_on_seeded_sets():
    rng = random.Random(2023)
    tally = {"rational": 0, "bracket": 0, "duplicate": 0}
    refined = 0
    for _ in range(300):
        points = [F(rng.randint(1, 31), 32) for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 4)):
            br = sqrt_bracket(rng, F(1, rng.choice([2, 4, 8])))
            if not any(points_equal(br, q) for q in points):
                points.append(br)
        points = separate_points(points)
        for _ in range(rng.randint(1, 4)):
            if points and rng.random() < 0.1:  # a point already there
                new = rng.choice(points)
                if isinstance(new, IsolatedRoot):
                    new = new.refined((new.hi - new.lo) / 3)
            elif rng.random() < 0.5:
                new = rational_near(rng, points)
            else:
                new = sqrt_bracket(rng, F(1, rng.choice([1, 2, 4, 16])))
            before = list(points)
            checked_insert(points, new, tally)
            refined += any(p not in points for p in before)
    assert tally["rational"] > 100 and tally["bracket"] > 100
    assert tally["duplicate"] > 30 and refined > 30
