"""One routine keeps every sorted set of discount points apart.

``exactarith.separate_points`` sorts a set of points and refines its
brackets until no two neighbours touch: no bracket's closed hull holds a
rational point of the set or meets another bracket's.  It serves
``isolate_roots``, the partition's point insertion, symbolic value
iteration's step and the turnpike candidates.

Before it, the step separated its local points without clearing the
brackets of the rational ones, and a bracket whose end was a rational local
point left an empty gap: on the models of ``CRASHING``, symbolic value
iteration raised ``AssertionError: empty gap between partition points`` by
horizon 3, and so did everything built on it.  The regression and property
tests below fail on that form.  The differential tests hold every other
result to the earlier helpers, frozen in ``frozen_separation``.
"""

import json
import math
import random
from fractions import Fraction as F
from itertools import product

import pytest

import frozen_separation
from conftest import mdpgen, random_mdp
from exactmdp import cli, docio, exactarith, partition
from exactmdp.bellman import value_iteration
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.exactarith import (
    IsolatedRoot,
    Polynomial,
    clear_of,
    isolate_roots,
    point_position,
    separate_points,
)
from exactmdp.partition import (
    canonical_partition,
    first_step_classify,
    symbolic_value_iteration,
)
from exactmdp.turnpike import turnpike_cover, turnpike_intervals

# seeded as random_mdp(Random(key), 4, 3, 2, -2, 2)
CRASHING = ["2/120", "2/155", "g2/280", "g2/387"]
PARTITION_FAMILY = [(s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2)]
SEEDS = range(160)
HORIZON = 6
LO, HI, N_CAP = F(1, 100), F(9, 10), 7


def seeded(key: str, den: int = 2):
    return random_mdp(random.Random(key), 4, 3, den, -2, 2)


# 3a^3 - 6a + 2 has one irrational root in (1/3, 3/8), and none rational
CUBIC = Polynomial([2, -6, 0, 3])


# -- the routine ------------------------------------------------------------------


def test_bracket_leaves_a_rational_at_its_end():
    # the points of the step that crashed: 1/3 and the bracket (1/3, 3/8)
    root = IsolatedRoot(F(1, 3), F(3, 8), CUBIC)
    third, cleared = separate_points([root, F(1, 3)])
    assert third == F(1, 3)
    assert F(1, 3) < cleared.lo < cleared.hi < F(3, 8)
    assert cleared == clear_of(root, [F(1, 3)])


def test_records_follow_their_points():
    root = IsolatedRoot(F(1, 3), F(3, 8), CUBIC)
    out = separate_points([F(1, 2), root, F(1, 3)], ["half", "cubic", "third"])
    assert [r for _, r in out] == ["third", "cubic", "half"]
    assert out[1][0] == separate_points([F(1, 2), root, F(1, 3)])[1]


def test_clear_of_the_ends_is_the_earlier_helper():
    for pt in (
        IsolatedRoot(F(0), F(1), Polynomial([-1, 0, 2])),
        IsolatedRoot(F(0), F(1, 2), CUBIC),
        IsolatedRoot(F(1, 2), F(1), Polynomial([-1, 0, 2])),
        F(1, 3),
    ):
        assert clear_of(pt, (F(0), F(1))) == frozen_separation._clear_of_ends(pt)


def random_point_set(rng: random.Random) -> list:
    """Distinct rationals and irrational roots of a^2 - k/den in (0, 1),
    each root in a dyadic bracket that may end on one of the rationals."""
    rationals = sorted({F(rng.randint(1, 15), 16) for _ in range(rng.randint(0, 4))})
    points = list(rationals)
    squares = set()
    for _ in range(rng.randint(0, 4)):
        den = rng.choice([2, 3, 5, 7, 8])
        num = rng.randint(1, den - 1)
        if math.isqrt(num * den) ** 2 == num * den or F(num, den) in squares:
            continue
        squares.add(F(num, den))
        root = IsolatedRoot(F(0), F(1), Polynomial([-num, 0, den]))
        width = F(1, rng.choice([2, 4, 8, 16]))
        points.append(root.refined(width))
    rng.shuffle(points)
    return points


def test_equal_to_the_earlier_pair_then_clear():
    # the partition's insertion and the turnpike candidates separated with
    # _sorted_disjoint and then cleared each bracket of the rationals
    rng = random.Random(19)
    touched = 0
    for _ in range(300):
        points = random_point_set(rng)
        old = frozen_separation._sorted_disjoint(points)
        rationals = [p for p in old if isinstance(p, F)]
        cleared = [frozen_separation._clear_of(p, rationals) for p in old]
        touched += cleared != old
        assert separate_points(points) == cleared
    assert touched > 10


# -- regressions ------------------------------------------------------------------


def test_cli_interval_map_prints_spans(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(docio.dumps_document(docio.document_from_mdp(seeded("2/120"))))
    code = cli.main(["turnpike", str(path), "--interval", "1/100,9/10", "--ncap", "10"])
    out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["spans"]


@pytest.mark.parametrize("key", CRASHING)
def test_symbolic_levels_match_value_iteration(key):
    mdp = seeded(key)
    levels = symbolic_value_iteration(mdp, 3)
    for k in range(1, 29):
        alpha = F(k, 29)
        steps = value_iteration(mdp, alpha, 3)
        for n in (1, 2, 3):
            assert levels[n].sets_around(alpha)[1] == steps[n].first_step, (n, alpha)


@pytest.mark.parametrize("key", CRASHING)
def test_first_step_classify_and_cover(key):
    mdp = seeded(key)
    for alpha in (F(1, 3), F(1, 2), F(2, 3)):
        cls = first_step_classify(mdp, alpha, 3)
        assert cls.at == value_iteration(mdp, alpha, 3)[3].first_step
    cover = turnpike_cover(mdp, F(1, 100), F(1, 2), F(1, 10), n_cap=10)
    assert cover.pieces and cover.excised_measure < F(1, 10)


def test_every_level_keeps_its_cuts_apart():
    brackets = 0
    for den, seed in product((2, 3, 4), SEEDS):
        for level in symbolic_value_iteration(seeded(f"{den}/{seed}", den), HORIZON)[1:]:
            hulls = [point_position(c) for c in level.cuts]
            assert hulls == sorted(hulls)
            assert all(a[1] < b[0] for a, b in zip(hulls, hulls[1:])), (den, seed)
            rationals = [c for c in level.cuts if isinstance(c, F)]
            for c in level.cuts:
                if isinstance(c, IsolatedRoot):
                    brackets += 1
                    assert not any(c.lo <= q <= c.hi for q in rationals), (den, seed)
    assert brackets > 300


# -- differential: the earlier helpers as references -------------------------------


def model(model_id: str):
    kind, _, key = model_id.partition("-")
    if kind == "corpus":
        return build_example(key).mdp
    states, actions, index = PARTITION_FAMILY[int(key)]
    return docio.mdp_from_document(mdpgen.random_document(states, actions, 8, index))


def analyses(mdp, monkeypatch):
    """The partition, the symbolic levels and the interval map, with every
    isolate_roots argument they used; None in place of one that raises the
    empty-gap AssertionError."""
    calls = {}
    original = exactarith.isolate_roots

    def recording(*args):
        calls[args] = None
        return original(*args)

    out = []
    with monkeypatch.context() as patch:
        patch.setattr(exactarith, "isolate_roots", recording)
        patch.setattr(partition, "isolate_roots", recording)
        for run in (
            lambda: canonical_partition(mdp),
            lambda: symbolic_value_iteration(mdp, HORIZON),
            lambda: turnpike_intervals(mdp, LO, HI, N_CAP),
        ):
            try:
                out.append(run())
            except AssertionError as exc:
                assert str(exc) == "empty gap between partition points"
                out.append(None)
    return out, list(calls)


def compare(mdp, monkeypatch) -> int:
    """The number of results the references could not give.  Every result
    of the new routine exists, and equals the reference's wherever the
    reference raises nothing; so do the root isolations."""
    new, args = analyses(mdp, monkeypatch)
    assert None not in new
    roots = [isolate_roots(*a) for a in args]
    with monkeypatch.context() as patch:
        frozen_separation.use_frozen_separation(patch)
        old, _ = analyses(mdp, monkeypatch)
        assert roots == [isolate_roots(*a) for a in args]
    # equality covers every bracket, defining polynomial, set and span
    for n, o in zip(new, old):
        assert o is None or n == o
    return old.count(None)


@pytest.mark.parametrize(
    "model_id",
    [f"corpus-{e}" for e in EXAMPLE_IDS]
    + [f"family-{i}" for i in range(len(PARTITION_FAMILY))],
)
def test_equal_to_earlier_helpers(monkeypatch, model_id):
    assert compare(model(model_id), monkeypatch) == 0


@pytest.mark.parametrize("den", [2, 3, 4, 8])
def test_equal_to_earlier_helpers_on_seeded_models(monkeypatch, den):
    failed = {}
    for seed in SEEDS:
        if count := compare(seeded(f"{den}/{seed}", den), monkeypatch):
            failed[seed] = count
    # among these, the references crash on 2/120 and 2/155 only: in the
    # symbolic levels and in the interval map built on them
    assert failed == ({120: 2, 155: 2} if den == 2 else {})



# -- differential: the all-pairs pair pass -----------------------------------------


def overlapping_point_set(rng: random.Random) -> list:
    """Rationals and irrational roots of a^2 - k/den whose brackets are
    wide, so that most pairs of brackets meet."""
    points = sorted({F(rng.randint(1, 31), 32) for _ in range(rng.randint(0, 3))})
    squares = set()
    for _ in range(rng.randint(2, 9)):
        den = rng.choice([3, 5, 7, 11, 13])
        num = rng.randint(1, den - 1)
        if math.isqrt(num * den) ** 2 == num * den or F(num, den) in squares:
            continue
        squares.add(F(num, den))
        root = IsolatedRoot(F(0), F(1), Polynomial([-num, 0, den]))
        points.append(root.refined(F(1, rng.choice([1, 2, 3, 4]))))
    rng.shuffle(points)
    return points


def isolated_point_records(rng: random.Random) -> tuple[list, list]:
    """Distinct roots in (0, 1) of seeded integer polynomials, as
    ``isolate_roots`` gives them, with their (polynomial, multiplicity)
    records; brackets of different polynomials may meet."""
    points, records = [], []
    for index in range(rng.randint(2, 6)):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(3, 6))]
        if not any(coeffs[1:]):
            continue
        for pt, mult in isolate_roots(Polynomial(coeffs)):
            if not any(exactarith.points_equal(pt, q) for q in points):
                points.append(pt)
                records.append((index, mult))
    return points, records


def test_equal_to_the_all_pairs_loop_on_overlapping_brackets():
    rng = random.Random(22)
    refined = 0
    for _ in range(400):
        points = overlapping_point_set(rng)
        expected = frozen_separation.all_pairs_separate_points(points)
        assert separate_points(points) == expected
        records = list(range(len(points)))
        assert separate_points(points, records) == (
            frozen_separation.all_pairs_separate_points(points, records)
        )
        refined += sorted(points, key=point_position) != expected
    assert refined > 100


def test_equal_to_the_all_pairs_loop_on_isolated_roots():
    rng = random.Random(2022)
    brackets = meeting = 0
    for _ in range(300):
        points, records = isolated_point_records(rng)
        expected = frozen_separation.all_pairs_separate_points(points, records)
        assert separate_points(points, records) == expected
        roots = [p for p in points if isinstance(p, IsolatedRoot)]
        brackets += len(roots)
        meeting += sum(
            a.lo <= b.hi and b.lo <= a.hi for i, a in enumerate(roots) for b in roots[:i]
        )
    assert brackets > 200 and meeting > 20
