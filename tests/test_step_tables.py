"""Symbolic value iteration's step with per-piece screen tables and one
argmax per sub-piece.

At a state of three or more actions the step screens each pair with
``partition._table_excludes``: ``_excludes_roots``'s inequality read off
tables that ``_screen_tables`` builds once per piece, one centre dot
product per action and one slope dot product per pair.  The lowest-index
argmax of each open sub-piece is read once, at the simplest rational between
its edges, and an irrational left bound's tie set takes the best action of
the sub-piece right of it.  The tables must decide exactly as
``_excludes_roots`` on every pair of every piece, trailing zeros and
constant differences included; every level must equal the frozen step's
(``frozen_step``), brackets compared by ``==``; and the step must evaluate
one argmax per open sub-piece and isolate exactly the pairs its screens do
not clear.
"""

import operator
import random
from fractions import Fraction as F

import pytest

import frozen_step
from conftest import family_mdp
from exactmdp import partition
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.exactarith import (
    IsolatedRoot,
    _excludes_roots,
    _mul_ints,
    _sub_ints,
    point_position,
)
from exactmdp.partition import _screen_tables, _table_excludes, symbolic_value_iteration

PARTITION_FAMILY = [(s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2)]


def cases():
    """(id, mdp, horizon): the corpus to 15, the random-partition family to
    9, ex6 to 30, and two models of three and four actions to 6."""
    yield from ((ex, build_example(ex).mdp, 15) for ex in EXAMPLE_IDS)
    yield from (
        (f"r{s}x{a}-{i}", family_mdp(s, a, i), 9) for s, a, i in PARTITION_FAMILY
    )
    yield "ex6-30", build_example("ex6").mdp, 30
    yield from ((f"r{s}x{a}-{i}", family_mdp(s, a, i), 6) for s, a, i in [(4, 3, 0), (3, 4, 0)])


CASES = list(cases())
IDS = [c[0] for c in CASES]


def table_decision(a, b, lo, hi):
    centre, slope = _screen_tables(len(a), lo, hi)
    dot = sum(map(operator.mul, centre, a)) - sum(map(operator.mul, centre, b))
    return _table_excludes(dot, a, b, slope)


# -- the tables decide as _excludes_roots ---------------------------------------------


def compared_pairs(mdp, horizon) -> dict[str, int]:
    """Compare the tables with ``_excludes_roots`` on every nonzero pair of
    every piece of every level, on the piece's hull, whatever the state's
    action count; the counts of the kinds of pair compared."""
    kinds = {"pairs": 0, "trailing zeros": 0, "constant": 0, "certified": 0}
    for level in symbolic_value_iteration(mdp, horizon - 1):
        bounds = level.bounds()
        for idx, pvec in enumerate(level.pieces):
            qs, _ = partition._q_numerators(mdp, pvec)
            lo, hi = point_position(bounds[idx])[0], point_position(bounds[idx + 1])[1]
            centre, slope = _screen_tables(len(qs[0][0]), lo, hi)
            for q in qs:
                dots = [sum(map(operator.mul, centre, c)) for c in q]
                for a in range(len(q)):
                    for b in range(a + 1, len(q)):
                        diff = _sub_ints(q[a], q[b])
                        if not diff:
                            continue
                        got = _table_excludes(dots[a] - dots[b], q[a], q[b], slope)
                        assert got == _excludes_roots(diff, lo, hi), level.horizon
                        kinds["pairs"] += 1
                        kinds["trailing zeros"] += len(diff) < len(q[a])
                        kinds["constant"] += len(diff) == 1
                        kinds["certified"] += got
    return kinds


@pytest.mark.parametrize("name,mdp,horizon", CASES, ids=IDS)
def test_tables_decide_as_excludes_roots_on_every_pair(name, mdp, horizon):
    assert compared_pairs(mdp, horizon)["pairs"]


def test_the_pairs_compared_include_every_kind():
    """What the comparison needs to mean anything: certified and uncertified
    pairs, differences with trailing zeros, and constant differences."""
    totals = {}
    for _, mdp, horizon in CASES:
        for kind, n in compared_pairs(mdp, horizon).items():
            totals[kind] = totals.get(kind, 0) + n
    assert 0 < totals["certified"] < totals["pairs"]
    assert totals["trailing zeros"] and totals["constant"]


@pytest.mark.parametrize("seed", range(5))
def test_tables_decide_as_excludes_roots_on_seeded_pairs(seed):
    """Seeded pairs with planted roots, padded with zeros to a wider table,
    and constant differences, on wide, narrow and dyadic intervals."""
    rng = random.Random(f"tables/{seed}")
    certified = 0
    for _ in range(200):
        lo = F(rng.randint(-20, 20), rng.choice([1, 3, 10, 2**20]))
        hi = lo + F(1, rng.choice([1, 2, 7, 1000, 2**30]))
        diff = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.choice([-2, 1, 3])]
        if rng.random() < 0.5:
            r = lo + (hi - lo) * F(rng.randint(-4, 12), 8)
            diff = _mul_ints(diff, [-r.numerator, r.denominator])
        if rng.random() < 0.2:
            diff = [rng.choice([-5, 1, 4])]
        width = len(diff) + rng.randint(0, 3)
        b = [rng.randint(-50, 50) for _ in range(width)]
        a = [x + y for x, y in zip(b, diff + [0] * (width - len(diff)))]
        got = table_decision(a, b, lo, hi)
        assert got == _excludes_roots(diff, lo, hi), (diff, lo, hi)
        certified += got
    assert 20 < certified < 180


def test_constant_differences():
    for lo, hi in [(F(0), F(1)), (F(-3), F(7)), (F(1, 3), F(1, 2))]:
        assert table_decision([5, 1, 0], [0, 1, 0], lo, hi)
        assert table_decision([2], [-3], lo, hi)


# -- the step against the frozen step --------------------------------------------------


@pytest.mark.parametrize("name,mdp,horizon", CASES, ids=IDS)
def test_levels_equal_the_frozen_step(monkeypatch, name, mdp, horizon):
    new = symbolic_value_iteration(mdp, horizon)
    with monkeypatch.context() as patch:
        frozen_step.use_frozen_step(patch)
        old = symbolic_value_iteration(mdp, horizon)
    assert new == old
    if name.startswith("r3x3") or name == "ex6-30":
        # what the comparison needs to mean anything: irrational cuts
        assert any(isinstance(c, IsolatedRoot) for level in new for c in level.cuts)


# -- the work the step does -------------------------------------------------------------


def recorder(patch, name, log, wrap=None):
    original = getattr(partition, name)

    def recording(*args):
        out = original(*args)
        log.append((args, out) if wrap is None else wrap(args, out))
        return out

    patch.setattr(partition, name, recording)


@pytest.mark.parametrize("name,mdp,horizon", CASES, ids=IDS)
def test_one_argmax_per_sub_piece_and_isolation_of_unscreened_pairs(
    monkeypatch, name, mdp, horizon
):
    """Each step evaluates one argmax per open sub-piece: the previous
    level's pieces plus one per local cut that ``_settle_inside`` keeps.
    Each pair the screens do not clear, and no other, goes to isolation, and
    the table screen decides each pair as ``_excludes_roots`` on the piece's
    hull."""
    levels = symbolic_value_iteration(mdp, horizon)
    argmaxes, settled, isolations, screens, hulls = [], [], [], [], []
    with monkeypatch.context() as patch:
        recorder(patch, "_first_best", argmaxes)
        recorder(patch, "_settle_inside", settled)
        recorder(patch, "isolate_roots", isolations)
        recorder(patch, "_excludes_roots", screens, lambda args, out: out)
        recorder(patch, "_screen_tables", hulls, lambda args, out: args[1:])

        def table_screen(args, out):
            centre, a, b, slope = args
            assert out == _excludes_roots(_sub_ints(a, b), *hulls[-1])
            return out

        recorder(patch, "_table_excludes", screens, table_screen)
        for level in levels[:-1]:
            argmaxes.clear()
            settled.clear()
            isolations.clear()
            screens.clear()
            step = partition._step_piecewise(mdp, level)
            assert step == levels[level.horizon + 1]
            locals_kept = sum(out is not None for _, out in settled)
            assert len(argmaxes) == len(level.pieces) + locals_kept
            assert len(isolations) == screens.count(False)
