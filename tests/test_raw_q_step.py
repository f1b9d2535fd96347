"""Symbolic value iteration's step on raw integer Q numerators, with an O(d)
root-exclusion test in front of each pair's isolation.

``partition._q_numerators`` gives each piece's Q values as integer lists of
one common length over one denominator, so a pair difference is a list
subtraction, the argmax at a rational compares homogenized values, and an
interval set compares lists.  Before a pair difference goes to
``isolate_roots``, ``polyarith._excludes_roots`` tries to certify it
root-free on the piece's closed hull: |a(c)| at the midpoint c above the
half-width times Σ i·|a_i|·M^(i-1), M the larger end in magnitude.  A
certified pair has no root there, so isolation would have returned [].

The reference is the step as it was, frozen in ``frozen_step``: every
level must be equal, brackets included, and so must any exception.  The
exclusion test is held to root isolation on seeded polynomials, never
certifies a planted root, and is shown to catch a mutant without the
half-width factor.  The last test pins the Descartes transforms it saves.
"""

import math
import random
from fractions import Fraction as F

import pytest

import frozen_step
from conftest import mdpgen, random_mdp
from exactmdp import docio, polyarith
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.partition import symbolic_value_iteration
from exactmdp.polyarith import (
    IsolatedRoot,
    Polynomial,
    _excludes_roots,
    _homogeneous_value,
    _mul_ints,
    _poly,
    _sign_at,
    isolate_roots,
    point_sign,
)

PARTITION_FAMILY = [(s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2)]
LARGER = [(4, 3, 0), (4, 3, 1), (5, 2, 0), (3, 4, 0), (4, 4, 0), (5, 3, 0)]


def family_mdp(states, actions, index):
    return docio.mdp_from_document(mdpgen.random_document(states, actions, 8, index))


def outcome(mdp, horizon):
    """The levels, or the exception's type and message: the two steps must
    fail alike wherever they fail."""
    try:
        return symbolic_value_iteration(mdp, horizon)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def assert_same_levels(monkeypatch, mdp, horizon):
    got = outcome(mdp, horizon)
    with monkeypatch.context() as patch:
        frozen_step.use_frozen_step(patch)
        want = outcome(mdp, horizon)
    # equality covers every cut's bracket and defining polynomial, every
    # piece, and the interval, point and zero sets
    assert got == want
    return got


# -- every level equal to the frozen step -------------------------------------------


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_corpus(monkeypatch, example_id):
    levels = assert_same_levels(monkeypatch, build_example(example_id).mdp, 15)
    assert len(levels) == 16


@pytest.mark.parametrize("states, actions, index", PARTITION_FAMILY)
def test_benchmark_partition_family(monkeypatch, states, actions, index):
    levels = assert_same_levels(monkeypatch, family_mdp(states, actions, index), 9)
    assert len(levels) == 10


@pytest.mark.parametrize("states, actions, index", LARGER)
def test_larger_random_documents(monkeypatch, states, actions, index):
    levels = assert_same_levels(monkeypatch, family_mdp(states, actions, index), 7)
    assert len(levels) == 8


@pytest.mark.parametrize("den", [2, 3, 4, 8])
def test_seeded_models(monkeypatch, den):
    irrational = 0
    for seed in range(160):
        mdp = random_mdp(random.Random(f"{den}/{seed}"), 4, 3, den, -2, 2)
        levels = assert_same_levels(monkeypatch, mdp, 6)
        if isinstance(levels, list):
            irrational += any(
                isinstance(cut, IsolatedRoot) for level in levels for cut in level.cuts
            )
    # what the comparison needs to mean anything: irrational cuts
    assert irrational > 10


# -- the exclusion test ---------------------------------------------------------------


def no_half_width(a, lo, hi):
    """``_excludes_roots`` with the half-width factor dropped: it compares
    |a(c)| with Σ i·|a_i|·M^(i-1) alone, which is too weak a bound on an
    interval wider than 2."""
    q = math.lcm(lo.denominator, hi.denominator)
    l = lo.numerator * (q // lo.denominator)
    u = hi.numerator * (q // hi.denominator)
    centre = _homogeneous_value(a, l + u, 2 * q)
    slope = _homogeneous_value(
        [i * abs(c) for i, c in enumerate(a) if i], max(abs(l), abs(u)), q
    )
    return 2 * abs(centre) > (2 * q * slope << (len(a) - 1))


def seeded_case(rng):
    """(a, lo, hi): a nonzero integer polynomial of degree 0 to 8, often
    with rational roots planted near or in the interval, on an interval that
    is wide, narrow, dyadic or inside (0, 1)."""
    kind = rng.randrange(5)
    degree = rng.randint(0, 5)
    if kind == 0:  # wide, of either sign
        lo = F(rng.randint(-40, 30), 10)
        hi = lo + F(rng.randint(1, 50), 10)
    elif kind == 1:  # wider than 2, with a line or a constant before the roots
        lo = F(rng.randint(-40, 10), 10)
        hi = lo + F(rng.randint(21, 60), 10)
        degree = rng.randint(0, 1)
    elif kind == 2:  # narrow, inside (0, 1)
        lo = F(rng.randint(1, 999), 1000)
        hi = lo + F(1, rng.randint(1000, 10**6))
    elif kind == 3:  # dyadic, as bisection leaves a bracket
        lo = F(rng.getrandbits(30), 2**30)
        hi = lo + F(rng.randint(1, 2**20), 2**30)
    else:
        lo, hi = sorted(F(rng.randint(0, 12), 12) for _ in range(2))
        hi += F(1, 24) if lo == hi else 0
    a = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-3, -1, 1, 2])]
    for _ in range(rng.randint(0, 3)):
        r = lo + (hi - lo) * F(rng.randint(-4, 12), 8)
        a = _mul_ints(a, [-r.numerator, r.denominator])
    return a, lo, hi


def roots_on_closed(a, lo, hi):
    """The roots of a on [lo, hi], from isolation on a strictly wider open
    interval."""
    pad = hi - lo
    roots = [pt for pt, _ in isolate_roots(_poly(list(a)), lo - pad, hi + pad)]
    return [pt for pt in roots if point_sign(pt, lo) >= 0 and point_sign(pt, hi) <= 0]


def violations(excludes, cases):
    """The cases that excludes certifies root-free on [lo, hi] although a
    has a root there or an end sign is zero, and the number certified."""
    bad, certified = [], 0
    for a, lo, hi in cases:
        if excludes(a, lo, hi):
            certified += 1
            if roots_on_closed(a, lo, hi) or not (_sign_at(a, lo) and _sign_at(a, hi)):
                bad.append((a, lo, hi))
    return bad, certified


CASES = [seeded_case(random.Random(f"exclude/{seed}")) for seed in range(2000)]


def test_certified_intervals_hold_no_root():
    bad, certified = violations(_excludes_roots, CASES)
    assert bad == []
    # the test certifies often, and not always
    assert 300 < certified < len(CASES) - 300


def test_a_mutant_without_the_half_width_fails():
    bad, _ = violations(no_half_width, CASES)
    assert len(bad) > 10


def test_constants_and_lines():
    assert _excludes_roots([5], F(0), F(1))
    assert _excludes_roots([-1], F(-3), F(7))
    assert not _excludes_roots([-1, 2], F(0), F(1))  # root 1/2 at the midpoint
    assert not _excludes_roots([-1, 2], F(1, 2), F(1))  # root at an end
    assert _excludes_roots([-1, 2], F(3, 5), F(1))


@pytest.mark.parametrize("seed", range(10))
def test_planted_rational_roots_are_never_certified(seed):
    rng = random.Random(f"rational/{seed}")
    for _ in range(100):
        a, lo, hi = seeded_case(rng)
        r = rng.choice([lo, hi, (lo + hi) / 2, lo + (hi - lo) * F(rng.randint(1, 99), 100)])
        assert not _excludes_roots(_mul_ints(a, [-r.numerator, r.denominator]), lo, hi)


@pytest.mark.parametrize("seed", range(10))
def test_planted_irrational_roots_are_never_certified(seed):
    rng = random.Random(f"irrational/{seed}")
    planted = 0
    for _ in range(100):
        den = rng.choice([3, 5, 7, 11, 13])
        num = rng.randint(1, den - 1)
        if math.isqrt(num * den) ** 2 == num * den:
            continue
        (root,) = [pt for pt, _ in isolate_roots(Polynomial([-num, 0, den]))]
        root = root.refined(F(1, rng.choice([2, 16, 2**20])))
        # a rational interval holding sqrt(num/den), of any width
        lo = root.lo - F(rng.randint(0, 8), 16)
        hi = root.hi + F(rng.randint(0, 8), 16)
        cofactor = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [1]
        assert not _excludes_roots(_mul_ints([-num, 0, den], cofactor), lo, hi)
        planted += 1
    assert planted > 50


# -- the operation count it saves ---------------------------------------------------------


def descartes_transforms(monkeypatch, frozen: bool) -> int:
    calls = []
    original = polyarith.descartes_bound

    def counting(*args):
        calls.append(args)
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(polyarith, "descartes_bound", counting)
        if frozen:
            frozen_step.use_frozen_step(patch)
        for shape in PARTITION_FAMILY:
            symbolic_value_iteration(family_mdp(*shape), 9)
    return len(calls)


def test_descartes_transforms_on_the_benchmark_family(monkeypatch):
    # one transform per nonzero pair in the frozen step; the exclusion test
    # leaves about a tenth of them
    assert descartes_transforms(monkeypatch, frozen=True) == 605
    assert descartes_transforms(monkeypatch, frozen=False) <= 64
