"""The Descartes root-free screen in front of exact root isolation.

``descartes_bound`` counts the sign variations of (1+t)^d p((lo + hi t)/(1+t)),
an upper bound of the same parity on the roots of p in (lo, hi) counted with
multiplicity.  ``isolate_roots`` returns [] at once when it is 0,
identifies the one simple root when it is 1, and bisects on the same counts
otherwise; ``canonical_partition`` skips a candidate class when every
unreduced value difference (``value_difference``) is zero or root-free on
the gap's hull, and a
whole gap when no advantage numerator of its optimal rule has a root on the
hull; symbolic value iteration's step skips a pair whose difference
``_excludes_roots`` certifies root-free on the piece's hull, or, at a state
of three or more actions, ``_table_excludes``, the same test read off
per-piece tables.  A screened
call must return exactly what the unscreened call returns.  The references below run the same functions with every screen
switched off: root isolation and counting are the Sturm-only
``reference_isolate_roots`` and ``reference_count_roots_open`` of
``test_decided_roots``, which never read a Descartes count, the pair screens
never clear a pair, and no gap is certified break-free, which leaves the
exact gcd and Sturm path to decide every interval.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mdp
from test_decided_roots import reference_count_roots_open, reference_isolate_roots
from exactmdp import partition, polyarith
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.partition import canonical_partition, symbolic_value_iteration
from exactmdp.polyarith import (
    Polynomial,
    count_roots_open,
    descartes_bound,
    isolate_roots,
)


@contextmanager
def screens_off():
    # isolation and counting by Sturm chains alone, so every interval goes
    # to the gcd and Sturm path; no gap is certified break-free, so every
    # gap goes to the class path, where no class's value differences are
    # certified root-free (partition reads Descartes counts only in those two
    # screens); no pair of symbolic value iteration's step is certified
    # root-free, so every pair goes to isolation
    with mock.patch.object(polyarith, "isolate_roots", reference_isolate_roots), \
            mock.patch.object(polyarith, "count_roots_open", reference_count_roots_open), \
            mock.patch.object(partition, "isolate_roots", reference_isolate_roots), \
            mock.patch.object(partition, "_excludes_roots", lambda a, lo, hi: False), \
            mock.patch.object(partition, "_table_excludes", lambda c, a, b, slope: False), \
            mock.patch.object(partition, "descartes_bound", lambda a, lo, hi: 1), \
            mock.patch.object(partition, "_break_free", lambda advantages, lo, hi: False):
        yield


def integer_coeffs(p: Polynomial) -> list[int]:
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return [int(c * den) for c in p.coeffs]


# -- factor products with known roots -------------------------------------------

# positive rationals whose square roots are irrational, so the roots
# r +- sqrt(s) of (x - r)^2 - s never meet a rational interval end
NON_SQUARES = [F(2, 9), F(3, 100), F(5, 49), F(7, 400), F(1, 5000), F(3, 10**6)]


def sqrt_root_inside(r: F, s: F, sign: int, lo: F, hi: F) -> bool:
    """Is r + sign*sqrt(s) strictly inside (lo, hi)?  Decided exactly."""

    def above(c: F) -> bool:  # r + sign*sqrt(s) > c
        gap = c - r
        if sign > 0:
            return gap < 0 or s > gap * gap
        return gap < 0 and s < gap * gap

    def below(c: F) -> bool:  # r + sign*sqrt(s) < c
        gap = r - c
        if sign > 0:
            return gap < 0 and s < gap * gap
        return gap < 0 or s > gap * gap

    return above(lo) and below(hi)


intervals = st.tuples(
    st.fractions(0, 1, max_denominator=12), st.fractions(0, 1, max_denominator=12)
).filter(lambda t: t[0] != t[1]).map(lambda t: (min(t), max(t)))


@st.composite
def factored(draw):
    """(p, lo, hi, roots inside (lo, hi) counted with multiplicity)."""
    lo, hi = draw(intervals)
    eps = (hi - lo) / draw(st.sampled_from([3, 1000, 10**6]))
    anchors = [
        F(0), F(1), lo, hi,
        lo + eps, hi - eps,  # just inside
        lo - eps, hi + eps,  # just outside
        (lo + hi) / 2,
    ]
    p = Polynomial.constant(draw(st.sampled_from([1, -1, 3, -7])))
    inside = 0
    for _ in range(draw(st.integers(1, 4))):
        mult = draw(st.integers(1, 3))
        r = draw(st.sampled_from(anchors) | st.fractions(-1, 2, max_denominator=9))
        if draw(st.booleans()):
            factor = Polynomial([-r, 1])
            inside += mult * (lo < r < hi)
        else:
            s = draw(st.sampled_from(NON_SQUARES))
            real = draw(st.booleans())
            # (x - r)^2 - s has roots r +- sqrt(s); (x - r)^2 + s has none
            factor = Polynomial([r * r + (-s if real else s), -2 * r, 1])
            if real:
                inside += mult * sum(
                    sqrt_root_inside(r, s, sign, lo, hi) for sign in (1, -1)
                )
        for _ in range(mult):
            p = p * factor
    return p, lo, hi, inside


@given(factored())
@settings(max_examples=400, deadline=None)
def test_variations_bound_the_roots_with_their_parity(case):
    p, lo, hi, inside = case
    v = descartes_bound(integer_coeffs(p), lo, hi)
    assert v >= inside
    assert (v - inside) % 2 == 0
    if v == 0:
        assert count_roots_open(p, lo, hi) == 0


@given(factored())
@settings(max_examples=200, deadline=None)
def test_screened_isolation_equals_unscreened(case):
    p, lo, hi, _ = case
    got = isolate_roots(p, lo, hi)
    with screens_off():
        want = isolate_roots(p, lo, hi)
    assert got == want


@pytest.mark.parametrize(
    "coeffs, lo, hi, expected",
    [
        ([0, -1, 1], F(0), F(1), 0),  # x(x - 1): roots on both ends only
        ([1, -4, 4], F(0), F(1), 2),  # (2x - 1)^2: one double root inside
        ([1, -4, 4], F(1, 2), F(1), 0),  # the same root at the left end
        ([-2, 0, 1], F(0), F(1), 0),  # x^2 - 2: sqrt 2 lies right of 1
        ([-2, 0, 1], F(1), F(3, 2), 1),
        ([3, -2], F(1, 3), F(1, 2), 0),  # root 3/2 outside
        ([-1, 2], F(1, 3), F(2, 3), 1),
    ],
)
def test_known_counts(coeffs, lo, hi, expected):
    assert descartes_bound(coeffs, lo, hi) == expected


def test_variations_may_exceed_the_root_count():
    # (x - 1/2)^2 + 1/100 has no real root, yet two variations on (0, 1):
    # the screen then leaves the interval to bisection
    p = [26, -100, 100]
    assert count_roots_open(Polynomial(p), F(0), F(1)) == 0
    assert descartes_bound(p, F(0), F(1)) == 2
    assert isolate_roots(Polynomial(p)) == []


# -- the Taylor-shift form against the Möbius-Horner form -------------------------


def reference_descartes_bound(a, lo: F, hi: F) -> int:
    """Sign variations of (1+t)^d·a((lo + hi·t)/(1+t)), built by homogenized
    Horner on (lo·D + hi·D·t, D·(1+t)) with D = d0·d1.  This is
    ``descartes_bound``'s polynomial with its coefficients reversed."""
    n0, d0 = lo.numerator, lo.denominator
    n1, d1 = hi.numerator, hi.denominator
    num0, num1 = n0 * d1, n1 * d0
    den = d0 * d1
    acc = [a[-1]]
    den_pow = [1]
    for c in reversed(a[:-1]):
        den_pow = [den * (x + y) for x, y in zip(den_pow + [0], [0] + den_pow)]
        acc = [num0 * x + num1 * y for x, y in zip(acc + [0], [0] + acc)]
        if c:
            acc = [x + c * y for x, y in zip(acc, den_pow)]
    signs = [c > 0 for c in acc if c]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def seeded_bracket(rng: random.Random) -> tuple[F, F]:
    kind = rng.randrange(4)
    if kind == 0:
        return F(0), F(rng.randint(1, 9), 10)
    if kind == 1:
        return F(rng.randint(0, 9), 10), F(1)
    den = 2**30 if kind == 2 else rng.randint(2, 50)
    x, y = sorted(rng.sample(range(den + 1), 2))
    return F(x, den), F(y, den)


def seeded_polynomial(rng: random.Random, lo: F, hi: F) -> list[int]:
    """Degree 1 to 12, about a third of the coefficients zero, and with
    probability 1/2 each a factor vanishing at lo and at hi."""
    degree = rng.randint(1, 12)
    factors = [end for end in (lo, hi) if rng.random() < 0.5][:degree]
    coeffs = [rng.choice((0, rng.randint(-99, 99))) for _ in range(degree - len(factors))]
    coeffs.append(rng.choice((-1, 1)) * rng.randint(1, 99))
    p = Polynomial(coeffs)
    for end in factors:  # (den·x - num) vanishes at end = num/den
        p = p * Polynomial([-end.numerator, end.denominator])
    return integer_coeffs(p)


@pytest.mark.parametrize("seed", range(20))
def test_taylor_shift_form_equals_reference(seed):
    rng = random.Random(9100 + seed)
    for _ in range(100):
        lo, hi = seeded_bracket(rng)
        a = seeded_polynomial(rng, lo, hi)
        assert descartes_bound(a, lo, hi) == reference_descartes_bound(a, lo, hi)


def test_taylor_shift_form_on_roots_at_both_ends():
    # x(x - 1)(2x - 1)^2 on (0, 1), (0, 1/2) and (1/2, 1)
    a = integer_coeffs(Polynomial([0, 1]) * Polynomial([-1, 1]) * Polynomial([1, -4, 4]))
    for lo, hi in ((F(0), F(1)), (F(0), F(1, 2)), (F(1, 2), F(1))):
        assert descartes_bound(a, lo, hi) == reference_descartes_bound(a, lo, hi)
    assert descartes_bound(a, F(0), F(1, 2)) == 0


# -- the pair screen inside canonical_partition ----------------------------------


def assert_same_partition(mdp):
    got = canonical_partition(mdp)
    with screens_off():
        want = canonical_partition(mdp)
    # equality covers every bracket and defining polynomial
    assert got == want


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_partition_equals_unscreened_corpus(example_id):
    assert_same_partition(build_example(example_id).mdp)


@pytest.mark.parametrize("seed", range(40))
def test_partition_equals_unscreened_random(seed):
    rng = random.Random(7000 + seed)
    mdp = random_mdp(rng, max_states=4, max_actions=3, max_den=4)
    while mdp.m < 2:
        mdp = random_mdp(rng, max_states=4, max_actions=3, max_den=4)
    assert_same_partition(mdp)


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_symbolic_levels_equal_unscreened_corpus(example_id):
    mdp = build_example(example_id).mdp
    got = symbolic_value_iteration(mdp, 6)
    with screens_off():
        want = symbolic_value_iteration(mdp, 6)
    assert got == want
