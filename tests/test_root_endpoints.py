"""Root counting and isolation where a polynomial vanishes at an interval end.

A Sturm count V(lo) - V(hi) is only valid where the polynomial is nonzero at
both ends, so every path that counts roots on a bracket must handle an end
that is itself a root: the open-interval count excludes it, and a bracket
whose defining polynomial vanishes at an end must still refine to the same
bracket.  Each pinned count follows from the factors, and each pinned
bracket contains the root its factor names.  Bisection inside a one-root
bracket and ``point_sign`` read only the defining polynomial's sign; the
Sturm-chain bisection they replaced is kept below as their reference.
"""

import random
from fractions import Fraction as F

import pytest

from exactmdp.polyarith import (
    IsolatedRoot,
    Polynomial,
    _bisect,
    _sign_at,
    _variations,
    count_roots_open,
    isolate_roots,
    point_position,
    point_sign,
    squarefree_part,
    sturm_chain,
)


def product(*factors):
    out = Polynomial([1])
    for f in factors:
        out = out * Polynomial(f)
    return out


X = [0, 1]  # root 0
ONE = [-1, 1]  # root 1
HALF = [-1, 2]  # root 1/2
QUARTER = [-1, 4]  # root 1/4
THIRD = [-1, 3]  # root 1/3
THREE_QUARTERS = [-3, 4]  # root 3/4
SQRT_HALF = [-1, 0, 2]  # roots +-sqrt(1/2) ~ 0.7071
SQRT_EIGHTH = [-1, 0, 8]  # roots +-sqrt(1/8) ~ 0.3536
SQRT_3_8 = [-3, 0, 8]  # roots +-sqrt(3/8) ~ 0.6124


@pytest.mark.parametrize(
    "factors, lo, hi, expected",
    [
        ((X, ONE, HALF, THIRD), F(0), F(1), 2),  # roots at both ends
        ((HALF, HALF, QUARTER), F(1, 4), F(1, 2), 0),  # double root at hi
        ((HALF, HALF, QUARTER), F(0), F(1, 2), 1),
        ((HALF, HALF, QUARTER), F(1, 4), F(1), 1),  # simple root at lo
        ((SQRT_HALF, HALF), F(1, 2), F(1), 1),  # irrational root inside
        ((SQRT_HALF, HALF), F(0), F(1, 2), 0),
        ((X, X, X, SQRT_HALF), F(0), F(1), 1),  # triple root at lo
        ((SQRT_HALF, THREE_QUARTERS), F(1, 2), F(3, 4), 1),
    ],
)
def test_count_roots_open_excludes_endpoint_roots(factors, lo, hi, expected):
    assert count_roots_open(product(*factors), lo, hi) == expected


def test_refined_with_defining_zero_at_lo():
    root = IsolatedRoot(F(1, 2), F(1), product(HALF, SQRT_HALF))
    assert root.refined(F(1, 16)) == IsolatedRoot(
        F(11, 16), F(3, 4), product(HALF, SQRT_HALF)
    )
    assert point_position(root.refined(F(1, 1000))) == (F(181, 256), F(725, 1024))
    assert point_position(root.excluding(F(3, 4))) == (F(5, 8), F(3, 4))
    assert point_position(root.excluding(F(7, 10))) == (F(45, 64), F(91, 128))


def test_refined_with_defining_zero_at_hi():
    root = IsolatedRoot(F(0), F(1, 2), product(HALF, SQRT_EIGHTH))
    assert point_position(root.refined(F(1, 16))) == (F(5, 16), F(3, 8))
    assert point_position(root.refined(F(1, 1000))) == (F(181, 512), F(363, 1024))
    # 3/4 and 7/10 lie outside the bracket, so nothing needs refining
    assert root.excluding(F(3, 4)) == root
    assert root.excluding(F(7, 10)) == root


def test_refined_and_excluding_reject_a_bracket_around_a_rational_root():
    # an IsolatedRoot is irrational; a bracket built by hand around 5/8 is
    # rejected once bisection lands on the root, instead of looping
    root = IsolatedRoot(F(1, 2), F(1), Polynomial([-5, 8]))
    with pytest.raises(ValueError, match="rational root 5/8"):
        root.refined(F(1, 16))
    with pytest.raises(ValueError, match="rational root 5/8"):
        root.excluding(F(7, 10))
    # excluding the root itself is caught before any bisection, so a
    # rational that no midpoint reaches is rejected too
    third = IsolatedRoot(F(0), F(1), Polynomial([-1, 3]))
    with pytest.raises(ValueError, match="rational root 1/3"):
        third.excluding(F(1, 3))


def test_refinement_from_an_isolated_root_matches_a_fresh_bracket():
    # a root from isolate_roots holds only its bracket and defining
    # polynomial, so refining it agrees with refining the same bare bracket
    ((root, _),) = isolate_roots(product(X, HALF, SQRT_EIGHTH), F(0), F(1, 2))
    fresh = IsolatedRoot(root.lo, root.hi, root.defining)
    for width in (F(1, 300), F(1, 10**6)):
        assert root.refined(width) == fresh.refined(width)
    assert root.excluding(F(46, 130)) == fresh.excluding(F(46, 130))


def _summary(roots):
    """(root, multiplicity) for a rational root, (lo, hi, multiplicity,
    defining) for an irrational one."""
    return [
        (r, m) if isinstance(r, F) else (r.lo, r.hi, m, r.defining)
        for r, m in roots
    ]


def test_isolate_roots_with_roots_at_both_ends_and_the_first_midpoint():
    p = product(X, ONE, HALF, HALF, QUARTER, SQRT_HALF, SQRT_HALF)
    assert _summary(isolate_roots(p)) == [
        (F(1, 4), 1),
        (F(1, 2), 2),
        (F(45, 64), F(91, 128), 2, product(QUARTER, SQRT_HALF)),
    ]


def test_isolate_roots_on_a_subinterval_with_root_ends():
    p = product(QUARTER, THREE_QUARTERS, HALF, SQRT_3_8, THIRD)
    defining = product(THIRD, SQRT_3_8)
    assert _summary(isolate_roots(p, F(1, 4), F(3, 4))) == [
        (F(1, 3), 1),
        (F(1, 2), 1),
        (F(627, 1024), F(1255, 2048), 1, defining),
    ]


def test_isolate_roots_with_a_root_at_hi():
    roots = isolate_roots(product(X, HALF, SQRT_EIGHTH), F(0), F(1, 2))
    assert _summary(roots) == [
        (F(45, 128), F(23, 64), 1, Polynomial(SQRT_EIGHTH)),
    ]


def sturm_bisect(defining, lo, hi, width):
    """The Sturm-chain bisection that the sign test replaced, kept as the
    reference: count the chain's sign variations at each midpoint."""
    chain = sturm_chain(squarefree_part(defining).ints)
    v_lo = _variations(chain, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        v_mid = _variations(chain, mid)
        if v_mid is None:
            return lo, hi, mid
        if v_lo is None:
            left = count_roots_open(defining, lo, mid)
        else:
            left = v_lo - v_mid
        if left == 1:
            hi = mid
        else:
            lo, v_lo = mid, v_mid
    return lo, hi, None


def one_root_brackets(rng):
    """(defining, lo, hi) with one simple root of the square-free defining
    inside (lo, hi), the defining polynomial often vanishing at an end."""
    while True:
        factors = [[-rng.randint(1, 9), rng.randint(2, 9)] for _ in range(rng.randint(0, 3))]
        factors += [[-rng.randint(1, 9), 0, rng.randint(2, 12)] for _ in range(rng.randint(1, 2))]
        p = squarefree_part(product(*factors))
        ends = sorted({F(0), F(1), *(F(-f[0], f[1]) for f in factors if len(f) == 2)})
        for lo, hi in zip(ends, ends[1:]):
            if count_roots_open(p, lo, hi) == 1:
                return p, lo, hi
        for root, _ in isolate_roots(p):
            if isinstance(root, IsolatedRoot):
                return root.defining, root.lo, root.hi


@pytest.mark.parametrize("seed", range(60))
def test_sign_bisection_matches_the_sturm_reference(seed):
    rng = random.Random(seed)
    p, lo, hi = one_root_brackets(rng)
    for width in (F(1, 8), F(1, 1000), F(1, 10**9)):
        assert _bisect(p, lo, hi, width) == sturm_bisect(p, lo, hi, width)
    widths = (F(2, 7), F(1, 3 * 10**5), F(5, 10**9 + 7))
    # ends from a refined bracket, at widths that are not powers of two
    first = _bisect(p, lo, hi, (hi - lo) * F(2, 7))
    if first[2] is None:
        root = IsolatedRoot(lo, hi, p).refined((hi - lo) * F(2, 7))
        assert (root.lo, root.hi) == first[:2]
        for width in widths:
            assert _bisect(p, root.lo, root.hi, width) == sturm_bisect(
                p, root.lo, root.hi, width
            )
    # non-dyadic ends over one shared denominator
    q = rng.randint(3, 40)
    for j in range(q):
        a, b = F(j, q), F(j + 1, q)
        if lo <= a and b <= hi and count_roots_open(p, a, b) == 1:
            for width in widths:
                assert _bisect(p, a, b, width) == sturm_bisect(p, a, b, width)
    # a midpoint that lands on a rational root, between ends 1/3 and 2/5 or
    # over a random shared denominator; the other factor's root is outside
    a, b = (F(1, 3), F(2, 5)) if seed % 2 else (F(j := rng.randint(1, q - 2), q), F(j + 1, q))
    t = rng.randint(1, 6)
    mid = a + (b - a) * F(rng.randrange(1, 2**t, 2), 2**t)
    hits = product([-mid.numerator, mid.denominator], [-3, 1])
    for width in widths:
        got = _bisect(hits, a, b, width)
        assert got == sturm_bisect(hits, a, b, width)
        if (b - a) / 2 ** (t - 1) > width:  # the bisection reaches mid
            assert got[2] == mid


@pytest.mark.parametrize("seed", range(60))
def test_point_sign_matches_the_root_count(seed):
    rng = random.Random(seed)
    p, lo, hi = one_root_brackets(rng)
    root = IsolatedRoot(lo, hi, p)
    den = rng.randint(2, 50)
    probes = {lo, hi, *(lo + (hi - lo) * F(k, den) for k in range(den + 1))}
    for alpha in probes:
        if _sign_at(p.ints, alpha) == 0 and lo < alpha < hi:
            continue  # a rational root: no IsolatedRoot holds one
        expected = -1 if count_roots_open(p, lo, alpha) == 1 else 1
        assert point_sign(root, alpha) == expected, alpha
