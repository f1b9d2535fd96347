"""Descartes bisection decides every root question in ``exactarith``.

``isolate_roots`` bisects the square-free part on Descartes counts: a piece
with count 0 is dropped, one with count 1 holds one root, any other is
halved, and a root at a midpoint is divided out.  ``count_roots_open``
counts that bisection's pieces and midpoint hits, and
``polynomial_vanishes_at`` and ``same_root`` count the roots of one gcd, so
no solve path builds a Sturm chain.  The references are the Sturm-only ``reference_isolate_roots`` and
``reference_count_roots_open`` of ``test_decided_roots`` and the root tests
as they were before (``frozen_separation``): every isolation (roots,
brackets, ``defining``, multiplicities), count, vanishing answer and
same-root answer must be equal.  The inputs stress where a Descartes count
can exceed the root count: near-double roots, roots at dyadic midpoints,
and two real roots closer together than the bracket width that names a
rational root.
"""

import random
from fractions import Fraction as F

import pytest

import frozen_separation as frozen
from test_decided_roots import (
    HORIZON,
    MODEL_IDS,
    model,
    product,
    reference_count_roots_open,
    reference_isolate_roots,
)
from exactmdp import exactarith
from exactmdp.conditions import boundedness_verdict
from exactmdp.exactarith import (
    IsolatedRoot,
    Polynomial,
    count_roots_open,
    descartes_bound,
    isolate_roots,
    polynomial_vanishes_at,
    same_root,
)
from exactmdp.partition import canonical_partition, symbolic_value_iteration
from exactmdp.turnpike import turnpike_intervals

BENCHMARK_MODELS = [m for m in MODEL_IDS if m.split("-")[0] in ("corpus", "family")]


class SturmChainBuilt(Exception):
    pass


def no_sturm_chain(p):
    raise SturmChainBuilt


@pytest.mark.parametrize("model_id", BENCHMARK_MODELS)
def test_no_solve_path_builds_a_sturm_chain(monkeypatch, model_id):
    monkeypatch.setattr(exactarith, "sturm_chain", no_sturm_chain)
    mdp = model(model_id)
    part = canonical_partition(mdp)
    symbolic_value_iteration(mdp, HORIZON)
    turnpike_intervals(mdp, F(1, 100), F(9, 10), 7)
    for ip in part.irregular_points:
        if isinstance(ip.point, F) and 0 < ip.point < 1:
            boundedness_verdict(mdp, ip.point)


def test_benchmark_models_have_rational_irregular_points():
    # what the test above needs to reach boundedness_verdict at all
    points = [
        ip.point
        for model_id in BENCHMARK_MODELS
        for ip in canonical_partition(model(model_id)).irregular_points
        if isinstance(ip.point, F) and 0 < ip.point < 1
    ]
    assert len(points) >= 4


# -- every answer against the references --------------------------------------------


def assert_equal_to_references(p, lo, hi) -> list:
    """Isolation, counts and the vanishing test at each irrational root;
    returns the isolated roots."""
    roots = isolate_roots(p, lo, hi)
    # equality covers every bracket, defining polynomial and multiplicity
    assert roots == reference_isolate_roots(p, lo, hi)
    count = count_roots_open(p, lo, hi)
    assert count == reference_count_roots_open(p, lo, hi) == frozen.count_roots_open(p, lo, hi)
    for root, _ in roots:
        if isinstance(root, IsolatedRoot):
            for q in (p, p.derivative(), root.defining):
                if not q.is_zero:
                    assert polynomial_vanishes_at(q, root) == frozen.polynomial_vanishes_at(
                        q, root
                    )
    return [root for root, _ in roots]


def assert_same_root_equal(points) -> tuple[int, int]:
    """same_root against the frozen form on every pair of the brackets,
    each refined 0 to 3 times; returns the numbers of pairs that hold one
    root and of pairs whose brackets overlap but hold different roots."""
    variants = []
    for br in dict.fromkeys(p for p in points if isinstance(p, IsolatedRoot)):
        for _ in range(4):
            variants.append(br)
            br = br.refined((br.hi - br.lo) / 4)
    variants = list(dict.fromkeys(variants))
    equal = overlapping = 0
    for i, a in enumerate(variants):
        for b in variants[i + 1 :]:
            got = same_root(a, b)
            assert got == frozen.same_root(a, b)
            equal += got
            overlapping += not got and max(a.lo, b.lo) < min(a.hi, b.hi)
    return equal, overlapping


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_same_root_on_partition_and_level_brackets(model_id):
    mdp = model(model_id)
    points = [ip.point for ip in canonical_partition(mdp).irregular_points]
    for level in symbolic_value_iteration(mdp, HORIZON):
        points.extend(level.cuts)
    assert_same_root_equal(points)


def test_brackets_include_equal_and_different_roots():
    # what the pair test above needs to mean anything: both answers, and
    # "no" on overlapping brackets, where the gcd decides
    equal = overlapping = 0
    for model_id in BENCHMARK_MODELS:
        mdp = model(model_id)
        points = [ip.point for ip in canonical_partition(mdp).irregular_points]
        for level in symbolic_value_iteration(mdp, HORIZON):
            points.extend(level.cuts)
        got = assert_same_root_equal(points)
        equal += got[0]
        overlapping += got[1]
    assert equal >= 50 and overlapping >= 20


# -- near-double roots ---------------------------------------------------------------

CENTRES = [F(1, 3), F(1, 2), F(2, 7), F(5, 8), F(9, 10)]


@pytest.mark.parametrize("k", range(1, 10))
def test_near_double_roots(k):
    eps = F(1, 10**k)
    for c in CENTRES:
        for sign in (1, -1):
            # (x - c)^2 - eps has two real roots sqrt(eps) apart; with
            # + eps a complex pair sits that close to the real line
            near = Polynomial([c * c - sign * eps, -2 * c, 1])
            for p in (near, near * product(F(3, 4)), near * near * product(c)):
                for lo, hi in ((F(0), F(1)), (c - F(1, 10), c + F(1, 10))):
                    points = assert_equal_to_references(p, lo, hi)
                    assert_same_root_equal(points)
            if k >= 3:  # both roots, or the complex pair, near c
                assert descartes_bound(near.ints, c - F(1, 10), c + F(1, 10)) == 2


def test_fuzzed_near_double_roots():
    rng = random.Random(20)
    undecided = 0
    for _ in range(300):
        c = F(rng.randint(1, 99), 100)
        eps = F(rng.choice((1, -1)), 10 ** rng.randint(1, 9))
        p = Polynomial([c * c - eps, -2 * c, 1])
        for _ in range(rng.randint(0, 2)):
            p = p * product(F(rng.randint(0, 20), rng.randint(1, 20)))
        lo, hi = sorted(F(rng.randint(0, 20), 20) for _ in range(2))
        if lo == hi:
            continue
        assert_equal_to_references(p, lo, hi)
        undecided += descartes_bound(p.ints, lo, hi) >= 2
    assert undecided >= 60


# -- roots at dyadic midpoints: the divide-out path --------------------------------

# each partner has its roots in (1/4, 1/2), so every piece that halves at
# 1/2, 1/4 or 3/8 holds two roots or more
PARTNERS = [
    product(F(1, 3)),
    Polynomial([-1, 0, 8]),  # roots +-sqrt(2)/4
    product(F(3, 10), F(9, 20)),
]
DYADIC = product(F(1, 2), F(1, 4), F(3, 8))


@pytest.mark.parametrize("mid", [F(1, 2), F(1, 4), F(3, 8)])
@pytest.mark.parametrize("mult", [1, 2, 3])
def test_roots_at_dyadic_midpoints(monkeypatch, mid, mult):
    identified = []
    original = exactarith._identify_rational

    def recording(*args):
        identified.append(args)
        return original(*args)

    for partner in PARTNERS + [DYADIC]:
        p = product(*[mid] * mult) * partner
        identified.clear()
        with monkeypatch.context() as patch:
            patch.setattr(exactarith, "_identify_rational", recording)
            roots = isolate_roots(p)
        # mid was hit by a halving, not identified in a bracket
        assert mid in [r for r, _ in roots]
        assert len(identified) < len(roots)
        assert dict(roots)[mid] == mult + (partner is DYADIC)
        assert_equal_to_references(p, F(0), F(1))


# -- two real roots closer than the bracket width -----------------------------------


def convergents(n: int, count: int) -> list[F]:
    """The first convergents of sqrt(n^2 + 1) - n = [0; 2n, 2n, ...]."""
    h, h_prev, k, k_prev = 0, 1, 1, 0
    out = []
    for _ in range(count):
        h, h_prev = 2 * n * h + h_prev, h
        k, k_prev = 2 * n * k + k_prev, k
        out.append(F(h, k))
    return out


@pytest.mark.parametrize("n", [10, 50, 200, 1000, 5000])
def test_roots_closer_than_the_identification_width(n):
    # x^2 + 2nx - 1 has the root sqrt(n^2 + 1) - n, and each convergent P/Q
    # lies within 1/(2n·Q^2) of it, inside the width 1/(2Q^2) to which a
    # bracket is halved to name a rational root with denominator Q
    quadratic = Polynomial([-1, 2 * n, 1])
    for conv in convergents(n, 7):
        p = quadratic * product(conv)
        for hi in (F(1), F(1, 2)):
            points = assert_equal_to_references(p, F(0), hi)
            assert conv in points and len(points) == 2
            assert_same_root_equal(points)


# -- a bracket cannot be refined to width zero -------------------------------------


@pytest.mark.parametrize("width", [F(0), F(-1, 8)])
def test_refined_to_a_nonpositive_width_raises(width):
    (root, _), = isolate_roots(Polynomial([-2, 0, 9]))
    assert isinstance(root, IsolatedRoot)
    with pytest.raises(ValueError):
        root.refined(width)
