"""Symbolic value iteration's inner loop runs on integers: in the frozen step
of `frozen_step`, pair differences are positive integer multiples of
q_a - q_b (`_diff`) and the argmax compares homogenized integer values
times one common positive factor (`_scaled_values`); `partition`'s own step
runs on raw integer Q numerators, and `frozen_step` is compared with it in
`test_raw_q_step`.  `polynomial_vanishes_at` and `same_root`
settle what Descartes' rule and disjoint brackets decide before any gcd,
and `simplest_fraction_between` runs on integer numerators and
denominators.  These tests keep the `Fraction` and gcd-first forms as
references and require the same results, and pin the fast paths by counting
the calls they avoid."""

import math
import random
from fractions import Fraction as F

import pytest

import frozen_step
from conftest import family_mdp, random_mdp
from exactmdp import partition, polyarith
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.partition import canonical_partition, symbolic_value_iteration
from exactmdp.polyarith import (
    IsolatedRoot,
    Polynomial,
    _mul_ints,
    _poly,
    count_roots_open,
    isolate_roots,
    poly_gcd,
    polynomial_vanishes_at,
    same_root,
    simplest_fraction_between,
)

HORIZON = 9
# the benchmark's random-partition family
PARTITION_FAMILY = [(s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2)]


# -- references: the Fraction and gcd-first forms ------------------------------


def reference_diff(a, b):
    return a - b


def reference_scaled_values(qs, pt):
    """One `Fraction` per Q value."""
    return [q(pt) for q in qs]


def reference_polynomial_vanishes_at(p, root):
    if p.is_zero:
        return True
    g = poly_gcd(p, root.defining)
    if g.degree <= 0:
        return False
    return count_roots_open(g, root.lo, root.hi) > 0


def reference_same_root(a, b):
    g = poly_gcd(a.defining, b.defining)
    if g.degree <= 0:
        return False
    while True:
        lo = max(a.lo, b.lo)
        hi = min(a.hi, b.hi)
        if lo >= hi:
            return False
        if count_roots_open(g, lo, hi) > 0 and (
            count_roots_open(a.defining, lo, hi) == 1
            and count_roots_open(b.defining, lo, hi) == 1
        ):
            return True
        a = a.refined((a.hi - a.lo) / 4)
        b = b.refined((b.hi - b.lo) / 4)


def reference_simplest_fraction_between(lo, hi):
    if not lo < hi:
        raise ValueError("empty interval")
    n = math.floor(lo)
    if lo < n + 1 < hi:
        return F(n + 1)
    a, b = lo - n, hi - n
    if a == 0:
        q = math.floor(F(1) / b) + 1
        return n + F(1, q)
    inner = reference_simplest_fraction_between(F(1) / b, F(1) / a)
    return n + F(1) / inner


def use_references(patch, points_too):
    frozen_step.use_frozen_step(patch)
    patch.setattr(frozen_step, "_diff", reference_diff)
    patch.setattr(frozen_step, "_scaled_values", reference_scaled_values)
    if points_too:
        patch.setattr(partition, "polynomial_vanishes_at", reference_polynomial_vanishes_at)
        patch.setattr(polyarith, "polynomial_vanishes_at", reference_polynomial_vanishes_at)
        patch.setattr(polyarith, "same_root", reference_same_root)
        patch.setattr(
            polyarith, "simplest_fraction_between", reference_simplest_fraction_between
        )


# -- symbolic value iteration and the partition, against the references -------


def assert_same_levels(monkeypatch, mdp, points_too):
    got = symbolic_value_iteration(mdp, HORIZON)
    with monkeypatch.context() as patch:
        use_references(patch, points_too)
        want = symbolic_value_iteration(mdp, HORIZON)
    assert len(got) == len(want) == HORIZON + 1
    for level, ref in zip(got, want):
        assert level.cuts == ref.cuts, level.horizon
        assert level.pieces == ref.pieces, level.horizon
        assert level.interval_sets == ref.interval_sets, level.horizon
        assert level.point_sets == ref.point_sets, level.horizon


@pytest.mark.parametrize("points_too", [False, True])
@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_levels_corpus(monkeypatch, example_id, points_too):
    assert_same_levels(monkeypatch, build_example(example_id).mdp, points_too)


@pytest.mark.parametrize("points_too", [False, True])
@pytest.mark.parametrize("states, actions, index", PARTITION_FAMILY)
def test_levels_benchmark_partition_family(monkeypatch, states, actions, index, points_too):
    assert_same_levels(monkeypatch, family_mdp(states, actions, index), points_too)


@pytest.mark.parametrize("seed", range(30))
def test_levels_random(monkeypatch, seed):
    mdp = random_mdp(random.Random(seed), max_states=3, max_actions=3)
    assert_same_levels(monkeypatch, mdp, points_too=seed % 2 == 1)


def test_levels_have_irrational_cuts_and_mixed_degrees():
    # what the comparisons above need to mean anything: irrational cuts
    # (tie tests on brackets) and Q polynomials of several degrees at a point
    cuts = [
        cut
        for states, actions, index in PARTITION_FAMILY
        for level in symbolic_value_iteration(family_mdp(states, actions, index), HORIZON)
        for cut in level.cuts
    ]
    assert sum(isinstance(c, IsolatedRoot) for c in cuts) >= 5
    mdp = build_example("ex2").mdp
    degrees = {
        len({q.degree for q in qs})
        for level in symbolic_value_iteration(mdp, HORIZON)
        for piece in level.pieces
        for qs in frozen_step._q_polynomials(mdp, piece)
    }
    assert max(degrees) > 1


@pytest.mark.parametrize(
    "mdp_id", list(EXAMPLE_IDS) + [f"family-{s}x{a}-{i}" for s, a, i in PARTITION_FAMILY]
)
def test_partition_against_references(monkeypatch, mdp_id):
    if mdp_id.startswith("family-"):
        shape, index = mdp_id[len("family-"):].split("-")
        states, actions = map(int, shape.split("x"))
        mdp = family_mdp(states, actions, int(index))
    else:
        mdp = build_example(mdp_id).mdp
    got = canonical_partition(mdp)
    with monkeypatch.context() as patch:
        use_references(patch, points_too=True)
        want = canonical_partition(mdp)
    assert got == want


# -- simplest_fraction_between ------------------------------------------------


def fraction_cases(rng):
    """(lo, hi) pairs with lo < hi: integer endpoints, lo = 0, negative lo,
    narrow intervals, and 2^200 denominators."""
    big = 2**200
    kind = rng.randrange(6)
    if kind == 0:  # integer endpoints, or one of them
        lo = F(rng.randint(-5, 5))
        hi = lo + rng.choice([F(1), F(2), F(1, rng.randint(2, 50)), F(rng.randint(1, 9), 7)])
        return (lo, hi) if rng.random() < 0.5 else (hi - (hi - lo) * 2, hi)
    if kind == 1:  # lo = 0
        return F(0), F(rng.randint(1, 10**6), rng.randint(1, 10**6)) + F(1, 10**7)
    if kind == 2:  # negative lo
        lo = -F(rng.randint(0, 10**4), rng.randint(1, 10**4)) - F(1, 10**5)
        return lo, lo + F(rng.randint(1, 10**3), rng.randint(1, 10**5))
    if kind == 3:  # 2^200 denominators, narrow
        lo = F(rng.getrandbits(200), big)
        return lo, lo + F(rng.randint(1, 2**20), big)
    if kind == 4:  # 2^200 denominators, anywhere and of either sign
        a = F(rng.getrandbits(210) - 2**209, big)
        b = F(rng.getrandbits(210) - 2**209, big)
        return (a, b) if a < b else (b, a + F(1, big))
    lo = F(rng.randint(-10**3, 10**3), rng.randint(1, 10**3))  # small and narrow
    return lo, lo + F(1, rng.randint(1, 10**6))


def test_simplest_fraction_matches_reference():
    rng = random.Random(20261019)
    kinds = 0
    for _ in range(6000):
        lo, hi = fraction_cases(rng)
        got = simplest_fraction_between(lo, hi)
        assert got == reference_simplest_fraction_between(lo, hi), (lo, hi)
        assert lo < got < hi
        kinds += lo == 0
    assert kinds > 500


@pytest.mark.parametrize(
    "lo, hi, want",
    [
        (F(0), F(1), F(1, 2)),
        (F(1), F(3), F(2)),
        (F(-1), F(0), F(-1, 2)),
        (F(-7, 3), F(-2), F(-9, 4)),
        (F(3, 7), F(4, 9), F(7, 16)),
        (F(1, 2**200), F(2, 2**200), F(1, 2**199 + 1)),
    ],
)
def test_simplest_fraction_known_values(lo, hi, want):
    assert simplest_fraction_between(lo, hi) == want


def test_simplest_fraction_rejects_empty():
    with pytest.raises(ValueError):
        simplest_fraction_between(F(1, 2), F(1, 2))


# -- the screened point tests --------------------------------------------------


def irrational_factor(rng):
    """An integer polynomial with at least one irrational root in (0, 1)."""
    while True:
        if rng.random() < 0.5:  # k x^2 - j: the root sqrt(j/k)
            k = rng.randint(2, 60)
            j = rng.randint(1, k - 1)
            f = [-j, 0, k]
        else:  # k x^2 - k x + j: the roots (1 ± sqrt(1 - 4j/k))/2
            k = rng.randint(5, 60)
            j = rng.randint(1, (k - 1) // 4)
            f = [j, -k, k]
        if any(isinstance(r, IsolatedRoot) for r, _ in isolate_roots(_poly(f))):
            return f


def random_ints(rng, degree):
    return [rng.randint(-20, 20) for _ in range(degree)] + [rng.choice([-3, -2, -1, 1, 2, 3])]


def irrational_roots(p):
    return [r for r, _ in isolate_roots(p) if isinstance(r, IsolatedRoot)]


def refinements(root, rng):
    out = [root]
    for _ in range(rng.randint(0, 3)):
        out.append(out[-1].refined((out[-1].hi - out[-1].lo) / rng.choice([2, 4, 16])))
    return out


def test_vanishes_at_matches_gcd_first():
    rng = random.Random(7)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        f, g = irrational_factor(rng), irrational_factor(rng)
        other = random_ints(rng, rng.randint(1, 4))
        roots = [
            r
            for root in irrational_roots(_poly(_mul_ints(f, g)))
            for r in refinements(root, rng)
        ]
        tests = [
            _poly(f),
            _poly(g),
            _poly(_mul_ints(f, other)),
            _poly(_mul_ints(_mul_ints(f, f), g)),  # a repeated factor
            _poly(other),
            _poly(_mul_ints(other, other)),
            _poly(_mul_ints(g, [-1, 2])),  # a rational root at 1/2
            _poly([rng.randint(1, 9)]),
            Polynomial([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]),
        ]
        for root in roots:
            # a polynomial with its own roots at the bracket's ends
            tests.append(_poly(_mul_ints([-root.lo.numerator, root.lo.denominator],
                                         [-root.hi.numerator, root.hi.denominator])))
            for p in tests:
                got = polynomial_vanishes_at(p, root)
                assert got == reference_polynomial_vanishes_at(p, root), (p, root)
                outcomes[got] += 1
            tests.pop()
    assert outcomes[True] > 500 and outcomes[False] > 500


def test_same_root_matches_gcd_first():
    rng = random.Random(11)
    coincident = disjoint = overlapping_apart = 0
    for _ in range(120):
        f = irrational_factor(rng)
        g, h = irrational_factor(rng), irrational_factor(rng)
        pool = [
            r
            for p in (_mul_ints(f, g), _mul_ints(f, h), f, h)
            for root in irrational_roots(_poly(p))
            for r in refinements(root, rng)
        ]
        for i, a in enumerate(pool):
            for b in pool[i:]:
                got = same_root(a, b)
                assert got == reference_same_root(a, b), (a, b)
                apart = max(a.lo, b.lo) >= min(a.hi, b.hi)
                coincident += got
                disjoint += apart
                overlapping_apart += not got and not apart
    assert coincident > 300 and disjoint > 300 and overlapping_apart > 20


# -- counts that pin the fast paths ---------------------------------------------


def counter(monkeypatch, owner, name):
    original = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_symbolic_value_iteration_makes_no_polynomial_subtractions_or_values(monkeypatch):
    mdp = build_example("ex4").mdp
    subs = counter(monkeypatch, Polynomial, "__sub__")
    values = counter(monkeypatch, Polynomial, "__call__")
    levels = symbolic_value_iteration(mdp, 15)
    assert len(levels) == 16 and max(len(level.pieces) for level in levels) > 1
    assert subs == [] and values == []


def test_same_root_on_disjoint_brackets_makes_no_gcd(monkeypatch):
    (a,) = irrational_roots(_poly([-1, 0, 2]))  # sqrt(1/2)
    (b,) = irrational_roots(_poly([-1, 0, 3]))  # sqrt(1/3)
    a, b = a.refined(F(1, 100)), b.refined(F(1, 100))
    assert a.lo > b.hi
    gcds = counter(monkeypatch, polyarith, "poly_gcd")
    assert not same_root(a, b) and not same_root(b, a)
    assert gcds == []


def test_vanishes_at_screened_root_makes_no_gcd(monkeypatch):
    (root,) = irrational_roots(_poly([-1, 0, 2]))
    root = root.refined(F(1, 100))
    gcds = counter(monkeypatch, polyarith, "poly_gcd")
    assert not polynomial_vanishes_at(_poly([-1, 0, 3]), root)
    assert gcds == []
