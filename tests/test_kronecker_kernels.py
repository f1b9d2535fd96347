"""The integer kernels under ``canonical_partition`` against the polynomial
code they replaced.

``value_rational_function`` solves one integer system at a = 2^s and reads
det and det·v back as balanced base-2^s digits (Kronecker substitution);
``_gcd_ints`` certifies most pairs coprime from gcd(a(X), b(X)) before any
remainder sequence.  The references below are the earlier code, kept here:
a polynomial Bareiss elimination over Z[a] with back-substitution, and the
primitive remainder sequence alone.  Both must give the same results on the
corpus, the benchmark's random families, random models with large
denominators, and gcd pairs built to stress the certificate.  The counting
tests pin that the new paths skip the polynomial work entirely.
"""

import math
import random
from fractions import Fraction as F

import pytest

from exactmdp import docio
from exactmdp import polyarith
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.exactarith import SingularMatrixError
from exactmdp.mdp import Mdp, enumerate_decision_rules
from exactmdp.polyarith import (
    Polynomial,
    RationalFunction,
    _bisect,
    _exact_div_ints,
    _gcd_ints,
    _mul_ints,
    _poly,
    _primitive_ints,
    _pseudo_rem,
    _sub_ints,
    value_rational_function,
)

from conftest import mdpgen, random_rational

# -- references ------------------------------------------------------------------


def reference_eliminate(a):
    """Fraction-free forward elimination, in place, of an n-row matrix of
    integer polynomials with n or more columns; each division by the
    previous pivot is exact in Z[x].  Returns the permutation's sign, or 0
    when the leading n columns are singular."""
    n = len(a)
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        row_k = a[k]
        akk = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, len(row_i)):
                cross = _sub_ints(_mul_ints(akk, row_i[j]), _mul_ints(aik, row_k[j]))
                row_i[j] = _exact_div_ints(cross, prev)
            row_i[k] = []
        prev = akk
    return sign if a[n - 1][n - 1] else 0


def reference_value_functions(mdp, rule):
    """One polynomial Bareiss solve of (I - a*P) v = r over Z[a], each row
    scaled by the lcm of its own denominators."""
    m = mdp.m
    p = mdp.transition_matrix(rule)
    r = mdp.reward_vector(rule)
    rows = []
    for i in range(m):
        den = math.lcm(r[i].denominator, *(x.denominator for x in p[i]))
        ints = [x.numerator * (den // x.denominator) for x in (*p[i], r[i])]
        row = [[0, -v] if v else [] for v in ints[:m]]
        row[i] = _sub_ints([den], [0, ints[i]])
        row.append([ints[m]] if ints[m] else [])
        rows.append(row)
    if not reference_eliminate(rows):
        raise SingularMatrixError("I - a*P is singular")
    det = rows[-1][m - 1]
    x = [[]] * m
    for i in range(m - 1, -1, -1):
        row = rows[i]
        s = _mul_ints(det, row[m])
        for j in range(i + 1, m):
            s = _sub_ints(s, _mul_ints(row[j], x[j]))
        x[i] = _exact_div_ints(s, row[i])
    det_poly = _poly(det)
    return tuple(RationalFunction(_poly(xi), det_poly) for xi in x)


def reference_gcd(a, b):
    """Primitive gcd of nonzero a and b by the remainder sequence alone."""
    a, b = _primitive_ints(a), _primitive_ints(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pseudo_rem(a, b)
        if not r:
            return b
        a, b = b, _primitive_ints(r)
    return [1]


# -- value functions ---------------------------------------------------------------


def assert_same_value_functions(mdp):
    for rule in enumerate_decision_rules(mdp):
        assert value_rational_function(mdp, rule) == reference_value_functions(mdp, rule)


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_value_functions_on_the_corpus(example_id):
    assert_same_value_functions(build_example(example_id).mdp)


@pytest.mark.parametrize(
    "states, actions, index",
    [*((s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2)),
     (4, 3, 0), (5, 3, 0), (6, 2, 0)],
)
def test_value_functions_on_random_documents(states, actions, index):
    mdp = docio.mdp_from_document(mdpgen.random_document(states, actions, 8, index))
    assert_same_value_functions(mdp)


def wide_row(rng, m, max_den):
    """A probability row over one denominator up to max_den, from sorted
    cut points, so large denominators cost nothing to draw."""
    den = rng.randint(1, max_den)
    cuts = sorted(rng.randint(0, den) for _ in range(m - 1))
    weights = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    return tuple(F(w, den) for w in weights)


def wide_mdp(rng):
    m = rng.randint(1, 5)
    actions = tuple(tuple(f"a{k}" for k in range(rng.randint(1, 2))) for _ in range(m))
    max_den = 2 ** rng.choice((4, 12, 30))
    return Mdp(
        tuple(f"s{i}" for i in range(m)),
        actions,
        tuple(tuple(wide_row(rng, m, max_den) for _ in acts) for acts in actions),
        tuple(tuple(random_rational(rng, max_den, -50, 50) for _ in acts) for acts in actions),
        tuple(F(0) for _ in range(m)),
    )


@pytest.mark.parametrize("block", range(4))
def test_value_functions_on_models_with_large_denominators(block):
    for seed in range(30 * block, 30 * block + 30):
        assert_same_value_functions(wide_mdp(random.Random(seed)))


def test_value_functions_with_zero_rewards_and_absorbing_rows():
    # a zero right-hand side, an identity row, and a state whose every
    # transition leaves it
    mdp = Mdp(
        ("s0", "s1", "s2"),
        (("a",), ("a",), ("a",)),
        (((F(0), F(1), F(0)),), ((F(0), F(1), F(0)),), ((F(1, 2), F(0), F(1, 2)),)),
        ((F(0),), (F(3, 7),), (F(-5, 3),)),
        (F(0), F(0), F(0)),
    )
    assert_same_value_functions(mdp)
    zero = Mdp(("s0",), (("a",),), (((F(1),),),), ((F(0),),), (F(0),))
    assert_same_value_functions(zero)


def test_value_functions_make_no_polynomial_products(monkeypatch):
    calls = []
    original = polyarith._mul_ints

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(polyarith, "_mul_ints", counting)
    for example_id in EXAMPLE_IDS:
        mdp = build_example(example_id).mdp
        for rule in enumerate_decision_rules(mdp):
            value_rational_function(mdp, rule)
    assert calls == []


# -- gcd ---------------------------------------------------------------------------


def poly_of(coeffs):
    """coeffs without trailing zeros."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def random_poly(rng, degree, bits):
    top = 2**bits
    coeffs = [rng.randint(-top, top) for _ in range(degree)]
    lead = 0
    while lead == 0:
        lead = rng.randint(-top, top)
    return coeffs + [lead]


def product(*factors):
    out = [1]
    for f in factors:
        out = _mul_ints(out, f)
    return out


def planted_pairs(rng, count):
    for _ in range(count):
        g = random_poly(rng, rng.randint(1, 4), rng.choice((2, 6, 20)))
        u = random_poly(rng, rng.randint(0, 5), rng.choice((2, 8)))
        v = random_poly(rng, rng.randint(0, 5), rng.choice((2, 8)))
        yield product(g, u), product(g, v)


def mignotte_pairs(rng, count):
    """Common factor (1 - x)^k, with binomial coefficients, of inputs whose
    coefficients are small: a and b are products of 1 - x^p over two
    disjoint sets of k primes, so their gcd is exactly (1 - x)^k.  x -> -x
    makes the factor (1 + x)^k."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for _ in range(count):
        k = rng.randint(2, 4)
        ps = rng.sample(primes, 2 * k)
        a = product(*([1] + [0] * (p - 1) + [-1] for p in ps[:k]))
        b = product(*([1] + [0] * (p - 1) + [-1] for p in ps[k:]))
        if rng.random() < 0.5:
            a = [c if i % 2 == 0 else -c for i, c in enumerate(a)]
            b = [c if i % 2 == 0 else -c for i, c in enumerate(b)]
        if rng.random() < 0.3:
            a = product(a, random_poly(rng, rng.randint(1, 2), 1))
        yield a, b


def certificate_bits(a, b):
    """s with X = 2^s, as ``_gcd_ints`` chooses it for primitive a and b."""
    return min(
        sum(map(abs, a)) << (len(a) - 1), sum(map(abs, b)) << (len(b) - 1)
    ).bit_length() + 2


def shared_value_pairs(rng, count):
    """Coprime a and b = a + (x - X)·h with X the power of two the
    certificate evaluates at, so that b(X) = a(X) and the integer gcd is
    |a(X)| > X/2: the certificate fails and the remainder sequence runs."""
    made = 0
    while made < count:
        a = _primitive_ints(random_poly(rng, rng.randint(1, 5), rng.choice((2, 10))))
        x_bits = (sum(map(abs, a)) << (len(a) - 1)).bit_length() + 2
        h = random_poly(rng, rng.randint(0, 4), 3)
        b = poly_of(_sub_ints(a, _mul_ints([-(1 << x_bits), 1], h)))
        if not b or reference_gcd(a, b) != [1]:
            continue
        made += 1
        yield a, b


def small_degree_pairs(rng, count):
    for _ in range(count):
        a = random_poly(rng, rng.randint(0, 1), rng.choice((1, 8, 40)))
        b = random_poly(rng, rng.randint(0, 1), rng.choice((1, 8, 40)))
        if rng.random() < 0.3:
            b = product(a, random_poly(rng, rng.randint(0, 1), 3))
        yield a, b


def wide_pairs(rng, count):
    for _ in range(count):
        if rng.random() < 0.5:
            yield random_poly(rng, rng.randint(8, 16), 60), random_poly(rng, rng.randint(8, 16), 60)
        else:
            g = random_poly(rng, rng.randint(1, 4), 60)
            yield (
                product(g, random_poly(rng, rng.randint(4, 12), 60)),
                product(g, random_poly(rng, rng.randint(4, 12), 60)),
            )


@pytest.mark.parametrize(
    "family, count",
    [
        (planted_pairs, 1000),
        (mignotte_pairs, 300),
        (shared_value_pairs, 600),
        (small_degree_pairs, 800),
        (wide_pairs, 400),
    ],
)
def test_gcd_matches_the_remainder_sequence(family, count):
    rng = random.Random(family.__name__)
    seen = 0
    for a, b in family(rng, count):
        assert _gcd_ints(a, b) == reference_gcd(a, b), (a, b)
        assert _gcd_ints(b, a) == reference_gcd(a, b), (a, b)
        seen += 1
    assert seen == count


def test_mignotte_family_has_factors_larger_than_its_inputs():
    rng = random.Random("mignotte")
    larger = 0
    for a, b in mignotte_pairs(rng, 50):
        g = reference_gcd(a, b)
        larger += max(map(abs, g)) > max(map(abs, a + b))
    assert larger > 35


def test_shared_value_family_defeats_the_certificate():
    # every pair's integer values share a factor above X/2
    rng = random.Random("shared")
    for a, b in shared_value_pairs(rng, 50):
        s = certificate_bits(_primitive_ints(a), _primitive_ints(b))
        av = sum(c << (s * i) for i, c in enumerate(a))
        bv = sum(c << (s * i) for i, c in enumerate(b))
        assert math.gcd(av, bv) > 1 << (s - 1)


def test_coprime_rational_function_runs_no_remainder_sequence(monkeypatch):
    calls = []
    original = polyarith._pseudo_rem

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(polyarith, "_pseudo_rem", counting)
    rf = RationalFunction(Polynomial([3, F(-1, 2), 7]), Polynomial([5, -4, 0, 2]))
    assert rf.den == Polynomial([5, -4, 0, 2])
    assert calls == []


# -- bisection -----------------------------------------------------------------------


def test_bisection_builds_no_fraction_per_step(monkeypatch):
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__truediv__", "__mul__"):
        original = getattr(F, name)

        def counting(self, other, _original=original, _name=name):
            calls.append(_name)
            return _original(self, other)

        monkeypatch.setattr(F, name, counting)
    lo, hi, hit = _bisect(Polynomial([-1, 0, 2]), F(0), F(1), F(1, 2**40))
    monkeypatch.undo()
    assert calls == []
    assert hit is None and hi - lo == F(1, 2**40)
    assert lo * lo * 2 < 1 < hi * hi * 2
