"""Differential tests of the integer polynomial kernel.

``Polynomial`` holds integer numerators over one denominator.  The reference
here is the ``Fraction``-coefficient polynomial it replaced, with schoolbook
``Fraction`` arithmetic throughout; every operation, evaluation, ``==``,
``hash`` and ``.coeffs`` must agree with it, and every result must be in
canonical form.  ``value_rational_function``'s single fraction-free solve is
checked against Cramer's rule with one ``poly_det`` per numerator, and
``poly_det`` against cofactor expansion on the reference polynomials.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.mdp import enumerate_decision_rules
from exactmdp.polyarith import (
    Polynomial,
    RationalFunction,
    _poly,
    poly_det,
    value_difference,
    value_rational_function,
)

from conftest import random_mdp


class RefPolynomial:
    """Dense polynomial with Fraction coefficients, constant term first, no
    trailing zero coefficient."""

    def __init__(self, coeffs=()):
        cs = [F(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPolynomial(out)

    def __neg__(self):
        return RefPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return RefPolynomial([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RefPolynomial()
        out = [F(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return RefPolynomial(out)

    def shift_up(self, k=1):
        if not self.coeffs:
            return self
        return RefPolynomial([F(0)] * k + list(self.coeffs))

    def __call__(self, point):
        acc = F(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self):
        return RefPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other):
        q = [F(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d, lc = other.degree, other.coeffs[-1]
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            q[k] = factor = rem[-1] / lc
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= factor * c
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return RefPolynomial(q), RefPolynomial(rem)

    def primitive(self):
        if not self.coeffs:
            return self
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
        return RefPolynomial([F(c, g) for c in ints])


def assert_canonical(p):
    assert type(p.ints) is tuple and type(p.den) is int
    assert all(type(c) is int for c in p.ints)
    assert p.den > 0
    if p.ints:
        assert p.ints[-1] != 0
        assert math.gcd(p.den, *p.ints) == 1
    else:
        assert p.den == 1


def assert_agrees(p, ref):
    assert_canonical(p)
    assert p.coeffs == ref.coeffs
    assert all(type(c) is F for c in p.coeffs)
    assert p.degree == ref.degree
    assert p.is_zero == (not ref.coeffs)
    if ref.coeffs:
        assert p.leading == ref.coeffs[-1]


fracs = st.fractions(min_value=-6, max_value=6, max_denominator=12)
coeff_lists = st.lists(st.one_of(fracs, st.integers(-6, 6)), max_size=6)
scalars = st.one_of(fracs, st.integers(-6, 6))


def both(cs):
    return Polynomial(cs), RefPolynomial(cs)


class TestAgainstFractionReference:
    @given(coeff_lists)
    @settings(max_examples=200, deadline=None)
    def test_constructor_and_unary_operations(self, cs):
        p, r = both(cs)
        assert_agrees(p, r)
        assert_agrees(-p, -r)
        assert_agrees(p.derivative(), r.derivative())
        assert_agrees(p.primitive(), r.primitive())
        for k in (1, 3):
            assert_agrees(p.shift_up(k), r.shift_up(k))

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=200, deadline=None)
    def test_binary_operations(self, a, b):
        (p, rp), (q, rq) = both(a), both(b)
        assert_agrees(p + q, rp + rq)
        assert_agrees(p - q, rp - rq)
        assert_agrees(p * q, rp * rq)
        if rq.coeffs:
            quo, rem = p.divmod(q)
            ref_quo, ref_rem = rp.divmod(rq)
            assert_agrees(quo, ref_quo)
            assert_agrees(rem, ref_rem)

    @given(coeff_lists, scalars)
    @settings(max_examples=200, deadline=None)
    def test_scalar_multiplication(self, cs, c):
        p, r = both(cs)
        assert_agrees(p * c, r * F(c))
        assert_agrees(c * p, r * F(c))

    @given(coeff_lists, fracs)
    @settings(max_examples=200, deadline=None)
    def test_evaluation(self, cs, x):
        p, r = both(cs)
        value = p(x)
        assert type(value) is F
        assert value == r(x)
        assert p(x.numerator) == r(F(x.numerator))

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=200, deadline=None)
    def test_equality_and_hash(self, a, b):
        (p, rp), (q, rq) = both(a), both(b)
        assert (p == q) == (rp == rq)
        if p == q:
            assert hash(p) == hash(q)
        # the same value reached along another route compares and hashes equal
        s = (p + q) - q
        assert s == p and hash(s) == hash(p)

    def test_equal_values_from_different_denominators(self):
        p = Polynomial([F(1, 2), F(1, 2)]) * 2
        assert p == Polynomial([1, 1])
        assert (p.ints, p.den) == ((1, 1), 1)
        assert Polynomial([F(1, 2), F(1, 2)]) != Polynomial([1, 1])
        assert Polynomial([F(2, 4), F(0), F(0)]).ints == (1,)
        assert (Polynomial([0, 0]).ints, Polynomial([0, 0]).den) == ((), 1)


@given(coeff_lists, coeff_lists, coeff_lists, fracs)
@settings(max_examples=200, deadline=None)
def test_rational_function_reduction(a, b, g, x):
    num, den, common = Polynomial(a), Polynomial(b), Polynomial(g)
    if den.is_zero or den(F(0)) == 0 or common.is_zero or common(F(0)) == 0:
        return
    f = RationalFunction(num, den)
    for part in (f.num, f.den):
        assert_canonical(part)
    assert f.den.den == 1 and f.den.ints[-1] > 0
    assert math.gcd(*f.den.ints) == 1
    if den(x) != 0:
        assert f(x) == num(x) / den(x)
    assert RationalFunction(num * common, den * common) == f


def test_poly_leaves_the_callers_list_alone():
    # the canonical form trims trailing zeros off a copy, not off the input
    lst = [1, 0]
    p = _poly(lst)
    assert lst == [1, 0]
    assert (p.ints, p.den) == ((1,), 1)
    lst = [4, 0, 6, 0, 0]
    p = _poly(lst, 2)
    assert lst == [4, 0, 6, 0, 0]
    assert (p.ints, p.den) == ((2, 0, 3), 1)


int_lists = st.lists(st.integers(-12, 12), max_size=5)


@given(int_lists, int_lists, int_lists, int_lists)
@settings(max_examples=200, deadline=None)
def test_unreduced_difference_is_a_positive_multiple(a, b, c, d):
    # for values f = (N, Δ) and g = (N', Δ') with Δ(0), Δ'(0) > 0,
    # V_f − V_g = U / (Δ·Δ') with U = value_difference(f, g, x) unreduced
    if not b or not d or b[0] <= 0 or d[0] <= 0:
        return
    f, g = ((tuple(a),), tuple(b)), ((tuple(c),), tuple(d))
    raw = value_difference(f, g, 0)
    assert not raw or raw[-1] != 0  # no trailing zero
    u = Polynomial(raw)
    assert_canonical(u)
    assert u.den == 1
    num_f, den_f, num_g, den_g = map(Polynomial, (a, b, c, d))
    diff = RationalFunction(num_f, den_f) - RationalFunction(num_g, den_g)
    if diff.is_zero:
        assert u.is_zero
        return
    x = next(F(k, 7) for k in range(30) if diff(F(k, 7)) != 0 and u(F(k, 7)) != 0)
    scale = RationalFunction(u, den_f * den_g)(x) / diff(x)
    assert scale > 0
    assert scale == 1  # U / (Δ·Δ') is the difference itself
    assert RationalFunction(u, den_f * den_g) == diff * scale


def cofactor_det(matrix):
    """Determinant by expansion along the first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = RefPolynomial()
    for j, entry in enumerate(matrix[0]):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


@pytest.mark.parametrize("seed", range(30))
def test_poly_det_against_cofactor_expansion(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    cells = [
        [
            [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(rng.randint(0, 3))]
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    if seed % 5 == 0:
        cells[-1] = [list(c) for c in cells[0]]  # singular: two equal rows
    det = poly_det([[Polynomial(c) for c in row] for row in cells])
    assert_agrees(det, cofactor_det([[RefPolynomial(c) for c in row] for row in cells]))


def cramer_value_functions(mdp, rule):
    """Per-state values by Cramer's rule: m + 1 polynomial determinants."""
    m = mdp.m
    p = mdp.transition_matrix(rule)
    r = mdp.reward_vector(rule)
    a_mat = [
        [Polynomial([F(1 if i == j else 0), -p[i][j]]) for j in range(m)]
        for i in range(m)
    ]
    det = poly_det(a_mat)
    out = []
    for x in range(m):
        col_replaced = [
            [Polynomial.constant(r[i]) if j == x else a_mat[i][j] for j in range(m)]
            for i in range(m)
        ]
        out.append(RationalFunction(poly_det(col_replaced), det))
    return tuple(out)


def assert_value_functions_agree(mdp):
    for rule in enumerate_decision_rules(mdp):
        assert value_rational_function(mdp, rule) == cramer_value_functions(mdp, rule)


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_value_functions_match_cramer_on_corpus(example_id):
    assert_value_functions_agree(build_example(example_id).mdp)


def test_value_functions_match_cramer_on_random_family():
    sizes = set()
    for seed in range(48):
        mdp = random_mdp(random.Random(seed), max_states=5, max_actions=2)
        sizes.add(mdp.m)
        assert_value_functions_agree(mdp)
    assert sizes == {1, 2, 3, 4, 5}
