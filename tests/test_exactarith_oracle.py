"""Differential tests of the exact polynomial kernel against sympy.

sympy is an independent implementation of the same exact algebra: gcds,
square-free parts, Sturm root counts, real roots with multiplicities and
symbolic linear solves.  The generated polynomials are products of small
factors, with repeated factors and with roots placed at 0, 1/2, 1 and at
the query endpoints, where root counting needs the most care.  The tests
are skipped where sympy is not installed.
"""

import pytest

sympy = pytest.importorskip("sympy")

import random
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from sympy.polys.matrices import DomainMatrix
from hypothesis import strategies as st

from exactmdp.exactarith import (
    IsolatedRoot,
    Polynomial,
    count_roots_open,
    isolate_roots,
    point_position,
    poly_gcd,
    squarefree_part,
    value_rational_function,
)
from exactmdp.mdp import DecisionRule, Mdp

from conftest import random_rational, random_stochastic_row

X = sympy.Symbol("x")

# points where roots and interval ends are placed on purpose
SPECIAL = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]

points = st.one_of(
    st.sampled_from(SPECIAL),
    st.fractions(min_value=-1, max_value=2, max_denominator=7),
)
linear = points.map(lambda r: [-r.numerator, r.denominator])
quadratic = st.lists(st.integers(-6, 6), min_size=3, max_size=3).filter(lambda c: c[2] != 0)
factors = st.lists(
    st.tuples(st.one_of(linear, quadratic), st.integers(1, 3)), min_size=1, max_size=4
)
scales = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda c: c != 0)


def build(factor_list, scale=F(1)) -> Polynomial:
    out = Polynomial([scale])
    for coeffs, power in factor_list:
        for _ in range(power):
            out = out * Polynomial(coeffs)
    return out


polys = st.builds(build, factors, scales)


@st.composite
def intervals(draw):
    lo, hi = sorted(draw(st.lists(points, min_size=2, max_size=2, unique=True)))
    return lo, hi


def to_sympy(p: Polynomial):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
        X,
        domain="QQ",
    )


def rat(c: F):
    return sympy.Rational(c.numerator, c.denominator)


def assert_primitive_positive(p: Polynomial):
    assert all(c.denominator == 1 for c in p.coeffs)
    assert p.leading > 0
    assert p.primitive() == p


ORACLE = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(polys, polys, polys)
@ORACLE
def test_poly_gcd_matches_sympy(common, f1, f2):
    a, b = common * f1, common * f2
    g = poly_gcd(a, b)
    assert_primitive_positive(g)
    expected = sympy.gcd(to_sympy(a), to_sympy(b)).monic()
    assert to_sympy(g).monic() == expected


@given(polys)
@ORACLE
def test_squarefree_part_matches_sympy(p):
    s = squarefree_part(p)
    assert_primitive_positive(s)
    assert to_sympy(s).monic() == sympy.sqf_part(to_sympy(p)).monic()


@given(polys, intervals())
@ORACLE
def test_count_roots_open_matches_sympy(p, interval):
    lo, hi = interval
    sqf = sympy.sqf_part(to_sympy(p))
    # sympy counts distinct roots in the closed interval [lo, hi]
    expected = sqf.count_roots(rat(lo), rat(hi))
    expected -= sum(1 for end in (lo, hi) if sqf.eval(rat(end)) == 0)
    assert count_roots_open(p, lo, hi) == expected


@given(polys, intervals())
@ORACLE
def test_isolate_roots_matches_sympy(p, interval):
    lo, hi = interval
    sp = to_sympy(p)
    sqf = sympy.sqf_part(sp)
    expected = [
        (r, k)
        for r, k in sympy.real_roots(sp, multiple=False, radicals=False)
        if rat(lo) < r < rat(hi)
    ]
    roots = isolate_roots(p, lo, hi)
    assert len(roots) == len(expected)
    for r, k in expected:
        holding = [
            (b, m)
            for b, m in roots
            if (rat(b) == r if isinstance(b, F) else rat(b.lo) < r < rat(b.hi))
        ]
        assert len(holding) == 1
        ((b, m),) = holding
        assert m == k
        if r.is_Rational:
            assert b == F(int(r.p), int(r.q))
        else:
            assert isinstance(b, IsolatedRoot)
            assert lo <= b.lo < b.hi <= hi
            # the defining polynomial divides the square-free part and has
            # exactly this one root in the bracket
            assert sqf.rem(to_sympy(b.defining)).is_zero
            assert to_sympy(b.defining).count_roots(rat(b.lo), rat(b.hi)) == 1
    positions = [point_position(b) for b, _ in roots]
    for left, right in zip(positions, positions[1:]):
        assert left[1] < right[0]


def seeded_mdp(seed: int) -> tuple[Mdp, DecisionRule]:
    rng = random.Random(seed)
    m = 2 + seed % 3
    states = tuple(f"s{i}" for i in range(m))
    actions = tuple(tuple(f"a{k}" for k in range(rng.randint(1, 2))) for _ in states)
    transitions = tuple(
        tuple(random_stochastic_row(rng, m, 8) for _ in acts) for acts in actions
    )
    rewards = tuple(tuple(random_rational(rng, 8, -2, 2) for _ in acts) for acts in actions)
    terminal = tuple(random_rational(rng, 8, -2, 2) for _ in states)
    mdp = Mdp(states, actions, transitions, rewards, terminal)
    rule = DecisionRule(tuple(rng.randrange(len(acts)) for acts in actions))
    return mdp, rule


@pytest.mark.parametrize("seed", range(12))
def test_value_rational_function_matches_sympy_solve(seed):
    mdp, rule = seeded_mdp(seed)
    # solve (I - a P) v = r by LU over the field of rational functions in a,
    # whose elements compare in reduced form
    a = sympy.Symbol("a")
    field = sympy.QQ.frac_field(a)
    p = sympy.Matrix([[rat(c) for c in row] for row in mdp.transition_matrix(rule)])
    r = sympy.Matrix([rat(c) for c in mdp.reward_vector(rule)])
    lhs = DomainMatrix.from_Matrix(sympy.eye(mdp.m) - a * p).convert_to(field)
    solved = lhs.lu_solve(DomainMatrix.from_Matrix(r).convert_to(field)).to_Matrix()
    for rf, expected in zip(value_rational_function(mdp, rule), solved):
        num = to_sympy(rf.num).as_expr().subs(X, a)
        den = to_sympy(rf.den).as_expr().subs(X, a)
        assert field.from_sympy(num / den) == field.from_sympy(expected)
        # reduced form: coprime, denominator primitive with positive leading term
        assert_primitive_positive(rf.den)
        assert sympy.gcd(to_sympy(rf.num), to_sympy(rf.den)).degree() <= 0
