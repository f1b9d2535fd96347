"""The integer Sturm chain against a reference built by rational division.

``sturm_chain`` works on integer coefficients with pseudo-remainders whose
multiplier is positive, then divides each member by its positive content.
The reference below is the rational-coefficient construction: p, p', then
each negated remainder of the previous two by ``Polynomial`` division, each
scaled by a positive constant to primitive form.  Both must give the same
polynomials, including for leading coefficients of either sign and for
sparse polynomials whose remainder sequence skips degrees.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from exactmdp.exactarith import Polynomial, sturm_chain


def content_and_primitive(q: Polynomial) -> tuple[F, Polynomial]:
    """q = c * p with p having coprime integer coefficients and positive
    leading coefficient; the sign goes to the rational c."""
    den = math.lcm(*(c.denominator for c in q.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in q.coeffs]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return F(g, den), Polynomial([v // g for v in ints])


def remainder(a: Polynomial, b: Polynomial) -> Polynomial:
    return a.divmod(b)[1]


def positive_scaled(q: Polynomial) -> Polynomial:
    content, prim = content_and_primitive(q)
    return prim if content > 0 else -prim


def reference_chain(p: Polynomial) -> list[Polynomial]:
    chain = [positive_scaled(p), positive_scaled(p.derivative())]
    while not chain[-1].is_zero:
        r = remainder(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(positive_scaled(-r))
    return [c for c in chain if not c.is_zero]


def variations(chain: list[Polynomial], x: F) -> int:
    signs = [1 if v > 0 else -1 for v in (q(x) for q in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


sparse = st.lists(
    st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5]), min_size=1, max_size=8
).map(lambda cs: cs + [1]) | st.lists(
    st.integers(-9, 9), min_size=1, max_size=7
).map(lambda cs: cs + [-2])


@given(sparse)
@settings(max_examples=300, deadline=None)
def test_integer_chain_equals_rational_chain(coeffs):
    chain = [Polynomial(q) for q in sturm_chain(coeffs)]
    assert chain == reference_chain(Polynomial(coeffs))


def test_chain_counts_roots_for_negative_leading_coefficients():
    # 2 - x^2 has roots +-sqrt(2); 2 + x^2 - x^5 has one real root near 1.35
    for coeffs, lo, hi, expected in (
        ([2, 0, -1], F(-2), F(2), 2),
        ([2, 0, 1, 0, 0, -1], F(0), F(1), 0),
        ([2, 0, 1, 0, 0, -1], F(1), F(2), 1),
    ):
        chain = [Polynomial(q) for q in sturm_chain(coeffs)]
        assert variations(chain, lo) - variations(chain, hi) == expected
