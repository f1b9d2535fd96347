"""Exact univariate polynomial and rational-function kernel.

Everything here is arbitrary-precision rational arithmetic over the discount
variable: dense polynomials, rule values and reduced rational functions,
real-root isolation on subintervals of (0, 1) by Descartes bisection, and
sign classification.  No floating point enters.  The fraction-free integer
solve under it is ``exactarith``'s, which is all the pointwise path needs:
the package registers this module to run on first use, so ``validate``,
``solve`` and ``turnpike --alpha`` never load it, and ``exactarith`` still
serves every name defined here.

A point of the discount interval (``Point``) has one representation: a
rational is a ``Fraction`` and an irrational root is an ``IsolatedRoot``, a
rational bracket holding exactly that one root of its defining polynomial.
``isolate_roots`` decides which a root is (Collins & Akritas 1976 style
isolation, then a search for the one rational a narrow bracket can hold),
and ``point_position``, ``point_sign`` and ``points_equal`` are the only
helpers the rest of the package needs to order and compare points.

Every sorted set of points (isolated roots, partition and step cuts,
turnpike candidates) goes through ``separate_points``, which keeps one
invariant: no bracket's closed hull holds a rational point of the set or
meets another bracket's, so every gap between neighbours holds a rational.
``insert_point`` adds one point to such a set and leaves what
``separate_points`` would, touching only the new point's neighbours.
``clear_of`` keeps a bracket off other rationals, such as 0 and 1.

``Polynomial`` holds integer coefficients over one denominator and makes a
``Fraction`` only at its edges (the constructor, ``.coeffs``, ``leading``
and a value); every operation runs on the integers.  gcds and square-free
parts come from a primitive polynomial remainder sequence (Brown 1971;
Collins 1967), values and signs at a rational a/b from homogenized integer
Horner evaluation.
Determinants and value functions are Kronecker substitutions (Schönhage
1982): the matrix is evaluated at a = X = 2^s, with s chosen so that every
coefficient of the result lies below X/2 in magnitude, one integer Bareiss
elimination (Bareiss 1968) runs on it, and the coefficients come back as
the balanced base-X digits of the integer result.  ``poly_det`` and
``_value_solve`` share ``exactarith``'s one elimination kernel.  Before its
remainder sequence, a gcd evaluates both inputs at a power of two above a
Mignotte bound on any common factor, and an integer gcd of at most X/2
certifies the pair coprime (Char, Geddes & Gonnet 1989).  In a bracket
with one simple root, bisection (on integer numerators over one
denominator) and ``point_sign`` read the defining polynomial's sign.

Most intervals handed to root isolation hold no root.  ``descartes_bound``
maps (lo, hi) onto (0, oo) by t -> (hi + lo·t)/(1 + t), built from two
Taylor shifts and two scalings, and counts the sign variations of the
transformed integer polynomial (Descartes' rule of signs;
Collins & Akritas 1976, Rouillier & Zimmermann 2004).  The count exceeds
the number of roots in the interval, counted with multiplicity, by an even
number, so 0 and 1 are exact.  A count of 0 certifies the interval root-free
at O(d²) integer cost, so ``isolate_roots`` returns at once, before any gcd.
``_excludes_roots`` is a cheaper, weaker certificate for the closed
interval, O(d): the value at the midpoint beats the half-width times a
bound on the derivative.  Only symbolic value iteration's step runs it,
on each pair difference before isolation, or reads the same inequality
off per-piece tables (``partition._table_excludes``).
A count of 1 certifies exactly one simple root, which ``isolate_roots``
identifies on the square-free part with multiplicity 1.  Past that screen,
``isolate_roots`` bisects the square-free part on the same counts: a piece
with count 0 is dropped, one with count 1 holds one root, any other is
halved, and a root at a midpoint is recorded and divided out.  No end of a
piece is then a root, so the halving stops (Vincent's theorem; Collins &
Akritas 1976); the two-circle theorem (Krandick & Mehlhorn 2006) says a
count above the true one needs a non-real root within about the piece's
width.  ``count_roots_open`` counts the same bisection's pieces and
midpoint hits without identifying a root, and no root question builds a
Sturm chain.

The two point tests exit early.  An ``IsolatedRoot``'s root lies strictly
inside its open bracket, so ``polynomial_vanishes_at`` answers no when
Descartes' rule finds p root-free on the bracket, and ``same_root`` answers
no when the two open brackets are disjoint; otherwise each counts the roots
of one gcd on one interval.  ``simplest_fraction_between``, which names the
one rational a narrow bracket can hold, runs its continued-fraction
recursion on integer numerators and denominators.

A decision rule's values have one form, ``RuleValues``: its solve (N, Δ),
with value N_x / Δ at state x and Δ > 0 on [0, 1).  ``values_at``,
``value_difference`` and ``value_slopes`` read it with no gcd; only
``value_rational_function`` reduces it to ``RationalFunction``s.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .exactarith import _bareiss_forward, bareiss_solve
from .mdp import DecisionRule, Mdp


class ZeroPolynomialError(ValueError):
    pass


class PoleInIntervalError(ValueError):
    pass


class Polynomial:
    """Dense polynomial with rational coefficients, held as integer numerators
    ``ints`` (constant term first) over one positive denominator ``den``.

    Canonical form: no trailing (highest-degree) zero in ``ints``, and
    gcd(den, content) = 1; the zero polynomial is ((), 1) and has degree -1.
    Equal polynomials therefore have equal (ints, den).
    """

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        _store(self, [c.numerator * (den // c.denominator) for c in cs], den)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial([Fraction(c)])

    # -- basic structure -------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ints == other.ints
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*a")
            else:
                terms.append(f"{c}*a^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b, den = self.ints, other.ints, self.den
        if den != other.den:
            den = math.lcm(den, other.den)
            a = [c * (den // self.den) for c in a]
            b = [c * (den // other.den) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, den)

    def __neg__(self) -> "Polynomial":
        return _poly([-c for c in self.ints], self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _poly([c * n for c in self.ints], self.den * other.denominator)
        return _poly(_mul_ints(self.ints, other.ints), self.den * other.den)

    __rmul__ = __mul__

    def shift_up(self, k: int = 1) -> "Polynomial":
        """Multiply by the variable to the k-th power."""
        if self.is_zero:
            return self
        return _poly([0] * k + list(self.ints), self.den)

    def __call__(self, point: Fraction) -> Fraction:
        d = point.denominator
        acc = _homogeneous_value(self.ints, point.numerator, d)
        return Fraction(acc, d ** max(self.degree, 0) * self.den)

    def derivative(self) -> "Polynomial":
        return _poly(_derivative_ints(self.ints), self.den)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b = other.ints
        db, lb = len(b) - 1, b[-1]
        k = max(0, len(self.ints) - db)
        # pseudo-division lb^k·a = q·b + r, exact in Z[x]; then
        # self = (q·other.den)/(self.den·lb^k) · other + r/(self.den·lb^k)
        rem = [c * lb**k for c in self.ints]
        q = [0] * k
        for i in range(k - 1, -1, -1):
            q[i] = f = rem[i + db] // lb
            for j, c in enumerate(b):
                rem[i + j] -= f * c
        den = self.den * lb**k
        return _poly([c * other.den for c in q], den), _poly(rem[:db], den)

    # -- normal forms -------------------------------------------------------------

    def primitive(self) -> "Polynomial":
        if self.is_zero:
            return self
        return _poly(_primitive_ints(self.ints))


def _store(p: Polynomial, ints: Sequence[int], den: int) -> None:
    """Store ints / den in p in canonical form; den is a nonzero int.  ints
    is only read, so a caller may keep using it."""
    end = len(ints)
    while end and ints[end - 1] == 0:
        end -= 1
    ints = ints[:end]
    if not ints:
        den = 1
    elif den != 1:
        g = math.gcd(den, *ints)
        if den < 0:
            g = -g
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
    p.ints = tuple(ints)
    p.den = den


def _poly(ints: Sequence[int], den: int = 1) -> Polynomial:
    """The polynomial ints / den, built without the Fraction constructor."""
    p = object.__new__(Polynomial)
    _store(p, ints, den)
    return p


# -- integer coefficient kernel -----------------------------------------------
#
# Integer polynomials are lists of int, constant term first, with no trailing
# zero; the zero polynomial is the empty list.


def _signed_content(a: Sequence[int]) -> int:
    """Content of nonzero a, carrying the sign of its leading coefficient."""
    g = math.gcd(*a)
    return g if a[-1] > 0 else -g


def _primitive_ints(a: Sequence[int]) -> list[int]:
    """a divided by its content, leading coefficient positive."""
    g = _signed_content(a)
    return [c // g for c in a]


def _derivative_ints(a: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _mul_ints(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _sub_ints(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Remainder of c*a by b for a positive integer c (a power of |lc(b)|
    with common factors cancelled step by step), so the result is a positive
    multiple of the rational remainder a mod b."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    alb = abs(lb)
    sb = 1 if lb > 0 else -1
    while len(r) > db:
        lr = r[-1]
        g = math.gcd(lr, lb)
        m = alb // g
        f = sb * lr // g  # m * lr == f * lb, so the top term cancels
        k = len(r) - 1 - db
        if m != 1:
            r = [m * c for c in r]
        for i in range(db):
            r[k + i] -= f * b[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def _exact_div_ints(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Quotient a / b, which must be exact with integer coefficients (true
    whenever b is primitive and divides a over the rationals, by Gauss's
    lemma)."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * (len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        f, rem = divmod(r[k + db], lb)
        if rem:
            raise ArithmeticError("division was not exact")
        q[k] = f
        for i in range(db + 1):
            r[k + i] -= f * b[i]
    if any(r):
        raise ArithmeticError("division was not exact")
    return q


def _gcd_ints(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd of nonzero a and b by a primitive remainder sequence,
    after an integer certificate that most pairs are coprime.

    The certificate (as in the heuristic gcd of Char, Geddes & Gonnet 1989):
    let M = min(‖a‖₁·2^deg a, ‖b‖₁·2^deg b) and X = 2^(bits(M) + 2) > 4M.
    A factor g of f in Z[x] has ‖g‖∞ ≤ 2^deg f·‖f‖₂ ≤ ‖f‖₁·2^deg f
    (Mignotte), so a common factor g of degree k ≥ 1 has ‖g‖∞ ≤ M < X/4 and
    |g(X)| ≥ X^k − (X/4)(X^k − 1)/(X − 1) > X^k/2 ≥ X/2.  It divides a(X)
    and b(X), one of which is nonzero (the f attaining M has ‖f‖∞ < X/2),
    so gcd(a(X), b(X)) ≥ |g(X)| > X/2.  Hence gcd(a(X), b(X)) ≤ X/2
    proves a and b coprime; otherwise the remainder sequence decides.
    """
    a, b = _primitive_ints(a), _primitive_ints(b)
    if len(a) < len(b):
        a, b = b, a
    if len(b) > 1:
        bound = min(
            sum(map(abs, a)) << (len(a) - 1), sum(map(abs, b)) << (len(b) - 1)
        )
        s = bound.bit_length() + 2
        common = math.gcd(_value_at_power_of_two(a, s), _value_at_power_of_two(b, s))
        if common <= 1 << (s - 1):
            return [1]
    while len(b) > 1:
        r = _pseudo_rem(a, b)
        if not r:
            return b
        a, b = b, _primitive_ints(r)
    return [1]


def _homogeneous_value(a: Sequence[int], n: int, d: int) -> int:
    """d^k·a(n/d) = sum(a_i n^i d^(k-i)) for k = len(a) - 1, by Horner."""
    acc = 0
    dk = 1
    for c in reversed(a):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _value_at_power_of_two(a: Sequence[int], s: int) -> int:
    """a(2^s), by Horner on shifts."""
    acc = 0
    for c in reversed(a):
        acc = (acc << s) + c
    return acc


def _balanced_digits(v: int, s: int, bound: int) -> list[int]:
    """The integer polynomial a with a(2^s) = v and every |a_i| ≤ bound,
    where 2·bound < 2^s: v's base-2^s digits in [−2^(s−1), 2^(s−1)),
    constant term first.  Such digits are unique, so a is exact when its
    coefficients are known to be bounded; a larger digit means the bound
    did not hold."""
    half, mask = 1 << (s - 1), (1 << s) - 1
    out = []
    while v:
        d = v & mask
        if d >= half:
            d -= mask + 1
        if abs(d) > bound:
            raise ArithmeticError("coefficient bound exceeded")
        out.append(d)
        v = (v - d) >> s
    return out


def _sign_at(a: Sequence[int], x: Fraction) -> int:
    """Sign of a at x = n/d, from the homogenized value sum(a_i n^i d^(k-i))."""
    acc = _homogeneous_value(a, x.numerator, x.denominator)
    return (acc > 0) - (acc < 0)


def _taylor_shift(a: list[int], s: int) -> None:
    """Replace a(x) by a(x + s) in place: Ruffini-Horner, O(d²) steps, which
    are additions only when s = 1."""
    top = len(a) - 1
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            a[j] += a[j + 1] if s == 1 else s * a[j + 1]


def descartes_bound(a: Sequence[int], lo: Fraction, hi: Fraction) -> int:
    """Sign variations of (1+t)^d·a((hi + lo·t)/(1+t)), d = deg a.

    The Möbius map t -> (hi + lo·t)/(1+t) takes (0, oo) onto the open
    interval (lo, hi), so by Descartes' rule of signs this is an upper bound
    on the number of roots of a in (lo, hi), counted with multiplicity, and
    differs from it by an even number.  0 certifies (lo, hi) root-free at
    O(d²) integer cost.  Needs lo < hi and a nonzero.
    """
    n0, d0 = lo.numerator, lo.denominator
    n1, d1 = hi.numerator, hi.denominator
    # With D = d0·d1, A = n0·d1 and W = n1·d0 - A, lo + (hi - lo)·x is
    # (A + W·x)/D.  D^d·a((x + A)/D) has coefficients a_i·D^(d-i) shifted by
    # A; scaling coefficient i by W^i gives D^d·a(lo + (hi - lo)·x), which
    # maps (0, 1) onto (lo, hi); reversing it and shifting by 1 maps (0, oo)
    # onto (0, 1) by x = 1/(1+t).  The result is the polynomial above.
    big_d, shift = d0 * d1, n0 * d1
    width = n1 * d0 - shift
    b = list(a)
    power = 1
    for i in range(len(b) - 1, -1, -1):
        b[i] *= power
        power *= big_d
    if shift:
        _taylor_shift(b, shift)
    power = 1
    for i in range(len(b)):
        b[i] *= power
        power *= width
    b.reverse()
    _taylor_shift(b, 1)
    signs = [c > 0 for c in b if c]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _excludes_roots(a: Sequence[int], lo: Fraction, hi: Fraction) -> bool:
    """True when nonzero a certainly has no root on the closed interval
    [lo, hi], lo < hi, by an O(d) test; False says nothing.

    With c the midpoint, h the half-width and M = max(|lo|, |hi|), every x
    in [lo, hi] has |a(x) - a(c)| <= h·max|a'| <= h·Σ i·|a_i|·M^(i-1) by the
    mean value theorem, so |a(c)| above that bound keeps a(x) off 0.  Over
    the common denominator q of the ends, lo = l/q and hi = u/q, the test
    is 2·|(2q)^d·a(c)| > (u - l)·2^d·q^(d-1)·Σ i·|a_i|·M^(i-1): one integer
    comparison after two homogenized Horner passes, against the two O(d²)
    Taylor shifts of ``descartes_bound``.
    """
    q = math.lcm(lo.denominator, hi.denominator)
    l = lo.numerator * (q // lo.denominator)
    u = hi.numerator * (q // hi.denominator)
    centre = _homogeneous_value(a, l + u, 2 * q)
    slope = _homogeneous_value(
        [i * abs(c) for i, c in enumerate(a) if i], max(abs(l), abs(u)), q
    )
    return 2 * abs(centre) > ((u - l) * slope << (len(a) - 1))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor, returned in primitive integer form."""
    if a.is_zero:
        return b.primitive()
    if b.is_zero:
        return a.primitive()
    return _poly(_gcd_ints(a.ints, b.ints))


def squarefree_part(p: Polynomial) -> Polynomial:
    if p.is_zero:
        raise ZeroPolynomialError("square-free part of the zero polynomial")
    if p.degree == 0:
        return Polynomial.constant(1)
    a = p.ints
    g = _gcd_ints(a, _derivative_ints(a))
    if len(g) > 1:
        a = _exact_div_ints(a, g)
    return _poly(_primitive_ints(a))


def root_multiplicity(p: Polynomial, root: Fraction) -> int:
    """Multiplicity of an exact rational root."""
    a = p.ints
    linear = [-root.numerator, root.denominator]
    mult = 0
    while a and _sign_at(a, root) == 0:
        a = _exact_div_ints(a, linear)
        mult += 1
    return mult


# -- Sturm chains: a reference only ----------------------------------------------
#
# No root question in this module builds a Sturm chain: Descartes counts
# decide them all.  ``sturm_chain``, ``_variations`` and ``_positive_part``
# stay as the independent count that the tests' references use, and
# ``sturm_chain`` is one of the benchmark's trace targets.


def _positive_part(a: Sequence[int]) -> tuple[int, ...]:
    """a divided by its positive content only, keeping its sign pattern."""
    g = math.gcd(*a)
    return tuple(c // g for c in a)


SturmChain = tuple[tuple[int, ...], ...]


def sturm_chain(p: Sequence[int]) -> SturmChain:
    """Sturm sequence of the integer polynomial p (constant term first): p,
    p', then each negated remainder of the previous two.

    Every member is divided by its positive content.  Scaling by positive
    constants keeps coefficients small and does not disturb the sign
    variations; sign-flipping normalizations would.  The pseudo-remainder is
    a positive multiple of the rational remainder, so the chain is the one
    rational division would give after the same scaling.
    """
    chain = [_positive_part(p)]
    r = _derivative_ints(p)
    while r:
        chain.append(_positive_part(r))
        r = [-c for c in _pseudo_rem(chain[-2], chain[-1])]
    return tuple(chain)


def _variations(chain: SturmChain, x: Fraction) -> int | None:
    """Sign variations of the chain at x; None where its first member
    vanishes, since the Sturm count needs both interval ends off the roots."""
    signs = [_sign_at(q, x) for q in chain]
    if signs[0] == 0:
        return None
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _squarefree_off_ends(p: Polynomial, lo: Fraction, hi: Fraction) -> list[int]:
    """Primitive square-free part of nonzero p with any root at lo or hi
    divided out."""
    s = squarefree_part(p).ints
    for endpoint in (lo, hi):
        while len(s) > 1 and _sign_at(s, endpoint) == 0:
            s = _exact_div_ints(s, [-endpoint.numerator, endpoint.denominator])
    return _primitive_ints(s)


def count_roots_open(p: Polynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi): the
    pieces and midpoint hits of ``isolate_roots``' bisection, counted
    without identifying any root."""
    if p.is_zero:
        raise ZeroPolynomialError("root counting on the zero polynomial")
    if p.degree == 0 or lo >= hi:
        return 0
    bound = descartes_bound(p.ints, lo, hi)
    if bound <= 1:  # 0 and 1 are exact counts
        return bound
    s_ints = _squarefree_off_ends(p, lo, hi)
    if len(s_ints) <= 1:
        return 0
    return sum(1 for _ in _descartes_bisection(s_ints, lo, hi))


def _sign_above_root(a: Sequence[int], lo: Fraction, hi: Fraction) -> int:
    """Sign of square-free a between its one root in (lo, hi) and hi; the
    root is simple, so a has the opposite sign between lo and the root."""
    sign = _sign_at(a, hi)
    if sign == 0:
        sign = -_sign_at(a, lo)
    if sign == 0:
        sign = -_sign_at(_derivative_ints(a), hi)
    return sign


def _bisect(
    defining: Polynomial, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction, Fraction | None]:
    """Halve (lo, hi), which holds exactly one root of the square-free
    ``defining``, until it is no wider than ``width``.  Returns (lo, hi, mid)
    when a midpoint hits the root and (lo, hi, None) otherwise.  A midpoint
    with ``defining``'s sign above the root has the root on its left.

    The ends are integer numerators ln, hn over one denominator d, which
    starts as the lcm of the two ends' denominators and doubles at each
    halving; no ``Fraction`` is built until the ends are returned.
    """
    a = defining.ints
    above = _sign_above_root(a, lo, hi)
    d = math.lcm(lo.denominator, hi.denominator)
    ln = lo.numerator * (d // lo.denominator)
    hn = hi.numerator * (d // hi.denominator)
    wn, wd = width.numerator, width.denominator
    while (hn - ln) * wd > wn * d:
        mid, d = ln + hn, 2 * d
        sign = _homogeneous_value(a, mid, d)
        if sign == 0:
            return Fraction(2 * ln, d), Fraction(2 * hn, d), Fraction(mid, d)
        if (sign > 0) == (above > 0):
            ln, hn = 2 * ln, mid
        else:
            ln, hn = mid, 2 * hn
    return Fraction(ln, d), Fraction(hn, d), None


def simplest_fraction_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator strictly inside (lo, hi).

    The continued-fraction recursion on integer numerators and denominators:
    with n = floor(lo), either n + 1 < hi, or (lo, hi) - n lies in [0, 1]
    and the answer is n + 1/q with q the simplest rational in
    (1/(hi - n), 1/(lo - n)), or q = floor(1/(hi - n)) + 1 when lo = n.
    """
    if not lo < hi:
        raise ValueError("empty interval")
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    wholes = []
    while True:
        n = ln // ld
        if (n + 1) * hd < hn:
            num, den = n + 1, 1
            break
        ln -= n * ld
        hn -= n * hd
        if not ln:
            q = hd // hn + 1
            num, den = n * q + 1, q
            break
        wholes.append(n)
        ln, ld, hn, hd = hd, hn, ld, ln
    for n in reversed(wholes):
        num, den = n * num + den, num
    return Fraction(num, den)


@dataclass(frozen=True)
class IsolatedRoot:
    """One irrational real root, isolated by a rational bracket (lo, hi).

    ``defining`` is a primitive square-free integer polynomial with exactly
    one root in the open bracket, and that root is certified irrational:
    ``isolate_roots`` returns every rational root as a ``Fraction``, and
    every ``IsolatedRoot`` it builds comes out of ``_identify_rational``.
    """

    lo: Fraction
    hi: Fraction
    defining: Polynomial

    def refined(self, max_width: Fraction) -> "IsolatedRoot":
        if max_width <= 0:  # no bracket around an irrational root is that narrow
            raise ValueError(f"bracket width must be positive, got {max_width}")
        if self.hi - self.lo <= max_width:
            return self
        lo, hi, hit = _bisect(self.defining, self.lo, self.hi, max_width)
        if hit is not None:
            raise ValueError(f"bracket ({self.lo}, {self.hi}) holds the rational root {hit}")
        return IsolatedRoot(lo, hi, self.defining)

    def excluding(self, point: Fraction) -> "IsolatedRoot":
        """Refine until the bracket no longer contains the given rational."""
        if self.lo < point < self.hi and _sign_at(self.defining.ints, point) == 0:
            raise ValueError(f"bracket ({self.lo}, {self.hi}) holds the rational root {point}")
        root = self
        while root.lo < point < root.hi:
            root = root.refined((root.hi - root.lo) / 4)
        return root


# A point of the discount interval: a rational as itself, an irrational root
# as its bracket.  A rational root is never an ``IsolatedRoot``, so two
# points of different types are different points.
Point = Union[Fraction, IsolatedRoot]


def point_position(pt: Point) -> tuple[Fraction, Fraction]:
    if isinstance(pt, Fraction):
        return pt, pt
    return pt.lo, pt.hi


def point_sign(pt: Point, alpha: Fraction) -> int:
    """Sign of pt - alpha, decided exactly when alpha lies in pt's bracket."""
    lo, hi = point_position(pt)
    if hi < alpha:
        return -1
    if alpha < lo:
        return 1
    if lo == hi:
        return 0
    a = pt.defining.ints
    sign = _sign_at(a, alpha)
    if sign == 0:  # the root inside is irrational, so alpha is an end
        return 1 if alpha == lo else -1
    return -1 if sign == _sign_above_root(a, lo, hi) else 1


def points_equal(a: Point, b: Point) -> bool:
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        return a == b
    return same_root(a, b)


def clear_of(pt: Point, rationals: Sequence[Fraction]) -> Point:
    """pt, with a bracket refined until its closed hull holds none of the
    rationals; the root is irrational, so bisection leaves each behind."""
    while isinstance(pt, IsolatedRoot) and any(pt.lo <= q <= pt.hi for q in rationals):
        pt = pt.refined((pt.hi - pt.lo) / 4)
    return pt


def separate_points(points: Sequence[Point], records: Sequence | None = None) -> list:
    """The points in increasing order, no two touching, so every gap between
    neighbours holds a rational.  With ``records``, one per point and the
    points distinct, the result is (point, record) pairs in that order.

    Brackets are refined in three passes, in this order: out of each
    rational's open interval, then pair by pair, in (i, j) order, until the
    closed hulls are disjoint (both brackets of a pair refined together),
    then until no closed hull holds a rational.  The order fixes how far
    each bracket is refined, and so its printed ends.  Refining only shrinks
    a bracket, so a pair whose hulls are apart when the pair pass starts
    stays apart; one sort on ``lo`` finds the pairs that meet, and only
    those are visited.
    """
    keyed = list(zip(points, [None] * len(points) if records is None else records))
    rationals = sorted(dict((p, r) for p, r in keyed if isinstance(p, Fraction)).items())
    cuts = [q for q, _ in rationals]
    brackets = []
    for br, r in keyed:
        if isinstance(br, IsolatedRoot):
            for q in cuts:
                br = br.excluding(q)
            brackets.append((br, r))
    by_lo = sorted(range(len(brackets)), key=lambda k: brackets[k][0].lo)
    meeting = []
    for pos, i in enumerate(by_lo):
        hi = brackets[i][0].hi
        for j in by_lo[pos + 1 :]:
            if brackets[j][0].lo > hi:
                break
            meeting.append((min(i, j), max(i, j)))
    for i, j in sorted(meeting):
        (a, ra), (b, rb) = brackets[i], brackets[j]
        while not (a.hi < b.lo or b.hi < a.lo):
            a = a.refined((a.hi - a.lo) / 4)
            b = b.refined((b.hi - b.lo) / 4)
        brackets[i], brackets[j] = (a, ra), (b, rb)
    merged = rationals + [(clear_of(br, cuts), r) for br, r in brackets]
    merged.sort(key=lambda item: point_position(item[0]))
    return merged if records is not None else [p for p, _ in merged]


def _hi_of(pt: Point) -> Fraction:
    return pt if isinstance(pt, Fraction) else pt.hi


def _lo_of(pt: Point) -> Fraction:
    return pt if isinstance(pt, Fraction) else pt.lo


def insert_point(points: list[Point], new: Point) -> bool:
    """Insert new into points, a list that ``separate_points`` returned,
    leaving it as ``separate_points(points + [new])`` would, with no sort;
    False, with points unchanged, when new equals one of them.

    The points are already apart, in order, so only a pair with new can
    meet, and only the points whose closed hulls meet new's (found by
    bisection) take part; a point equal to new is one of them.  A rational
    new is cleared from the one bracket holding it (moving it out of the
    open bracket and then off its ends is the same bisection).  A bracket
    runs the same passes in the same order: out of each of their rationals'
    open intervals, left to right; refined together with each bracket that
    still meets it, left to right; cleared of the rationals.  Every other
    step of ``separate_points`` leaves a point that is already apart as it
    is.
    """
    lo, hi = point_position(new)
    near = range(bisect_left(points, lo, key=_hi_of), bisect_right(points, hi, key=_lo_of))
    if any(points_equal(points[k], new) for k in near):
        return False
    if isinstance(new, Fraction):
        for k in near:  # at most one bracket, as the hulls are apart
            points[k] = clear_of(points[k], (new,))
    else:
        cuts = [points[k] for k in near if isinstance(points[k], Fraction)]
        for q in cuts:
            new = new.excluding(q)
        for k in near:  # a bracket apart from new now stays apart
            a = points[k]
            while isinstance(a, IsolatedRoot) and not (a.hi < new.lo or new.hi < a.lo):
                a = a.refined((a.hi - a.lo) / 4)
                new = new.refined((new.hi - new.lo) / 4)
            points[k] = a
        new = clear_of(new, cuts)
    points.insert(bisect_left(points, _lo_of(new), key=_lo_of), new)
    return True


def _identify_rational(s: Polynomial, lo: Fraction, hi: Fraction) -> Point:
    """Resolve a bracket holding one root of square-free s into an exact
    rational root or a certified-irrational bracket."""
    prim = s.primitive()
    qmax = abs(prim.ints[-1])
    # Two distinct rationals with denominator <= qmax differ by >= 1/qmax^2,
    # so a bracket narrower than that holds at most one candidate.
    width_target = Fraction(1, 2 * qmax * qmax)
    lo, hi, hit = _bisect(prim, lo, hi, width_target)
    if hit is not None:
        return hit
    cand = simplest_fraction_between(lo, hi)
    if cand.denominator <= qmax and _sign_at(prim.ints, cand) == 0:
        return cand
    return IsolatedRoot(lo, hi, prim)


def isolate_roots(
    p: Polynomial, lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)
) -> list[tuple[Point, int]]:
    """(root, multiplicity in p) for each distinct real root in (lo, hi), in
    increasing order.

    A rational root is a ``Fraction``; an irrational one is an
    ``IsolatedRoot`` whose bracket is disjoint from its neighbours'.
    """
    if p.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if p.degree == 0 or lo >= hi:
        return []
    bound = descartes_bound(p.ints, lo, hi)
    if bound == 0:
        return []
    s_ints = _squarefree_off_ends(p, lo, hi)
    if len(s_ints) <= 1:
        return []
    if bound == 1:  # exactly one root in (lo, hi), and it is simple
        return [(_identify_rational(_poly(s_ints), lo, hi), 1)]
    found: list[Point] = []
    for hit in _descartes_bisection(s_ints, lo, hi):
        if isinstance(hit, Fraction):
            found.append(hit)
        else:
            a, b, q = hit
            found.append(_identify_rational(_poly(q), a, b))
    p_gcd = None  # gcd(p, p'), shared by every irrational root
    mults = []
    for root in found:
        if isinstance(root, Fraction):
            mults.append(root_multiplicity(p, root))
        else:
            if p_gcd is None:
                p_gcd = poly_gcd(p, p.derivative())
            mults.append(_irrational_multiplicity(p_gcd, root))
    pairs = sorted(zip(found, mults), key=lambda rm: point_position(rm[0]))
    return separate_points([r for r, _ in pairs], [m for _, m in pairs])


def _descartes_bisection(s_ints: list[int], lo: Fraction, hi: Fraction) -> Iterator:
    """Bisection on Descartes counts of the primitive square-free s, which
    has no root at lo or hi: yields each root a midpoint hits, as a
    ``Fraction``, and (a, b, q) for each piece (a, b) that holds exactly one
    root of q, the factor of s left after the hits so far are divided out.
    No end of a piece is a root of q, so the halving stops (Vincent's
    theorem)."""
    stack = [(lo, hi, s_ints)]
    while stack:
        a, b, q = stack.pop()
        count = descartes_bound(q, a, b)
        if count == 0:
            continue
        if count == 1:
            yield a, b, q
            continue
        mid = (a + b) / 2
        if _sign_at(q, mid) == 0:
            yield mid
            # q is primitive, so the quotient is exact over the integers
            q = _exact_div_ints(q, [-mid.numerator, mid.denominator])
            if len(q) <= 1:
                continue
        stack.append((a, mid, q))
        stack.append((mid, b, q))


def _irrational_multiplicity(g: Polynomial, root: IsolatedRoot) -> int:
    """Multiplicity in p of an irrational root, given g = gcd(p, p')."""
    mult = 1
    while not g.is_zero and g.degree > 0 and polynomial_vanishes_at(g, root):
        mult += 1
        g = poly_gcd(g, g.derivative())
    return mult


def polynomial_vanishes_at(p: Polynomial, root: IsolatedRoot) -> bool:
    """Does p vanish at the irrational isolated root?  The root lies strictly
    inside its open bracket, so when Descartes' rule finds no root of p there
    the answer is no, without a gcd."""
    if p.is_zero:
        return True
    if descartes_bound(p.ints, root.lo, root.hi) == 0:
        return False
    g = poly_gcd(p, root.defining)
    return g.degree > 0 and count_roots_open(g, root.lo, root.hi) > 0


def same_root(a: IsolatedRoot, b: IsolatedRoot) -> bool:
    """Are the two irrational roots one number?  Yes exactly when
    g = gcd(a.defining, b.defining) has a root in the open overlap of the
    brackets.  Such a root is a root of a.defining inside a's bracket,
    which holds only a's root, and likewise b's, so it is both.  Conversely,
    equal roots lie in both open brackets, hence in the overlap, and are a
    common root of the two defining polynomials, hence a root of g.
    Disjoint brackets hold different roots, which needs no gcd."""
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo >= hi:
        return False
    g = poly_gcd(a.defining, b.defining)
    return g.degree > 0 and count_roots_open(g, lo, hi) > 0


# -- rational functions -----------------------------------------------------------


class RationalFunction:
    """Reduced quotient of polynomials, analytic at 0.

    Canonical form: numerator and denominator coprime, denominator in
    primitive integer form with positive leading coefficient.  Requiring
    den(0) != 0 matches the use here (value functions on [0, 1)).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            den = _poly([1])
        else:
            # the gcd is primitive, so it divides the integer numerators of
            # num and den exactly over the integers (Gauss's lemma)
            n, d = num.ints, den.ints
            g = poly_gcd(num, den)
            if g.degree > 0:
                n = _exact_div_ints(n, g.ints)
                d = _exact_div_ints(d, g.ints)
            c = _signed_content(d)
            num = _poly([v * den.den for v in n], num.den * c)
            den = _poly([v // c for v in d])
        if den.ints[0] == 0:
            raise ZeroDivisionError("denominator vanishes at 0")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r} / {self.den!r})"

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        # a negated canonical form is canonical: no gcd to take
        f = object.__new__(RationalFunction)
        object.__setattr__(f, "num", -self.num)
        object.__setattr__(f, "den", self.den)
        return f

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num * other, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __call__(self, point: Fraction) -> Fraction:
        d = self.den(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num(point) / d

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )


@dataclass(frozen=True)
class SignResult:
    sign: str  # '+', '-', '0', 'mixed'
    roots: tuple[Point, ...] = ()


def sign_on_interval(
    f: RationalFunction, lo: Fraction, hi: Fraction
) -> SignResult:
    """Exact sign of f on the open interval (lo, hi).

    '+' / '-' mean strict sign everywhere; '0' identically zero; 'mixed'
    means f has a zero inside, with the separating roots attached.
    """
    if f.is_zero:
        return SignResult("0")
    if f.den.degree > 0 and count_roots_open(f.den, lo, hi) > 0:
        raise PoleInIntervalError(f"denominator vanishes inside ({lo}, {hi})")
    roots = isolate_roots(f.num, lo, hi)
    if roots:
        return SignResult("mixed", tuple(r for r, _ in roots))
    mid = (lo + hi) / 2
    return SignResult("+" if f(mid) > 0 else "-")


# -- polynomial determinants ------------------------------------------------------


def poly_det(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a polynomial matrix, by Kronecker substitution into one
    integer fraction-free (Bareiss) elimination.

    Each row is first scaled by the lcm of its denominators, which scales
    the determinant by the product of those lcms; it is divided back out.
    Expanding along a row bounds the coefficient 1-norm of the determinant
    of the integer rows by C = ∏ᵢ Σⱼ ‖eᵢⱼ‖₁, so at X = 2^(bits(C) + 2) every
    coefficient lies below X/2 in magnitude and the integer det(X) holds
    them as its balanced base-X digits.
    """
    rows = []
    scale = 1
    for row in matrix:
        den = math.lcm(*(e.den for e in row))
        scale *= den
        rows.append([[c * (den // e.den) for c in e.ints] for e in row])
    bound = math.prod(sum(abs(c) for e in row for c in e) for row in rows)
    s = bound.bit_length() + 2
    m = [[_value_at_power_of_two(e, s) for e in row] for row in rows]
    sign = _bareiss_forward(m, len(m))
    return _poly(_balanced_digits(sign * m[-1][-1], s, bound), scale)


# -- a rule's value functions -------------------------------------------------------

# (N, Δ): a rule's value at state x is N[x] / Δ (``_value_solve``)
RuleValues = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


def _value_solve(mdp: Mdp, rule: DecisionRule) -> RuleValues:
    """(N, Δ), integer coefficient tuples (constant term first) with
    Δ = det(L·I − a·L·P) and the rule's value at state x equal to N_x / Δ,
    where L = ``mdp.integer_table``'s scale.  Δ(0) = L^m > 0 and Δ has no
    root in [0, 1), so Δ > 0 there.

    The system (L·I − a·L·P) v = L·r is solved once on integers at
    a = X = 2^s (Kronecker substitution) by ``bareiss_solve``.  Row i has
    coefficient 1-norm nᵢ = L + Σⱼ L·P(i, j) (2L for a stochastic row), and
    putting L·rᵢ in place of one of its entries gives at most nᵢ + |L·rᵢ|.
    Expanding each determinant along its rows then bounds every coefficient
    of det and of each Cramer numerator det·vₓ by C = ∏ᵢ (nᵢ + |L·rᵢ|).
    With s = bits(C) + 2 they all lie below X/2 in magnitude, so the
    integers |det(X)| and |det(X)|·vₓ(X) the solve returns hold them, up to
    one common sign, as balanced base-X digits, which are unique; a digit
    above C would mean the bound failed, and raises.  The sign is then
    fixed by Δ(0) > 0.
    """
    m = mdp.m
    table = mdp.integer_table
    scale = table.scale
    cells = [
        (table.rows[i][k], table.rewards[i][k]) for i, k in enumerate(rule.choices)
    ]
    bound = math.prod(
        scale + sum(abs(lp) for _, lp in row) + abs(reward) for row, reward in cells
    )
    s = bound.bit_length() + 2
    rows = []
    for i, (row, _) in enumerate(cells):
        ints = [0] * m
        for j, lp in row:
            ints[j] = -lp << s
        ints[i] += scale
        rows.append(ints)
    nums, det = bareiss_solve(rows, [reward for _, reward in cells])
    det_ints = _balanced_digits(det, s, bound)
    if det_ints[0] < 0:  # Δ(0) = L^m
        nums = [-v for v in nums]
        det_ints = [-c for c in det_ints]
    return tuple(tuple(_balanced_digits(v, s, bound)) for v in nums), tuple(det_ints)


def value_rational_function(mdp: Mdp, rule: DecisionRule) -> tuple[RationalFunction, ...]:
    """Per-state stationary value of a decision rule as a function of the
    discount factor, in reduced form: ``_value_solve``'s N_x / Δ for each
    state x, reduced by a gcd, the one place a solve becomes
    ``RationalFunction``s.  Degrees are bounded by the state count."""
    nums, det = _value_solve(mdp, rule)
    out = tuple(RationalFunction(_poly(num), _poly(det)) for num in nums)
    if any(rf.num.degree > mdp.m or rf.den.degree > mdp.m for rf in out):
        raise AssertionError("value function degree exceeded the state count; kernel bug")
    return out


def values_at(values: RuleValues, x: Fraction) -> tuple[list[int], int]:
    """(nums, den) with V_i(x) = nums[i] / den over one positive denominator,
    gcd(den, *nums) = 1, for a rule's values (N, Δ): with k the largest
    degree among them and x = n/d, V_i(x) = d^k·N_i(x) / (d^k·Δ(x)), so
    one homogenized value per numerator over the shared Δ."""
    nums, det = values
    n, d = x.numerator, x.denominator
    width = max(len(det), *map(len, nums))
    tops = [_homogeneous_value(a, n, d) * d ** (width - len(a)) for a in nums]
    bottom = _homogeneous_value(det, n, d) * d ** (width - len(det))
    if bottom < 0:
        tops, bottom = [-t for t in tops], -bottom
    g = math.gcd(bottom, *tops)
    return [t // g for t in tops], bottom // g


def value_difference(f: RuleValues, g: RuleValues, x: int) -> list[int]:
    """N_x·Δ' − N'_x·Δ for f = (N, Δ) and g = (N', Δ'): V_f(x) − V_g(x)
    times Δ·Δ', which is positive on [0, 1), so it has the difference's
    sign and roots there.  No gcd is taken."""
    return _sub_ints(_mul_ints(f[0][x], g[1]), _mul_ints(g[0][x], f[1]))


def value_slopes(values: RuleValues, x: Fraction) -> tuple[Fraction, ...]:
    """V_i'(x) for each state, by the quotient rule on (N, Δ):
    (N_i'·Δ − N_i·Δ') / Δ² at x."""
    det = _poly(values[1])
    big, slope = det(x), det.derivative()(x)
    nums = map(_poly, values[0])
    return tuple((n.derivative()(x) * big - n(x) * slope) / (big * big) for n in nums)
