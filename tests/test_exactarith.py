import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactmdp.corpus import build_example
from exactmdp.exactarith import SingularMatrixError, solve_linear
from exactmdp.mdp import DecisionRule
from exactmdp.polyarith import (
    IsolatedRoot,
    PoleInIntervalError,
    Polynomial,
    RationalFunction,
    ZeroPolynomialError,
    count_roots_open,
    isolate_roots,
    point_position,
    poly_det,
    poly_gcd,
    sign_on_interval,
    simplest_fraction_between,
    squarefree_part,
    value_rational_function,
)

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def poly(*coeffs):
    return Polynomial([F(c) for c in coeffs])


class TestPolynomial:
    def test_canonical_form_strips_trailing_zeros(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert Polynomial([]).is_zero
        assert poly(0, 0).is_zero

    @given(st.lists(fracs, max_size=6), st.lists(fracs, max_size=6), fracs)
    @settings(max_examples=100, deadline=None)
    def test_product_evaluates_pointwise(self, a, b, x):
        p, q = Polynomial(a), Polynomial(b)
        assert (p * q)(x) == p(x) * q(x)

    @given(st.lists(fracs, max_size=6), st.lists(fracs, max_size=6), fracs)
    @settings(max_examples=100, deadline=None)
    def test_sum_evaluates_pointwise(self, a, b, x):
        p, q = Polynomial(a), Polynomial(b)
        assert (p + q)(x) == p(x) + q(x)

    def test_divmod_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            a = Polynomial([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))])
            b = Polynomial([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))])
            if b.is_zero:
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree

    def test_gcd_divides_both(self):
        a = poly(-1, 0, 1) * poly(1, 1)  # (a^2-1)(a+1)
        b = poly(1, 1) * poly(2, 3)
        g = poly_gcd(a, b)
        assert a.divmod(g)[1].is_zero
        assert b.divmod(g)[1].is_zero
        assert g.degree >= 1

    def test_squarefree_part(self):
        p = poly(F(1, 4), -1, 1)  # (a - 1/2)^2
        s = squarefree_part(p)
        assert s.degree == 1
        assert s(F(1, 2)) == 0


class TestRootIsolation:
    def test_exact_rational_root(self):
        roots = isolate_roots(poly(-1, 2))  # 2a - 1
        assert roots == [(F(1, 2), 1)]
        assert type(roots[0][0]) is F

    def test_even_multiplicity_flagged(self):
        roots = isolate_roots(poly(F(1, 4), -1, 1))  # (a - 1/2)^2
        assert roots == [(F(1, 2), 2)]

    def test_irrational_root_bracketed(self):
        # 2a^4 + a - 1 has a single real root near 0.6478 inside (0, 1)
        p = poly(-1, 1, 0, 0, 2)
        roots = isolate_roots(p)
        assert len(roots) == 1
        root, mult = roots[0]
        assert isinstance(root, IsolatedRoot)
        assert mult == 1
        assert F(0) < root.lo < root.hi < F(1)
        refined = root.refined(F(1, 10**6))
        assert refined.hi - refined.lo <= F(1, 10**6)
        # sign change confirms the root stays inside the refined bracket
        assert p(refined.lo) * p(refined.hi) < 0

    def test_matches_dense_sign_scan(self):
        # oracle: scan signs on a 1/1000 grid and count sign changes
        p = poly(-1, 1, 0, 0, 2)
        signs = []
        for i in range(1001):
            v = p(F(i, 1000))
            if v != 0:
                signs.append(1 if v > 0 else -1)
        scan_changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert len(isolate_roots(p)) == scan_changes

    def test_multiple_roots_disjoint_ordered(self):
        p = poly(F(1, 8), -F(3, 4), F(13, 8), -1) * poly(-2, 7)  # roots 1/4?, ...
        roots = isolate_roots(p)
        for (a, _), (b, _) in zip(roots, roots[1:]):
            assert point_position(a)[1] < point_position(b)[0]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            isolate_roots(Polynomial())

    def test_counts_cross_checked_by_sturm(self):
        rng = random.Random(99)
        for _ in range(40):
            p = Polynomial([F(rng.randint(-6, 6)) for _ in range(rng.randint(2, 7))])
            if p.is_zero or p.degree < 1:
                continue
            roots = isolate_roots(p)
            assert len(roots) == count_roots_open(p, F(0), F(1))
            for r, _ in roots:
                if isinstance(r, F):
                    assert p(r) == 0
                else:
                    assert count_roots_open(r.defining, r.lo, r.hi) == 1


class TestSimplestFraction:
    @given(fracs, fracs)
    @settings(max_examples=150, deadline=None)
    def test_result_inside_and_minimal(self, a, b):
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        r = simplest_fraction_between(lo, hi)
        assert lo < r < hi
        # nothing with a smaller denominator fits strictly inside
        for q in range(1, r.denominator):
            lo_n = int(lo * q) - 1
            hi_n = int(hi * q) + 2
            assert not any(
                lo < F(n, q) < hi for n in range(lo_n, hi_n + 1)
            )


class TestSignOnInterval:
    def test_positive(self):
        f = RationalFunction(poly(1), poly(1, -1))  # 1/(1-a)
        assert sign_on_interval(f, F(0), F(1)).sign == "+"

    def test_example_tangency_negative_beyond_break(self):
        fx = build_example("ex4")
        v1 = value_rational_function(fx.mdp, DecisionRule((0, 0, 0, 0, 0)))
        v2 = value_rational_function(fx.mdp, DecisionRule((1, 0, 0, 0, 0)))
        d = v1[0] - v2[0]
        # (1-2a)^3 / (27 (1-a^2))
        assert d == RationalFunction(poly(1, -6, 12, -8), poly(27, 0, -27))
        assert sign_on_interval(d, F(1, 2), F(1)).sign == "-"

    def test_mixed_with_root(self):
        fx = build_example("ex6")
        v1 = value_rational_function(fx.mdp, DecisionRule((0, 0, 0)))
        v2 = value_rational_function(fx.mdp, DecisionRule((1, 0, 0)))
        d = v1[0] - v2[0]  # 2(2a-1)/(1-a)
        res = sign_on_interval(d, F(0), F(1))
        assert res.sign == "mixed"
        assert res.roots == (F(1, 2),)

    def test_pole_rejected(self):
        f = RationalFunction(poly(1), poly(F(-1, 2), 1))  # 1/(a - 1/2)
        with pytest.raises(PoleInIntervalError):
            sign_on_interval(f, F(0), F(1))


class TestLinearSolve:
    def test_identity(self):
        b = [F(3), F(-2), F(7)]
        eye = [[F(1 if i == j else 0) for j in range(3)] for i in range(3)]
        assert solve_linear(eye, b) == b

    def test_example_half_discount(self):
        fx = build_example("ex1")
        phi4 = DecisionRule((1, 1))
        p = fx.mdp.transition_matrix(phi4)
        a = [
            [F(1 if i == j else 0) - F(1, 2) * p[i][j] for j in range(2)]
            for i in range(2)
        ]
        assert solve_linear(a, list(fx.mdp.reward_vector(phi4))) == [F(1), F(2)]

    def test_random_system_residual_zero(self):
        rng = random.Random(5)
        for _ in range(25):
            a = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)] for _ in range(4)]
            b = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
            try:
                x = solve_linear(a, b)
            except SingularMatrixError:
                continue
            for i in range(4):
                assert sum((a[i][j] * x[j] for j in range(4)), F(0)) == b[i]

    def test_singular_detected(self):
        a = [[F(1), F(2)], [F(2), F(4)]]
        with pytest.raises(SingularMatrixError):
            solve_linear(a, [F(1), F(1)])


class TestValueRationalFunction:
    def test_single_absorbing_state(self):
        from exactmdp.mdp import Mdp

        mdp = Mdp(("s",), (("a",),), (((F(1),),),), ((F(1),),), (F(0),))
        (rf,) = value_rational_function(mdp, DecisionRule((0,)))
        assert rf == RationalFunction(poly(1), poly(1, -1))  # 1 / (1 - a)

    def test_example_with_half_rewards(self):
        fx = build_example("ex5")
        v = value_rational_function(fx.mdp, DecisionRule((1, 0)))
        # (4 - 3a) / (2(1 - a)) at the first state
        assert v[0] == RationalFunction(poly(4, -3), poly(2, -2))
        assert v[0](F(1, 3)) == F(3, 2) / (F(2, 3))

    def test_symbolic_matches_linear_solve(self, rng):
        from conftest import random_mdp
        from exactmdp.bellman import evaluate_deterministic
        from exactmdp.mdp import enumerate_decision_rules

        for _ in range(8):
            mdp = random_mdp(rng)
            rule = enumerate_decision_rules(mdp)[0]
            rf = value_rational_function(mdp, rule)
            for k in range(1, 8):
                alpha = F(k, 8)
                direct = evaluate_deterministic(mdp, rule, alpha)
                assert tuple(f(alpha) for f in rf) == direct.values

    def test_degree_bounded_by_state_count(self, rng):
        from conftest import random_mdp
        from exactmdp.mdp import enumerate_decision_rules

        for _ in range(5):
            mdp = random_mdp(rng)
            for rule in enumerate_decision_rules(mdp)[:4]:
                for rf in value_rational_function(mdp, rule):
                    assert rf.num.degree <= mdp.m
                    assert rf.den.degree <= mdp.m
