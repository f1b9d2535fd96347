from fractions import Fraction as F

import pytest

from exactmdp import conditions
from exactmdp.conditions import (
    NotIrregularError,
    boundedness_verdict,
    check_condition_A,
    check_condition_B,
    derivative_difference,
)
from exactmdp.corpus import build_example
from exactmdp.mdp import DecisionRule, MarkovPrefix


def phi(*c):
    return DecisionRule(tuple(c))


class TestDerivativeDifference:
    def test_equal_rules_zero(self):
        fx = build_example("ex5")
        rule = phi(0, 0)
        pre = MarkovPrefix((rule,), tail=rule)
        d = derivative_difference(fx.mdp, rule, rule, pre, F(1, 3), 6)
        assert d == (F(0), F(0))

    def test_example_stationary_tail_family(self):
        # infinite-horizon derivative with an all-second-rule tail is exactly
        # 3/2 at the break point; longer first-rule runs increase it along
        # 4.5 * (1 - (2/3)^(j+2)) and the infimum over tails is 3/2
        fx = build_example("ex5")
        mdp0 = fx.mdp.with_terminal([F(0), F(0)])
        phi1, phi2 = phi(0, 0), phi(1, 0)
        values = []
        for j in range(0, 5):
            pre = MarkovPrefix((phi1,) * j + (phi2,), tail=phi2)
            d = derivative_difference(mdp0, phi1, phi2, pre, F(2, 3), None)
            values.append(d[0])
        expected = [F(9, 2) * (1 - F(2, 3) ** (j + 1)) for j in range(0, 5)]
        assert values == expected
        assert values[0] == F(3, 2)  # stationary second-rule tail
        assert min(values) == F(3, 2)

    def test_example_tangency_zero_everywhere(self):
        # stationary second-rule tail at the tangency break: zero derivative
        # difference at every state
        fx = build_example("ex4")
        mdp0 = fx.mdp.with_terminal([F(0)] * 5)
        phi1, phi2 = phi(0, 0, 0, 0, 0), phi(1, 0, 0, 0, 0)
        pre = MarkovPrefix((phi2,), tail=phi2)
        d = derivative_difference(mdp0, phi1, phi2, pre, F(1, 2), None)
        assert d == (F(0),) * 5

    def test_finite_matches_symbolic_limit(self):
        # finite-horizon derivatives converge to the stationary-tail one
        fx = build_example("ex5")
        mdp0 = fx.mdp.with_terminal([F(0), F(0)])
        phi1, phi2 = phi(0, 0), phi(1, 0)
        pre = MarkovPrefix((phi2,) * 30, tail=phi2)
        inf_d = derivative_difference(mdp0, phi1, phi2, pre, F(2, 3), None)
        fin_d = derivative_difference(mdp0, phi1, phi2, pre, F(2, 3), 30)
        assert abs(inf_d[0] - fin_d[0]) < F(1, 1000)

    def test_tail_value_function_is_solved_once(self, monkeypatch):
        solved = []
        original = conditions._value_solve

        def counting(mdp, rule):
            solved.append(rule)
            return original(mdp, rule)

        monkeypatch.setattr(conditions, "_value_solve", counting)
        fx = build_example("ex5")
        mdp0 = fx.mdp.with_terminal([F(0), F(0)])
        phi1, phi2 = phi(0, 0), phi(1, 0)
        pre = MarkovPrefix((phi1, phi2), tail=phi2)
        d = derivative_difference(mdp0, phi1, phi2, pre, F(2, 3), None)
        assert d[0] == F(9, 2) * (1 - F(2, 3) ** 2)
        assert solved == [phi2]


class TestConditionA:
    def test_regular_point_rejected(self):
        fx = build_example("ex4")
        with pytest.raises(NotIrregularError):
            check_condition_A(fx.mdp, F(1, 4), "minus")

    def test_example_certificate_both_sides(self):
        fx = build_example("ex4")
        for side in ("minus", "plus"):
            v = check_condition_A(fx.mdp, F(1, 2), side)
            assert v.holds is True
            assert v.method == "certificate"

    def test_example_eigen_direction(self):
        fx = build_example("ex5")
        v = check_condition_A(fx.mdp, F(2, 3), "minus")
        assert v.holds is True and v.method == "certificate"
        assert v.horizon_used == 0  # terminal residual is already constant

    def test_example_one_sided_failure_is_inconclusive(self):
        fx = build_example("ex6")
        v = check_condition_A(fx.mdp, F(1, 2), "plus")
        assert v.holds is None
        assert v.method == "definition-window"
        assert not any(v.window.values())
        v_minus = check_condition_A(fx.mdp, F(1, 2), "minus")
        assert v_minus.holds is None
        assert all(v_minus.window.values())


class TestConditionB:
    def test_example_threshold_certificate(self):
        fx = build_example("ex5")
        v = check_condition_B(fx.mdp, F(2, 3), "plus")
        assert v.holds is True
        assert v.method == "finite-horizon-threshold"
        ((pair, data),) = tuple(v.extrema.items())
        assert data["value"] == F(3, 2)
        assert data["state"] == "x1"
        assert F(3, 2) > v.threshold
        v2 = check_condition_B(fx.mdp, F(2, 3), "minus")
        assert v2.holds is True
        ((pair2, data2),) = tuple(v2.extrema.items())
        assert data2["value"] == F(-3, 2)

    def test_example_tangency_fails_both_sides(self):
        fx = build_example("ex4")
        for side in ("minus", "plus"):
            v = check_condition_B(fx.mdp, F(1, 2), side)
            assert v.holds is False
            assert v.method == "tangency"

    def test_terminal_rewards_do_not_matter(self):
        fx = build_example("ex5")
        other = fx.mdp.with_terminal([F(7), F(-3)])
        a = check_condition_B(fx.mdp, F(2, 3), "plus")
        b = check_condition_B(other, F(2, 3), "plus")
        assert (a.holds, a.horizon_used, a.threshold) == (
            b.holds,
            b.horizon_used,
            b.threshold,
        )

    def test_one_sided_blowup_example_left_dominance(self):
        # the left-optimal rule strictly dominates to first order, so the
        # threshold certificate fires at a small horizon
        fx = build_example("ex6")
        v = check_condition_B(fx.mdp, F(1, 2), "minus")
        assert v.holds is True
        assert v.method == "finite-horizon-threshold"
        assert v.horizon_used <= 4


    def test_equivalence_of_sides_at_non_touching_break(self):
        # both sides agree at non-touching break points across the corpus
        for ex, point in (("ex4", F(1, 2)), ("ex5", F(2, 3)), ("remark-variant", F(1, 2))):
            fx = build_example(ex)
            minus = check_condition_B(fx.mdp, point, "minus")
            plus = check_condition_B(fx.mdp, point, "plus")
            assert (minus.holds is True) == (plus.holds is True)


class TestBoundednessVerdict:
    def test_example_bounded_both_sides(self):
        fx = build_example("ex5")
        rep = boundedness_verdict(fx.mdp, F(2, 3))
        assert rep.left == rep.right == "bounded"
        assert rep.method_left == rep.method_right == "conditions"

    def test_example_blowup_with_bounded_left(self):
        fx = build_example("ex6")
        rep = boundedness_verdict(fx.mdp, F(1, 2))
        assert rep.left == "bounded"
        assert rep.method_left == "small-discount-radius"
        assert rep.right == "unbounded-evidence"
        values = [n for _, n in rep.samples_right]
        assert values == sorted(values) and values[-1] > 6

    def test_example_tangency_unbounded_evidence(self):
        fx = build_example("ex4")
        rep = boundedness_verdict(fx.mdp, F(1, 2))
        assert rep.left == "unbounded-evidence"
        assert rep.right == "unbounded-evidence"
        assert rep.a_left.holds is True and rep.b_left.holds is False
