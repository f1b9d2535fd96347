import json
from fractions import Fraction as F

import pytest

from exactmdp import docio
from exactmdp.corpus import EXAMPLE_IDS, UnknownExampleError, build_example
from exactmdp.exactarith import value_rational_function
from exactmdp.mdp import DecisionRule, enumerate_decision_rules, validate
from exactmdp.turnpike import turnpike_integer


def phi(*c):
    return DecisionRule(tuple(c))


class TestFixtures:
    def test_unknown_id(self):
        with pytest.raises(UnknownExampleError):
            build_example("nope")

    def test_all_fixtures_valid(self):
        for ex in EXAMPLE_IDS:
            assert validate(build_example(ex).mdp).ok

    def test_first_example_shape(self):
        fx = build_example("ex1")
        assert fx.mdp.terminal == (F(2), F(0))
        assert len(enumerate_decision_rules(fx.mdp)) == 4

    def test_chain_parameterized(self):
        fx = build_example("ex3", m=5)
        assert fx.mdp.m == 5
        # N(alpha) = m on the open interval (0, 1)
        assert turnpike_integer(fx.mdp, F(1, 2)).n_value == 5

    def test_second_example_displayed_values(self):
        # v(x1) under the two rules: 1/4 + a^2/(1-a) and a
        fx = build_example("ex2")
        v1 = value_rational_function(fx.mdp, phi(0, 0, 0, 0, 0))
        v2 = value_rational_function(fx.mdp, phi(1, 0, 0, 0, 0))
        for k in range(0, 10):
            a = F(k, 10)
            assert v1[0](a) == F(1, 4) + a * a / (1 - a)
            assert v2[0](a) == a

    def test_tangency_example_displayed_values(self):
        fx = build_example("ex4")
        v1 = value_rational_function(fx.mdp, phi(0, 0, 0, 0, 0))
        v2 = value_rational_function(fx.mdp, phi(1, 0, 0, 0, 0))
        for k in range(0, 10):
            a = F(k, 10)
            diff = (1 - 2 * a) ** 3 / (27 * (1 - a * a))
            assert v1[0](a) - v2[0](a) == diff
        # residual direction at the break point is the constant vector
        at_half = tuple(f(F(1, 2)) for f in v1)
        assert at_half == (F(4, 3), F(2, 3), F(4, 3), F(20, 27), F(28, 27))
        residual = tuple(v - s for v, s in zip(at_half, fx.mdp.terminal))
        assert len(set(residual)) == 1 and residual[0] == F(1, 3)

    def test_two_state_break_example_displayed_values(self):
        fx = build_example("ex5")
        v1 = value_rational_function(fx.mdp, phi(0, 0))
        v2 = value_rational_function(fx.mdp, phi(1, 0))
        for k in range(0, 10):
            a = F(k, 10)
            assert v1[0](a) == 1 / (1 - a)
            assert v2[0](a) == (2 - F(3, 2) * a) / (1 - a)
        at_point = tuple(f(F(2, 3)) for f in v1)
        residual = tuple(v - s for v, s in zip(at_point, fx.mdp.terminal))
        assert residual == (F(2), F(2))

    def test_balanced_example_displayed_values(self):
        fx = build_example("ex6")
        v1 = value_rational_function(fx.mdp, phi(0, 0, 0))
        v2 = value_rational_function(fx.mdp, phi(1, 0, 0))
        for k in range(0, 10):
            a = F(k, 10)
            assert v1[0](a) - v2[0](a) == 2 * (2 * a - 1) / (1 - a)

    def test_remark_variant_displayed_difference(self):
        fx = build_example("remark-variant")
        v1 = value_rational_function(fx.mdp, phi(0, 0, 0, 0))
        v2 = value_rational_function(fx.mdp, phi(1, 0, 0, 0))
        for k in range(0, 10):
            a = F(k, 10)
            assert v1[0](a) - v2[0](a) == (1 - 2 * a) ** 3 / ((1 + a) * (1 - a**3))
        assert all(t == 0 for t in fx.mdp.terminal)
        at_half = tuple(f(F(1, 2)) for f in v1)
        assert at_half == (F(36), F(18), F(20), F(26))

    def test_remark_variant_condition_structure(self):
        # the zero-terminal companion keeps the tangency-with-certificate
        # structure: both A-conditions certified, both B-conditions refuted
        from exactmdp.conditions import check_condition_A, check_condition_B

        fx = build_example("remark-variant")
        for side in ("minus", "plus"):
            a = check_condition_A(fx.mdp, F(1, 2), side)
            assert a.holds is True and a.method == "certificate"
            b = check_condition_B(fx.mdp, F(1, 2), side)
            assert b.holds is False and b.method == "tangency"

    def test_chain_example_displayed_values(self):
        for m in (2, 4, 6):
            fx = build_example("ex3", m=m)
            v1 = value_rational_function(fx.mdp, phi(*([0] * m)))
            v2 = value_rational_function(fx.mdp, phi(*([1] + [0] * (m - 1))))
            for k in range(0, 8):
                a = F(k, 8)
                assert v1[0](a) == 0
                assert v2[0](a) == a ** (m - 1) / (1 - a)


class TestDataFiles:
    def test_fixtures_round_trip_through_documents(self):
        for ex in EXAMPLE_IDS:
            mdp = build_example(ex).mdp
            doc = docio.document_from_mdp(mdp)
            back = docio.mdp_from_document(
                json.loads(docio.dumps_document(doc))
            )
            assert back == mdp
