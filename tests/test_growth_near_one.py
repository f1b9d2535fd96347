"""A model whose turnpike function climbs without bound as the discount
approaches 1: jumps happen at the roots of 2a^(2n) + a - 1, the first of
which is 1/2 and the rest irrational, so the interval map must mix exact
rational discontinuities with indeterminate brackets."""

from fractions import Fraction as F

from exactmdp.bellman import optimal_set, rules_from_action_sets
from exactmdp.mdp import DecisionRule, Mdp, enumerate_decision_rules
from exactmdp.partition import canonical_partition
from exactmdp.polyarith import IsolatedRoot, Polynomial, polynomial_vanishes_at
from exactmdp.turnpike import turnpike_integer, turnpike_intervals


def climbing_mdp() -> Mdp:
    """Value difference at the first state is -(1-a) / (4(1+a)): the second
    rule is always optimal, but the first stays first-step competitive for
    ever-longer horizons as the discount grows.

    Action a at x1 pays 3/4 and moves to w, which loops on itself paying 1/2;
    action b pays 1 and moves into the cycle z -> y -> z, which pays 0, 1,
    0, 1, ...  With D_h = Q_h(x1, a) - Q_h(x1, b) this gives
    D_2n = (2a^(2n) + a - 1) / (4(1+a)) and
    D_(2n+1) = -(1 - a + 2a^(2n+1)) / (4(1+a)) < 0.  The cycle must avoid
    x1 and offer no choice: if it passed through x1 again, value iteration
    would take the better action there and the alternating stream that
    makes b lag at even horizons would never be paid.
    """
    return Mdp(
        ("x1", "w", "z", "y"),
        (("a", "b"), ("a",), ("b",), ("b",)),
        (
            ((F(0), F(1), F(0), F(0)), (F(0), F(0), F(1), F(0))),
            ((F(0), F(1), F(0), F(0)),),
            ((F(0), F(0), F(0), F(1)),),
            ((F(0), F(0), F(1), F(0)),),
        ),
        ((F(3, 4), F(1)), (F(1, 2),), (F(0),), (F(1),)),
        (F(0), F(0), F(0), F(0)),
    )


def last_competitive_horizon(alpha: F) -> int:
    """Last horizon h <= 64 at which a ties or beats b at x1 in the
    climbing model, by plain value iteration; 0 if there is none.  Kept
    free of exactmdp so the fixture is checked against its docstring, not
    against the solver.  The cap lies well past every answer the tests
    need (28 at a = 9/10)."""
    w = z = y = F(0)
    last = 0
    for h in range(1, 65):
        if F(3, 4) + alpha * w >= 1 + alpha * z:
            last = h
        w, z, y = F(1, 2) + alpha * w, alpha * y, 1 + alpha * z
    return last


def phi(*c):
    return DecisionRule(tuple(c))


class TestClimbingTurnpike:
    def test_second_rule_always_optimal(self):
        mdp = climbing_mdp()
        part = canonical_partition(mdp)
        assert part.irregular_points == ()
        assert rules_from_action_sets(part.intervals[0].d_set) == [phi(1, 0, 0, 0)]
        for k in (1, 5, 9, 13):
            alpha = F(k, 14)
            d = rules_from_action_sets(optimal_set(mdp, alpha).d_alpha_sets)
            assert d == [phi(1, 0, 0, 0)]

    def test_stepwise_climb(self):
        # N = 2n+1 between consecutive roots of 2a^(2n) + a - 1
        mdp = climbing_mdp()
        assert turnpike_integer(mdp, F(2, 5)).n_value == 1
        assert turnpike_integer(mdp, F(1, 2)).n_value == 3
        assert turnpike_integer(mdp, F(3, 5)).n_value == 3
        # 0.6478... is the root of 2a^4 + a - 1
        assert turnpike_integer(mdp, F(66, 100)).n_value == 5
        # 72/100 lies just below 0.72041..., the root of 2a^6 + a - 1
        assert turnpike_integer(mdp, F(72, 100)).n_value == 5
        assert turnpike_integer(mdp, F(9, 10)).n_value > 15
        for alpha in (F(2, 5), F(1, 2), F(3, 5), F(66, 100), F(72, 100), F(9, 10)):
            expected = last_competitive_horizon(alpha) + 1
            assert turnpike_integer(mdp, alpha).n_value == expected

    def test_interval_map_mixes_rational_and_bracket_jumps(self):
        mdp = climbing_mdp()
        tmap = turnpike_intervals(mdp, F(3, 10), F(7, 10), n_cap=12)
        assert not tmap.partial
        # the rational jump at 1/2 is located exactly and is a left one:
        # N(1/2) = 3 equals the value on [1/2, ...)
        assert tmap.d_minus == (F(1, 2),)
        assert tmap.d_plus == ()
        assert tmap.point_values[F(1, 2)] == 3
        # the jump from 3 to 5 sits at the irrational root of 2a^4 + a - 1,
        # reported as an indeterminate bracket
        assert len(tmap.indeterminate) == 1
        bracket = tmap.indeterminate[0]
        assert isinstance(bracket, IsolatedRoot)
        assert polynomial_vanishes_at(Polynomial([-1, 1, 0, 0, 2]), bracket)
        assert tmap.value_at(F(3, 5)) == 3
        assert tmap.value_at(F(69, 100)) == 5

    def test_first_step_competitiveness_window(self):
        # at horizon 2n the first rule still ties or wins exactly while
        # 2a^(2n) + a - 1 >= 0
        from exactmdp.bellman import product_subset, value_iteration

        mdp = climbing_mdp()
        opt_sets = optimal_set(mdp, F(7, 10)).d_alpha_sets
        poly = lambda n, a: 2 * a ** (2 * n) + a - 1
        steps = value_iteration(mdp, F(7, 10), 12)
        for n in (1, 2, 3, 4, 5):
            failing = not product_subset(steps[2 * n].first_step, opt_sets)
            assert failing == (poly(n, F(7, 10)) > 0)
            # odd horizons never leave the optimal set
            assert product_subset(steps[2 * n + 1].first_step, opt_sets)
