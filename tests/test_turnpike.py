from fractions import Fraction as F

import pytest

from exactmdp.bellman import optimal_set, product_subset, rules_from_action_sets, value_iteration
from exactmdp.corpus import build_example
from exactmdp.mdp import DecisionRule, balance, enumerate_decision_rules
from exactmdp.partition import canonical_partition, first_step_classify
from exactmdp.turnpike import (
    AllRulesOptimalError,
    certificate_audit,
    suboptimality_gap,
    turnpike_integer,
    turnpike_intervals,
)
from exactmdp.turnpikemap import turnpike_cover

from conftest import random_mdp


def phi(*c):
    return DecisionRule(tuple(c))


def brute_force_n(mdp, alpha, horizon):
    """Independent oracle: last horizon (up to the given bound) at which the
    first-step set escapes the optimal set, plus one."""
    opt = optimal_set(mdp, alpha)
    last_fail = 0
    for step in value_iteration(mdp, alpha, horizon)[1:]:
        if not product_subset(step.first_step, opt.d_alpha_sets):
            last_fail = step.horizon
    return last_fail + 1


class TestSuboptimalityGap:
    def test_unique_rule_signals(self):
        from exactmdp.mdp import Mdp

        mdp = Mdp(("s",), (("a",),), (((F(1),),),), ((F(1),),), (F(0),))
        with pytest.raises(AllRulesOptimalError):
            suboptimality_gap(mdp, F(1, 2))

    def test_example_value(self):
        fx = build_example("ex5")
        assert suboptimality_gap(fx.mdp, F(1, 3)) == F(1, 2)

    def test_positive_at_regular_points(self, rng):
        for _ in range(10):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            alpha = F(rng.randint(1, 8), 9)
            try:
                gap = suboptimality_gap(mdp, alpha)
            except AllRulesOptimalError:
                continue
            assert gap > 0


class TestTurnpikeInteger:
    def test_convention_at_zero(self, rng):
        mdp = random_mdp(rng)
        assert turnpike_integer(mdp, F(0)).n_value == 1

    def test_example_step(self):
        fx = build_example("ex1")
        expected = {
            F(1, 10): 2,
            F(1, 4): 2,
            F(49, 100): 2,
            F(1, 2): 3,
            F(3, 4): 3,
            F(9, 10): 3,
        }
        for alpha, n in expected.items():
            res = turnpike_integer(fx.mdp, alpha)
            assert res.n_value == n
            assert certificate_audit(fx.mdp, res)

    def test_example_always_one(self):
        fx = build_example("ex5")
        for k in range(0, 20):
            assert turnpike_integer(fx.mdp, F(k, 21)).n_value == 1

    def test_chain_needs_state_count(self):
        for m in (3, 4, 6):
            fx = build_example("ex3", m=m)
            for alpha in (F(1, 4), F(1, 2), F(3, 4)):
                assert turnpike_integer(fx.mdp, alpha).n_value == m

    def test_example_neither_sided_point(self):
        fx = build_example("ex2")
        res = turnpike_integer(fx.mdp, F(1, 2))
        assert res.n_value == 4
        assert certificate_audit(fx.mdp, res)

    def test_witness_is_suboptimal_first_step_rule(self):
        fx = build_example("ex1")
        res = turnpike_integer(fx.mdp, F(1, 4))
        assert res.witness is not None
        bal, _ = balance(fx.mdp)
        opt = optimal_set(bal, F(1, 4))
        steps = value_iteration(bal, F(1, 4), res.n_value - 1)
        sets = steps[res.n_value - 1].first_step
        assert all(res.witness.choices[i] in sets[i] for i in range(fx.mdp.m))
        assert not all(
            res.witness.choices[i] in opt.d_alpha_sets[i] for i in range(fx.mdp.m)
        )

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(8):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            alpha = F(rng.randint(1, 8), 9)
            res = turnpike_integer(mdp, alpha)
            assert res.n_value == brute_force_n(
                mdp, alpha, res.certificate_horizon + 5
            )
            assert certificate_audit(mdp, res)

    def test_balancing_invariance(self, rng):
        for _ in range(6):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            balanced, _ = balance(mdp)
            for k in (1, 3, 5, 7):
                alpha = F(k, 8)
                assert (
                    turnpike_integer(mdp, alpha).n_value
                    == turnpike_integer(balanced, alpha).n_value
                )


class TestTurnpikeIntervals:
    @pytest.mark.parametrize("n_cap", [0, -5])
    def test_cap_below_one_raises(self, n_cap):
        # it returned a partial map with horizon_used n_cap
        with pytest.raises(ValueError):
            turnpike_intervals(build_example("ex5").mdp, F(0), F(9, 10), n_cap=n_cap)

    def test_example_single_span(self):
        fx = build_example("ex5")
        tmap = turnpike_intervals(fx.mdp, F(0), F(9, 10), n_cap=8)
        assert len(tmap.spans) == 1
        assert tmap.spans[0].n_value == 1
        assert tmap.d_all == ()
        assert not tmap.partial

    def test_example_neither_sided_discontinuity(self):
        fx = build_example("ex2")
        tmap = turnpike_intervals(fx.mdp, F(0), F(9, 10), n_cap=8)
        spans = [
            (s.lo, s.hi, s.lo_closed, s.hi_closed, s.n_value) for s in tmap.spans
        ]
        assert spans == [
            (F(0), F(1, 4), True, False, 1),
            (F(1, 4), F(1, 2), True, False, 3),
            (F(1, 2), F(1, 2), True, True, 4),
            (F(1, 2), F(9, 10), False, True, 3),
        ]
        assert tmap.d_all == (F(1, 4), F(1, 2))
        assert tmap.d_hat == (F(1, 2),)
        assert tmap.d_minus == (F(1, 4), F(1, 2))
        assert tmap.d_plus == (F(1, 2),)

    def test_example_left_jump_only(self):
        fx = build_example("ex1")
        tmap = turnpike_intervals(fx.mdp, F(0), F(9, 10), n_cap=8)
        assert tmap.d_minus == (F(1, 2),)
        assert F(1, 2) not in tmap.d_plus
        assert tmap.value_at(F(1, 4)) == 2
        assert tmap.value_at(F(3, 4)) == 3
        assert tmap.value_at(F(1, 2)) == 3

    def test_spans_match_pointwise_oracle(self, rng):
        fx = build_example("ex2")
        tmap = turnpike_intervals(fx.mdp, F(0), F(9, 10), n_cap=8)
        for k in range(0, 19):
            alpha = F(k, 20)
            res = turnpike_integer(fx.mdp, alpha)
            assert tmap.value_at(alpha) == res.n_value

    def test_interior_discontinuities_have_n_at_least_two(self, rng):
        mdps = [build_example(ex).mdp for ex in ("ex1", "ex2", "ex4", "ex6")]
        mdps += [random_mdp(rng, max_states=3, max_actions=2) for _ in range(4)]
        for mdp in mdps:
            part = canonical_partition(mdp)
            tmap = turnpike_intervals(mdp, F(1, 100), F(9, 10), n_cap=10)
            if tmap.partial:
                continue
            irregular = {
                ip.point for ip in part.irregular_points if isinstance(ip.point, F)
            }
            for p in tmap.d_all:
                if p in irregular:
                    continue  # interior to a partition interval only
                assert tmap.point_values[p] >= 2

    def test_discontinuity_classification(self):
        # two-sided discontinuities sit at touching points of horizon N-1;
        # one-sided ones at break points of horizon N-1
        fx = build_example("ex2")
        tmap = turnpike_intervals(fx.mdp, F(0), F(9, 10), n_cap=8)
        for p in tmap.d_all:
            n_at = tmap.point_values[p]
            cls = first_step_classify(fx.mdp, p, n_at - 1)
            if p in tmap.d_hat:
                assert "touching" in cls.kind
            else:
                assert "break" in cls.kind

    def test_upper_semicontinuity_at_regular_discontinuities(self):
        fx = build_example("ex2")
        tmap = turnpike_intervals(fx.mdp, F(0), F(9, 10), n_cap=8)
        # no irregular points here, so every discontinuity is regular
        for p in tmap.d_all:
            n_at = tmap.point_values[p]
            eps = F(1, 1000)
            assert n_at >= turnpike_integer(fx.mdp, p - eps).n_value or True
            left = turnpike_integer(fx.mdp, p - eps).n_value
            right = turnpike_integer(fx.mdp, p + eps).n_value
            assert n_at >= max(left, right)

    def test_optimal_first_step_witness_on_both_sides(self):
        # at each discontinuity the (N-1)-horizon first-step set meets both
        # the interval-optimal rules and their complement
        fx = build_example("ex2")
        tmap = turnpike_intervals(fx.mdp, F(0), F(9, 10), n_cap=8)
        part = canonical_partition(fx.mdp)
        for p in tmap.d_all:
            n_at = tmap.point_values[p]
            d_interval = set(rules_from_action_sets(part.intervals[0].d_set))
            steps = value_iteration(fx.mdp, p, n_at - 1)
            dn = set(rules_from_action_sets(steps[n_at - 1].first_step))
            assert dn & d_interval
            assert dn - d_interval


class TestTurnpikeCover:
    @pytest.mark.parametrize("n_cap", [0, -5])
    def test_cap_below_one_raises(self, n_cap):
        # n_cap = 0 raised CapExceededError: need 0, cap is 0
        with pytest.raises(ValueError):
            turnpike_cover(build_example("ex2").mdp, F(0), F(1, 2), F(1, 10), n_cap=n_cap)

    def test_no_irregular_points(self):
        fx = build_example("ex2")
        cov = turnpike_cover(fx.mdp, F(0), F(1, 2), F(1, 10), n_cap=8)
        assert cov.excised_measure < F(1, 10)
        total = sum(p.hi - p.lo for p in cov.pieces)
        assert total + cov.excised_measure == F(1, 2)

    def test_example_excises_the_break_point(self):
        fx = build_example("ex4")
        cov = turnpike_cover(fx.mdp, F(1, 4), F(3, 4), F(1, 10), n_cap=16)
        assert cov.excised_measure < F(1, 10)
        for piece in cov.pieces:
            assert not (piece.lo <= F(1, 2) <= piece.hi)
            # constancy spot-check at 5 points per piece
            for i in range(1, 6):
                alpha = piece.lo + (piece.hi - piece.lo) * F(i, 6)
                assert turnpike_integer(fx.mdp, alpha).n_value == piece.n_value

    def test_example_excises_both_discontinuities(self):
        fx = build_example("ex2")
        cov = turnpike_cover(fx.mdp, F(1, 10), F(9, 10), F(1, 100), n_cap=8)
        assert cov.excised_measure < F(1, 100)
        for point in (F(1, 4), F(1, 2)):
            assert not any(p.lo <= point <= p.hi for p in cov.pieces)
        for piece in cov.pieces:
            for i in range(1, 6):
                alpha = piece.lo + (piece.hi - piece.lo) * F(i, 6)
                assert turnpike_integer(fx.mdp, alpha).n_value == piece.n_value

    def test_open_endpoints_trim_the_core(self):
        fx = build_example("ex5")
        cov = turnpike_cover(
            fx.mdp, F(0), F(1, 2), F(1, 10), n_cap=8, lo_open=True, hi_open=True
        )
        assert cov.pieces[0].lo == F(1, 60)
        assert cov.pieces[-1].hi == F(1, 2) - F(1, 60)
        assert cov.excised_measure == F(2, 60)
        total = sum(p.hi - p.lo for p in cov.pieces)
        assert total + cov.excised_measure == F(1, 2)
