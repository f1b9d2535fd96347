import random
from fractions import Fraction as F
from itertools import product

from exactmdp.bellman import (
    apply_policy_operator,
    bellman_step,
    evaluate_deterministic,
    evaluate_markov,
    optimal_set,
    rolling_horizon_policy,
    rules_from_action_sets,
    terminal_value,
    value_iteration,
)
from exactmdp.corpus import build_example
from exactmdp.exactarith import value_rational_function
from exactmdp.mdp import DecisionRule, MarkovPrefix, enumerate_decision_rules, spreads

from conftest import random_mdp, random_rational


def phi(*c):
    return DecisionRule(tuple(c))


class TestOperators:
    def test_alpha_zero_gives_rewards(self, rng):
        mdp = random_mdp(rng)
        rule = enumerate_decision_rules(mdp)[0]
        v = apply_policy_operator(mdp, rule, F(0), terminal_value(mdp, F(0)))
        assert v.values == mdp.reward_vector(rule)

    def test_example_first_step(self):
        fx = build_example("ex1")
        v = apply_policy_operator(
            fx.mdp, phi(0, 1), F(1, 3), terminal_value(fx.mdp, F(1, 3))
        )
        assert v.values == (F(2, 3), F(1))  # [2a, 1]

    def test_monotone(self, rng):
        for _ in range(10):
            mdp = random_mdp(rng)
            rule = enumerate_decision_rules(mdp)[0]
            alpha = F(rng.randint(0, 8), 9)
            lo = terminal_value(mdp, alpha)
            hi_vals = tuple(v + random_rational(rng, 4, 0, 2) for v in lo.values)
            from exactmdp.bellman import ValueVector

            hi = ValueVector(hi_vals, alpha, 0)
            out_lo = apply_policy_operator(mdp, rule, alpha, lo)
            out_hi = apply_policy_operator(mdp, rule, alpha, hi)
            assert all(a <= b for a, b in zip(out_lo.values, out_hi.values))

    def test_bellman_single_action_everywhere(self, rng):
        mdp = random_mdp(rng, max_actions=1)
        rule = enumerate_decision_rules(mdp)[0]
        alpha = F(1, 3)
        v = terminal_value(mdp, alpha)
        out, sets = bellman_step(mdp, alpha, v)
        assert out.values == apply_policy_operator(mdp, rule, alpha, v).values
        assert rules_from_action_sets(sets) == enumerate_decision_rules(mdp)

    def test_example_argmax_flips_at_half(self):
        fx = build_example("ex1")
        v = terminal_value(fx.mdp, F(1, 4))
        _, sets = bellman_step(fx.mdp, F(1, 4), v)
        assert rules_from_action_sets(sets) == [phi(0, 1)]
        v = terminal_value(fx.mdp, F(3, 4))
        _, sets = bellman_step(fx.mdp, F(3, 4), v)
        assert rules_from_action_sets(sets) == [phi(0, 0)]


class TestValueIteration:
    def test_horizon_zero_is_terminal(self):
        fx = build_example("ex1")
        steps = value_iteration(fx.mdp, F(1, 4), 0)
        assert steps[0].value.values == fx.mdp.terminal

    def test_example_horizon_two(self):
        fx = build_example("ex1")
        steps = value_iteration(fx.mdp, F(1, 4), 3)
        assert steps[2].value.values == (F(1, 4), F(5, 4))
        assert rules_from_action_sets(steps[2].first_step) == [phi(1, 1)]

    def test_first_step_membership_is_exact_operator_equality(self, rng):
        # a rule is first-step optimal at horizon n exactly when applying its
        # operator to the horizon-(n-1) value reproduces the horizon-n value
        for _ in range(6):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            alpha = F(rng.randint(0, 8), 9)
            steps = value_iteration(mdp, alpha, 4)
            for n in range(1, 5):
                dn = rules_from_action_sets(steps[n].first_step)
                for rule in enumerate_decision_rules(mdp):
                    applied = apply_policy_operator(
                        mdp, rule, alpha, steps[n - 1].value
                    )
                    assert (rule in dn) == (
                        applied.values == steps[n].value.values
                    )

    def test_example_touching_difference(self):
        # at a = 1/2 the third-horizon first-step set regains the second rule
        fx = build_example("ex2")
        steps = value_iteration(fx.mdp, F(1, 2), 3)
        d2 = rules_from_action_sets(steps[2].first_step)
        d3 = rules_from_action_sets(steps[3].first_step)
        assert d2 == [phi(1, 0, 0, 0, 0)]
        assert d3 == [phi(0, 0, 0, 0, 0), phi(1, 0, 0, 0, 0)]


class TestEvaluation:
    def test_alpha_zero(self, rng):
        mdp = random_mdp(rng)
        rule = enumerate_decision_rules(mdp)[0]
        assert evaluate_deterministic(mdp, rule, F(0)).values == mdp.reward_vector(rule)

    def test_example_value(self):
        fx = build_example("ex5")
        v = evaluate_deterministic(fx.mdp, phi(0, 0), F(2, 3))
        assert v.values[0] == F(3)  # 1/(1-a) at a = 2/3

    def test_symbolic_agreement(self, rng):
        for _ in range(5):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            rule = enumerate_decision_rules(mdp)[0]
            rf = value_rational_function(mdp, rule)
            for _ in range(10):
                alpha = F(rng.randint(0, 15), 16)
                v = evaluate_deterministic(mdp, rule, alpha)
                assert v.values == tuple(f(alpha) for f in rf)

    def test_markov_horizon_zero(self, rng):
        mdp = random_mdp(rng)
        rule = enumerate_decision_rules(mdp)[0]
        pre = MarkovPrefix((rule,))
        assert evaluate_markov(mdp, pre, F(1, 3), 0).values == mdp.terminal

    def test_markov_example(self):
        fx = build_example("ex1")
        pre = MarkovPrefix((phi(1, 1), phi(0, 1)))
        assert evaluate_markov(fx.mdp, pre, F(1, 4), 2).values == (F(1, 4), F(5, 4))

    def test_markov_matches_operator_composition(self, rng):
        for _ in range(10):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            rules = enumerate_decision_rules(mdp)
            seq = tuple(rules[rng.randrange(len(rules))] for _ in range(4))
            alpha = F(rng.randint(0, 8), 9)
            v = terminal_value(mdp, alpha)
            for rule in reversed(seq):
                v = apply_policy_operator(mdp, rule, alpha, v)
            assert (
                evaluate_markov(mdp, MarkovPrefix(seq), alpha, 4).values == v.values
            )


class TestOptimalSet:
    def test_alpha_zero_maximizes_rewards(self, rng):
        for _ in range(10):
            mdp = random_mdp(rng)
            opt = optimal_set(mdp, F(0))
            expected = tuple(
                frozenset(
                    k
                    for k, r in enumerate(mdp.rewards[i])
                    if r == max(mdp.rewards[i])
                )
                for i in range(mdp.m)
            )
            assert opt.d_alpha_sets == expected

    def test_example_optimal_at_break_point(self):
        fx = build_example("ex4")
        opt = optimal_set(fx.mdp, F(1, 2))
        assert rules_from_action_sets(opt.d_alpha_sets) == [
            phi(0, 0, 0, 0, 0), phi(1, 0, 0, 0, 0)
        ]
        assert opt.v_alpha.values == (
            F(4, 3),
            F(2, 3),
            F(4, 3),
            F(20, 27),
            F(28, 27),
        )

    def test_example_quarter(self):
        fx = build_example("ex1")
        opt = optimal_set(fx.mdp, F(1, 4))
        assert rules_from_action_sets(opt.d_alpha_sets) == [phi(1, 1)]
        assert opt.v_alpha.values == (F(1, 3), F(4, 3))

    def test_agrees_with_exhaustive_evaluation(self, rng):
        for _ in range(8):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            alpha = F(rng.randint(0, 8), 9)
            opt = optimal_set(mdp, alpha)
            rules = enumerate_decision_rules(mdp)
            values = {r: evaluate_deterministic(mdp, r, alpha).values for r in rules}
            best = tuple(
                max(values[r][i] for r in rules) for i in range(mdp.m)
            )
            assert opt.v_alpha.values == best
            exhaustive = [r for r in rules if values[r] == best]
            assert rules_from_action_sets(opt.d_alpha_sets) == exhaustive

    def test_independent_of_terminal_rewards(self, rng):
        for _ in range(5):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            alpha = F(rng.randint(0, 8), 9)
            other = mdp.with_terminal([random_rational(rng) for _ in range(mdp.m)])
            a = optimal_set(mdp, alpha)
            b = optimal_set(other, alpha)
            assert a.d_alpha_sets == b.d_alpha_sets
            assert a.v_alpha.values == b.v_alpha.values


class TestRollingHorizon:
    def test_single_step(self):
        fx = build_example("ex1")
        pre = rolling_horizon_policy(fx.mdp, F(1, 4), 1)
        assert [r.choices for r in pre.rules] == [(0, 1)]

    def test_example_two_step(self):
        fx = build_example("ex1")
        pre = rolling_horizon_policy(fx.mdp, F(1, 4), 2)
        assert [r.choices for r in pre.rules] == [(1, 1), (0, 1)]

    def test_matches_value_iteration(self, rng):
        for _ in range(6):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            alpha = F(rng.randint(0, 8), 9)
            pre = rolling_horizon_policy(mdp, alpha, 5)
            v = evaluate_markov(mdp, pre, alpha, 5)
            assert v.values == value_iteration(mdp, alpha, 5)[5].value.values


class TestUniformBounds:
    def test_value_norm_and_convergence_bounds(self, rng):
        # sup-norm of every value vector is at most R/(1-a); the distance
        # from the infinite-horizon value decays like the contraction bound
        # a^n (R1/(1-a) + R2), which collapses to a^n R/(1-a) when terminal
        # rewards vanish
        for _ in range(12):
            mdp = random_mdp(rng)
            alpha = F(rng.randint(0, 9), 10) * F(9, 10)
            sp = spreads(mdp)
            opt = optimal_set(mdp, alpha)
            norm_bound = sp.r / (1 - alpha)
            decay = sp.r1 / (1 - alpha) + sp.r2
            assert opt.v_alpha.norm() <= norm_bound
            for step in value_iteration(mdp, alpha, 6):
                assert step.value.norm() <= norm_bound
                gap = max(
                    abs(a - b)
                    for a, b in zip(step.value.values, opt.v_alpha.values)
                )
                assert gap <= alpha**step.horizon * decay

    def test_convergence_bound_tight_form_with_zero_terminal(self, rng):
        for _ in range(8):
            mdp = random_mdp(rng)
            mdp = mdp.with_terminal([F(0)] * mdp.m)
            alpha = F(rng.randint(0, 9), 10) * F(9, 10)
            r = spreads(mdp).r
            opt = optimal_set(mdp, alpha)
            for step in value_iteration(mdp, alpha, 6):
                gap = max(
                    abs(a - b)
                    for a, b in zip(step.value.values, opt.v_alpha.values)
                )
                assert gap <= alpha**step.horizon * r / (1 - alpha)

    def test_equi_lipschitz(self, rng):
        for _ in range(6):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            r = spreads(mdp).r
            for _ in range(10):
                a1 = F(rng.randint(0, 16), 20)
                a2 = F(rng.randint(0, 16), 20)
                if a1 == a2:
                    continue
                b = max(a1, a2)
                lip = r / (1 - b) ** 2 * abs(a1 - a2)
                for n in (1, 3, 5):
                    v1 = value_iteration(mdp, a1, n)[n].value
                    v2 = value_iteration(mdp, a2, n)[n].value
                    assert (
                        max(abs(x - y) for x, y in zip(v1.values, v2.values)) <= lip
                    )
                o1 = optimal_set(mdp, a1).v_alpha
                o2 = optimal_set(mdp, a2).v_alpha
                assert max(abs(x - y) for x, y in zip(o1.values, o2.values)) <= lip

    def test_finite_horizon_brute_force(self, rng):
        # V_{4,a} equals the componentwise best over all rule sequences
        for _ in range(4):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            alpha = F(rng.randint(1, 8), 9)
            rules = enumerate_decision_rules(mdp)
            best = None
            for seq in product(rules, repeat=4):
                v = evaluate_markov(mdp, MarkovPrefix(seq), alpha, 4).values
                best = v if best is None else tuple(map(max, best, v))
            assert value_iteration(mdp, alpha, 4)[4].value.values == best
