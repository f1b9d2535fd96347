from fractions import Fraction as F

from exactmdp.bellman import optimal_set, rules_from_action_sets, value_iteration
from exactmdp.corpus import build_example
from exactmdp.mdp import DecisionRule, MarkovPrefix, Mdp, balance, enumerate_decision_rules
from exactmdp.smalldiscount import (
    policy_filtration,
    small_discount_checks,
    small_discount_constants,
)
from exactmdp.turnpike import turnpike_integer

from conftest import random_mdp


def phi(*c):
    return DecisionRule(tuple(c))


class TestFiltration:
    def test_single_rule(self):
        mdp = Mdp(("s",), (("a",),), (((F(1),),),), ((F(1),),), (F(0),))
        rep = policy_filtration(mdp)
        assert rep.l_value == 0
        assert rep.h_value == 0
        assert rules_from_action_sets(rep.rules_at(0)) == [phi(0)]

    def test_example_immediate_separation(self):
        fx = build_example("ex6")
        rep = policy_filtration(fx.mdp)
        assert rep.l_value == 0
        assert rep.c_chain == (F(2),)
        assert rep.delta == F(1, 2)
        assert rep.delta_tilde == F(1, 2)
        assert rules_from_action_sets(rep.rules_at(0)) == [phi(1, 0, 0)]

    def test_chain_example_stabilizes_late(self):
        for m in (3, 4, 6):
            fx = build_example("ex3", m=m)
            rep = policy_filtration(fx.mdp)
            assert rep.l_value == m - 1
            assert rules_from_action_sets(rep.rules_at(rep.l_value)) == [phi(*([1] + [0] * (m - 1)))]

    def test_chain_is_nested_and_strict_at_jumps(self, rng):
        for _ in range(10):
            mdp = random_mdp(rng)
            rep = policy_filtration(mdp)
            assert rep.l_value <= mdp.m - 1
            assert rep.h_value <= rep.l_value
            for a, b in zip(rep.action_chain, rep.action_chain[1:]):
                assert all(y <= x for x, y in zip(a, b))
            for n in rep.jump_indices:
                if n >= 1:
                    assert rep.action_chain[n + 1] != rep.action_chain[n]
            for n, x in enumerate(rep.x_chain):
                assert (len(x) > 0) == (
                    rep.action_chain[n + 1] != rep.action_chain[n]
                )

    def test_invariant_under_balancing(self, rng):
        for _ in range(8):
            mdp = random_mdp(rng)
            balanced, _ = balance(mdp)
            a, b = policy_filtration(mdp), policy_filtration(balanced)
            assert a.action_chain == b.action_chain
            assert a.c_chain == b.c_chain
            assert (a.delta, a.delta_tilde) == (b.delta, b.delta_tilde)


class TestConstants:
    def test_all_rewards_equal(self):
        mdp = Mdp(
            ("s0", "s1"),
            (("a", "b"), ("a",)),
            (
                ((F(1), F(0)), (F(0), F(1))),
                ((F(0), F(1)),),
            ),
            ((F(1), F(1)), (F(1),)),
            (F(0), F(0)),
        )
        c, delta, delta_tilde = small_discount_constants(mdp)
        assert c is None
        assert delta == delta_tilde == 1

    def test_example_values(self):
        fx = build_example("ex6")
        c, delta, delta_tilde = small_discount_constants(fx.mdp)
        assert (c, delta, delta_tilde) == (F(2), F(1, 2), F(1, 2))

    def test_radii_below_half_when_separated(self, rng):
        count = 0
        for _ in range(20):
            mdp = random_mdp(rng, max_states=3)
            rep = policy_filtration(mdp)
            if any(rep.x_chain):
                count += 1
                assert rep.delta <= rep.delta_tilde <= F(1, 2)
        assert count > 0

    def test_small_alpha_turnpike_bound(self, rng):
        # N((0, Delta_L)) <= L + 1 <= m, spot-checked on a grid
        for _ in range(6):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            rep = policy_filtration(mdp)
            for i in range(1, 21):
                alpha = rep.delta * F(i, 21)
                if alpha == 0:
                    continue
                n = turnpike_integer(mdp, alpha).n_value
                assert n <= rep.l_value + 1 <= mdp.m

    def test_first_step_sets_funnel_into_filtration(self, rng):
        # for each jump index, first-step sets below the matching radius stay
        # inside that filtration level from horizon L_i + 1 onward
        for _ in range(5):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            rep = policy_filtration(mdp)
            for li in rep.jump_indices:
                radius = rep.delta_at(li)
                f_li = set(rules_from_action_sets(rep.rules_at(li)))
                for i in (1, 7, 13, 19):
                    alpha = radius * F(i, 20)
                    if alpha == 0:
                        continue
                    steps = value_iteration(mdp, alpha, li + 3)
                    for step in steps[li + 1 :]:
                        assert set(rules_from_action_sets(step.first_step)) <= f_li

    def test_optimal_sets_funnel_into_filtration(self, rng):
        for _ in range(5):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            rep = policy_filtration(mdp)
            for li in rep.jump_indices:
                radius = rep.delta_tilde_at(li)
                f_li = set(rules_from_action_sets(rep.rules_at(li)))
                for i in (1, 7, 13, 19):
                    alpha = radius * F(i, 20)
                    if alpha == 0:
                        continue
                    d = set(rules_from_action_sets(optimal_set(mdp, alpha).d_alpha_sets))
                    assert d <= f_li

    def test_deterministic_distinct_rewards_two_iterations(self, rng):
        # deterministic MDP with distinct per-state maximal rewards: the
        # filtration stabilizes by index 1 and small discounts need at most
        # two iterations
        import random as _random

        local = _random.Random(5150)
        built = 0
        while built < 8:
            m = local.randint(2, 4)
            maxima = local.sample(range(-6, 7), m)
            states = tuple(f"s{i}" for i in range(m))
            actions = []
            transitions = []
            rewards = []
            for i in range(m):
                count = local.randint(1, 3)
                acts, rows, rews = [], [], []
                for k in range(count):
                    acts.append(f"a{k}")
                    target = local.randrange(m)
                    rows.append(
                        tuple(F(1 if j == target else 0) for j in range(m))
                    )
                    rews.append(
                        F(maxima[i])
                        if k == 0
                        else F(maxima[i]) - F(local.randint(1, 4), 2)
                    )
                actions.append(tuple(acts))
                transitions.append(tuple(rows))
                rewards.append(tuple(rews))
            mdp = Mdp(
                states,
                tuple(actions),
                tuple(transitions),
                tuple(rewards),
                tuple(F(0) for _ in range(m)),
            )
            built += 1
            rep = policy_filtration(mdp)
            assert rep.l_value <= 1
            for i in (1, 7, 13, 19):
                alpha = rep.delta * F(i, 20)
                if alpha == 0:
                    continue
                assert turnpike_integer(mdp, alpha).n_value <= 2

    def test_zero_terminal_makes_bound_tight(self, rng):
        # with zero terminal rewards, N = L + 1 exactly below Delta_L
        for _ in range(6):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            mdp = mdp.with_terminal([F(0)] * mdp.m)
            rep = policy_filtration(mdp)
            if rep.l_value == 0:
                continue
            for i in (1, 10, 19):
                alpha = rep.delta * F(i, 20)
                if alpha == 0:
                    continue
                assert turnpike_integer(mdp, alpha).n_value == rep.l_value + 1


class TestPowerProductIdentity:
    def test_prefixes_from_stable_level_share_reward_pushforwards(self, rng):
        # any time-varying prefix drawn from the stable filtration level has
        # the same reward pushforwards P_t(pi) r_t(pi) as any stationary
        # member, at every horizon
        def matmul(x, y, m):
            return [
                [sum((x[a][k] * y[k][b] for k in range(m)), F(0)) for b in range(m)]
                for a in range(m)
            ]

        def matvec(x, v, m):
            return tuple(
                sum((x[a][k] * v[k] for k in range(m)), F(0)) for a in range(m)
            )

        twin_branch = Mdp(
            ("s0", "s1", "s2"),
            (("a", "b"), ("a",), ("a",)),
            (
                ((F(0), F(1), F(0)), (F(0), F(0), F(1))),
                ((F(0), F(1), F(0)),),
                ((F(0), F(0), F(1)),),
            ),
            ((F(0), F(0)), (F(1),), (F(1),)),
            (F(0), F(0), F(0)),
        )
        candidates = [twin_branch] + [
            random_mdp(rng, max_states=3, max_actions=2) for _ in range(20)
        ]
        checked = 0
        for mdp in candidates:
            rep = policy_filtration(mdp)
            stable = rules_from_action_sets(rep.rules_at(rep.l_value))
            if len(stable) < 2:
                continue
            checked += 1
            m = mdp.m
            seq = [stable[t % len(stable)] for t in range(8)]
            ref = stable[0]
            p_run = [[F(1 if a == b else 0) for b in range(m)] for a in range(m)]
            p_ref = [[F(1 if a == b else 0) for b in range(m)] for a in range(m)]
            for t in range(8):
                assert matvec(p_run, mdp.reward_vector(seq[t]), m) == matvec(
                    p_ref, mdp.reward_vector(ref), m
                )
                p_run = matmul(p_run, mdp.transition_matrix(seq[t]), m)
                p_ref = matmul(p_ref, mdp.transition_matrix(ref), m)
        assert checked > 0


class TestChecks:
    def test_single_rule_all_pass(self):
        mdp = Mdp(("s",), (("a",),), (((F(1),),),), ((F(1),),), (F(0),))
        assert small_discount_checks(mdp).all_passed

    def test_example_equality_attained(self):
        fx = build_example("ex6")
        checks = small_discount_checks(fx.mdp)
        assert checks.all_passed
        # the first irregular point equals the radius here
        rep = policy_filtration(fx.mdp)
        from exactmdp.partition import canonical_partition

        part = canonical_partition(fx.mdp)
        assert part.irregular_points[0].point == rep.delta_tilde == F(1, 2)

    def test_chain_example_passes(self):
        assert small_discount_checks(build_example("ex3", m=4).mdp).all_passed

    def test_random_instances_pass(self, rng):
        for _ in range(4):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            assert small_discount_checks(mdp, grid=8).all_passed
