from fractions import Fraction as F

from exactmdp.corpus import build_example
from exactmdp.equivalence import pushforwards_equal, values_equal_all_discounts
from exactmdp.mdp import DecisionRule, enumerate_decision_rules
from exactmdp.polyarith import value_rational_function

from conftest import random_mdp, random_rational
from frozen_conditions import compute_G


def _mat_vec(p, v):
    return tuple(sum((pij * vj for pij, vj in zip(row, v)), F(0)) for row in p)


class TestComputeG:
    def test_single_state(self):
        from exactmdp.mdp import Mdp

        mdp = Mdp(("s",), (("a",),), (((F(1),),),), ((F(1),),), (F(0),))
        assert compute_G(mdp, DecisionRule((0,)), (F(5),)).value == 1

    def test_constant_vector_gives_one(self):
        fx = build_example("ex1")
        for rule in enumerate_decision_rules(fx.mdp):
            assert compute_G(fx.mdp, rule, (F(3), F(3))).value == 1

    def test_bounds(self, rng):
        for _ in range(15):
            mdp = random_mdp(rng)
            rule = enumerate_decision_rules(mdp)[0]
            v = tuple(random_rational(rng, 6, -2, 2) for _ in range(mdp.m))
            g = compute_G(mdp, rule, v).value
            assert 1 <= g <= mdp.m

    def test_chain_example_matches_rank_oracle(self):
        fx = build_example("ex3", m=4)
        phi2 = DecisionRule((1, 0, 0, 0))
        v = fx.mdp.reward_vector(phi2)
        g = compute_G(fx.mdp, phi2, v).value
        # oracle: brute-force rank of {1, v, Pv, ..., P^(t-2) v} over t = 1..m
        p = fx.mdp.transition_matrix(phi2)
        ones = tuple(F(1) for _ in range(4))

        def rank(vectors):
            rows = [list(w) for w in vectors]
            r = 0
            for col in range(4):
                piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
                if piv is None:
                    continue
                rows[r], rows[piv] = rows[piv], rows[r]
                for i in range(len(rows)):
                    if i != r and rows[i][col] != 0:
                        f = rows[i][col] / rows[r][col]
                        rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                r += 1
            return r

        best = 1
        family = [ones, v]
        w = v
        for t in range(2, 5):
            if rank(family) == len(family):
                best = t
                w = _mat_vec(p, w)
                family.append(w)
            else:
                break
        assert g == best == 4


class TestPushforwards:
    def test_reflexive(self):
        fx = build_example("ex1")
        rule = DecisionRule((0, 1))
        v = fx.mdp.reward_vector(rule)
        assert pushforwards_equal(fx.mdp, rule, v, rule, v)

    def test_constant_vectors_always_equal(self, rng):
        for _ in range(10):
            mdp = random_mdp(rng)
            rules = enumerate_decision_rules(mdp)
            c = tuple(F(7, 3) for _ in range(mdp.m))
            assert pushforwards_equal(mdp, rules[0], c, rules[-1], c)

    def test_agrees_with_extended_brute_force(self, rng):
        for _ in range(20):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            rules = enumerate_decision_rules(mdp)
            r1 = rules[rng.randrange(len(rules))]
            r2 = rules[rng.randrange(len(rules))]
            v1 = tuple(random_rational(rng, 4, -1, 1) for _ in range(mdp.m))
            v2 = v1 if rng.random() < 0.5 else tuple(
                random_rational(rng, 4, -1, 1) for _ in range(mdp.m)
            )
            verdict = pushforwards_equal(mdp, r1, v1, r2, v2)
            p1, p2 = mdp.transition_matrix(r1), mdp.transition_matrix(r2)
            a, b = v1, v2
            brute = True
            for _ in range(3 * mdp.m + 1):
                if a != b:
                    brute = False
                    break
                a, b = _mat_vec(p1, a), _mat_vec(p2, b)
            assert verdict == brute


class TestValuesEqualAllDiscounts:
    def test_reflexive(self):
        fx = build_example("ex2")
        rule = enumerate_decision_rules(fx.mdp)[0]
        assert values_equal_all_discounts(fx.mdp, rule, rule)

    def test_example_rules_differ(self):
        fx = build_example("ex1")
        phi2, phi4 = DecisionRule((0, 1)), DecisionRule((1, 1))
        # equal rewards but different one-step pushforwards
        assert fx.mdp.reward_vector(phi2) == fx.mdp.reward_vector(phi4) == (F(0), F(1))
        p2 = fx.mdp.transition_matrix(phi2)
        p4 = fx.mdp.transition_matrix(phi4)
        assert _mat_vec(p2, (F(0), F(1))) == (F(0), F(1))
        assert _mat_vec(p4, (F(0), F(1))) == (F(1), F(1))
        assert not values_equal_all_discounts(fx.mdp, phi2, phi4)

    def test_matches_symbolic_identity_on_corpus(self):
        for ex in ("ex1", "ex2", "ex4", "ex5", "ex6", "remark-variant"):
            mdp = build_example(ex).mdp
            rules = enumerate_decision_rules(mdp)
            vf = {r: value_rational_function(mdp, r) for r in rules}
            for i, r1 in enumerate(rules):
                for r2 in rules[i:]:
                    assert values_equal_all_discounts(mdp, r1, r2) == (
                        vf[r1] == vf[r2]
                    )

    def test_matches_symbolic_identity_random(self, rng):
        for _ in range(6):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            rules = enumerate_decision_rules(mdp)
            vf = {r: value_rational_function(mdp, r) for r in rules}
            for i, r1 in enumerate(rules):
                for r2 in rules[i:]:
                    assert values_equal_all_discounts(mdp, r1, r2) == (
                        vf[r1] == vf[r2]
                    )
