from fractions import Fraction as F
from itertools import product

import pytest

from exactmdp.corpus import build_example
from exactmdp.limits import CapExceededError
from exactmdp.mdp import (
    DecisionRule,
    MarkovPrefix,
    Mdp,
    balance,
    enumerate_decision_rules,
    spreads,
    validate,
)


def tiny_mdp(rewards, terminal, rows=None):
    """One- or two-state helper with explicit rational tables."""
    m = len(terminal)
    states = tuple(f"s{i}" for i in range(m))
    actions = tuple(tuple(f"a{k}" for k in range(len(rewards[i]))) for i in range(m))
    if rows is None:
        rows = tuple(
            tuple(tuple(F(1 if j == i else 0) for j in range(m)) for _ in rewards[i])
            for i in range(m)
        )
    rew = tuple(tuple(F(r) for r in row) for row in rewards)
    return Mdp(states, actions, rows, rew, tuple(F(t) for t in terminal))


class TestValidate:
    def test_identity_case_ok(self):
        mdp = tiny_mdp([[1]], [0])
        assert validate(mdp).ok

    def test_bad_row_sum_reported(self):
        mdp = tiny_mdp([[1]], [0], rows=(((F(99, 100),),),))
        report = validate(mdp)
        assert not report.ok
        v = report.violations[0]
        assert v.code == "row-sum-not-one"
        assert (v.state, v.action) == ("s0", "a0")

    def test_duplicate_action_reported(self):
        states = ("s0",)
        actions = (("a", "a"),)
        rows = (((F(1),), (F(1),)),)
        mdp = Mdp(states, actions, rows, ((F(0), F(0)),), (F(0),))
        assert any(v.code == "duplicate-action" for v in validate(mdp).violations)

    def test_corpus_examples_valid(self):
        for ex in ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "remark-variant"):
            assert validate(build_example(ex).mdp).ok


class TestEnumeration:
    def test_single_rule(self):
        assert enumerate_decision_rules(tiny_mdp([[1]], [0])) == [DecisionRule((0,))]

    def test_example_four_rules_in_order(self):
        fx = build_example("ex1")
        rules = enumerate_decision_rules(fx.mdp)
        assert [r.choices for r in rules] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_matches_cartesian_product_oracle(self):
        mdp = tiny_mdp([[0, 1], [0, 1, 2], [0]], [0, 0, 0])
        rules = enumerate_decision_rules(mdp)
        oracle = sorted(product(range(2), range(3), range(1)))
        assert [r.choices for r in rules] == oracle
        assert len(rules) == 6

    def test_cap(self, monkeypatch):
        mdp = tiny_mdp([[0, 1], [0, 1], [0, 1]], [0, 0, 0])
        monkeypatch.setenv("EXACTMDP_ENUMERATION_CAP", "7")
        with pytest.raises(CapExceededError) as err:
            enumerate_decision_rules(mdp)
        assert err.value.needed == 8


class TestSpreadsAndBalance:
    def test_all_zero(self):
        sp = spreads(tiny_mdp([[0], [0]], [0, 0]))
        assert (sp.r1, sp.r2, sp.r, sp.f1, sp.f2) == (0, 0, 0, 0, 0)

    def test_already_balanced_example(self):
        fx = build_example("ex6")
        sp = spreads(fx.mdp)
        assert sp.r1_star == sp.r1 == 1
        balanced, _ = balance(fx.mdp)
        assert balanced.rewards == fx.mdp.rewards

    def test_shifted_rewards(self):
        mdp = tiny_mdp([[0, 4], [0]], [2, 0])
        sp = spreads(mdp)
        assert (sp.f1, sp.r1_star) == (F(2), F(2))
        assert (sp.f2, sp.r2_star) == (F(1), F(1))
        balanced, bsp = balance(mdp)
        assert balanced.rewards == ((F(-2), F(2)), (F(-2),))
        assert bsp.r == bsp.r_star

    def test_spreads_invariants(self, rng):
        from conftest import random_mdp

        for _ in range(20):
            sp = spreads(random_mdp(rng))
            assert sp.r == max(sp.r1, sp.r2)
            assert sp.r_star == max(sp.r1_star, sp.r2_star)
            assert sp.r1_star <= sp.r1 and sp.r2_star <= sp.r2


class TestMarkovPrefix:
    def test_tail_expansion(self):
        r0, r1 = DecisionRule((0,)), DecisionRule((0,))
        pre = MarkovPrefix((r0,), tail=r1)
        assert pre.rule_at(0) is r0
        assert pre.rule_at(5) is r1

    def test_insufficient_rules(self):
        from exactmdp.mdp import InsufficientRulesError

        pre = MarkovPrefix((DecisionRule((0,)),))
        with pytest.raises(InsufficientRulesError):
            pre.rule_at(1)
