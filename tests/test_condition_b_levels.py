"""`check_condition_B` reads its finite-horizon derivatives from a table that
grows one level per horizon (`_derivative_levels`) instead of recomputing
each prefix's derivative from the identity, held as integer numerators over
one denominator per level.  These tests keep the recomputing K loop and the
`Fraction` table as references and require the integer table to reproduce
them exactly: every verdict, and every table entry against both
`_finite_value_derivative` (frozen in `frozen_conditions`) and the
`Fraction` table.  The integer table is
state-major; `entries` transposes a level back to one tuple per prefix."""

import random
from fractions import Fraction as F
from itertools import islice, product

import pytest

from conftest import random_mdp
from frozen_conditions import _finite_value_derivative, _identity, _mat_mul
from exactmdp import cli, conditions, docio
from exactmdp.conditions import (
    ConditionVerdict,
    _derivative_levels,
    _require_irregular,
    check_condition_B,
    condition_b_threshold,
)
from exactmdp.bellman import rules_from_action_sets
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.exactarith import value_rational_function
from exactmdp.limits import CapExceededError, prefix_cap
from exactmdp.mdp import MarkovPrefix, enumerate_decision_rules, mat_vec, spreads
from exactmdp.partition import canonical_partition

# 2- and 3-state MDPs from conftest.random_mdp(max_states=3, max_actions=2,
# max_den=2) whose partition has a rational irregular point in (0, 1).
# Under RANDOM_K_RANGE all but seed 10 are decided, between K = 2 and 6.
RANDOM_SEEDS = (10, 52, 95, 109, 112, 118, 132)
RANDOM_K_RANGE = range(0, 7)


def reference_check_condition_B(mdp, alpha_star, side, k_range=range(0, 13)):
    """Condition B with every prefix's derivative rebuilt from the identity."""
    mdp0 = mdp.with_terminal([F(0)] * mdp.m)
    _, *sides, report0 = _require_irregular(mdp0, alpha_star)
    d_minus, d_at, d_plus = map(rules_from_action_sets, sides)
    name = "B-" if side == "minus" else "B+"
    d_side = d_minus if side == "minus" else d_plus
    others = [r for r in d_at if r not in d_side]
    if not others:
        return ConditionVerdict(name, alpha_star, True, "vacuous")
    r1_star = spreads(mdp0).r1_star
    vf = {rule: value_rational_function(mdp0, rule) for rule in d_at}
    for phi in sorted(d_side):
        for psi in sorted(others):
            dv = tuple(
                (vf[phi][x] - vf[psi][x]).derivative()(alpha_star)
                for x in range(mdp.m)
            )
            if all(v == 0 for v in dv):
                return ConditionVerdict(
                    name, alpha_star, False, "tangency",
                    witnesses={"phi": phi, "psi": psi},
                )
    rules_sorted = sorted(d_at)
    for k in k_range:
        count = len(rules_sorted) ** (k + 1)
        if count > prefix_cap():
            raise CapExceededError("prefix", count, prefix_cap())
        threshold = condition_b_threshold(alpha_star, k, r1_star)
        tails = list(product(rules_sorted, repeat=k))
        derivs = {}
        for first in rules_sorted:
            for tail in tails:
                continuation = MarkovPrefix(tail if tail else (first,))
                derivs[(first, tail)] = _finite_value_derivative(
                    mdp0, first, continuation, alpha_star, k + 1
                )
        all_ok = True
        extrema = {}
        for phi in sorted(d_side):
            for psi in sorted(others):
                per_state = [
                    [derivs[(phi, t)][x] - derivs[(psi, t)][x] for t in tails]
                    for x in range(mdp.m)
                ]
                if side == "plus":
                    best = [(min(vals), x) for x, vals in enumerate(per_state)]
                    ok = any(v > threshold for v, _ in best)
                    extreme = max(best, key=lambda t: t[0])
                else:
                    best = [(max(vals), x) for x, vals in enumerate(per_state)]
                    ok = any(v < -threshold for v, _ in best)
                    extreme = min(best, key=lambda t: t[0])
                extrema[(phi, psi)] = {
                    "value": extreme[0],
                    "state": mdp.states[extreme[1]],
                }
                if not ok:
                    all_ok = False
        if all_ok:
            return ConditionVerdict(
                name, alpha_star, True, "finite-horizon-threshold",
                horizon_used=k, threshold=threshold, extrema=extrema,
            )
    return ConditionVerdict(
        name, alpha_star, None, "finite-horizon-threshold", horizon_used=max(k_range)
    )


def rational_irregular_points(mdp):
    return [
        ip.point
        for ip in canonical_partition(mdp).irregular_points
        if isinstance(ip.point, F) and 0 < ip.point < 1
    ]


def seeded_mdp(seed):
    return random_mdp(random.Random(seed), max_states=3, max_actions=2, max_den=2)


def assert_same_verdicts(mdp, k_range):
    points = rational_irregular_points(mdp)
    assert points
    for point in points:
        for side in ("minus", "plus"):
            got = check_condition_B(mdp, point, side, k_range=k_range)
            want = reference_check_condition_B(mdp, point, side, k_range=k_range)
            assert got == want, (point, side)


@pytest.mark.parametrize(
    "example_id", [e for e in EXAMPLE_IDS if e not in ("ex1", "ex2", "ex3")]
)
def test_corpus_verdicts_match_reference(example_id):
    # ex1, ex2 and ex3 have no rational irregular point in (0, 1)
    assert_same_verdicts(build_example(example_id).mdp, range(0, 13))


@pytest.mark.parametrize("example_id", ["ex1", "ex2", "ex3"])
def test_corpus_examples_without_rational_points(example_id):
    assert rational_irregular_points(build_example(example_id).mdp) == []


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_verdicts_match_reference(seed):
    mdp = seeded_mdp(seed)
    assert 2 <= mdp.m <= 3
    assert_same_verdicts(mdp, RANDOM_K_RANGE)


def test_smaller_horizon_after_larger_reads_its_own_level(monkeypatch):
    # with only K = 1 conclusive, the verdict's extrema must come from
    # level 1 even after level 3 has been built
    monkeypatch.setattr(
        conditions,
        "condition_b_threshold",
        lambda alpha, k, r1: F(-(10**9)) if k == 1 else F(10**9),
    )
    mdp = build_example("ex6").mdp
    for side in ("minus", "plus"):
        want = check_condition_B(mdp, F(1, 2), side, k_range=[1])
        assert want.holds is True and want.horizon_used == 1
        assert check_condition_B(mdp, F(1, 2), side, k_range=[3, 1]) == want


def test_negative_horizon_is_rejected():
    mdp = build_example("ex6").mdp
    for call in (check_condition_B, reference_check_condition_B):
        with pytest.raises(ValueError):
            call(mdp, F(1, 2), "plus", k_range=range(-1, 3))


def reference_derivative_levels(mdp0, rules, alpha):
    """The derivative table on `Fraction` matrices, level by level: each
    child is its parent plus (K+1)·alpha^K·M·r_r, with M the parent's
    transition product."""
    m, n = mdp0.m, len(rules)
    trans = [mdp0.transition_matrix(r) for r in rules]
    rewards = [mdp0.reward_vector(r) for r in rules]
    derivs = [(F(0),) * m] * n
    prods = [_identity(m)]
    k = 0
    while True:
        yield derivs
        w = (k + 1) * alpha**k
        prods = [_mat_mul(prods[i // n], trans[i % n], m) for i in range(len(derivs))]
        derivs = [
            tuple(d[x] + w * c[x] for x in range(m))
            for d, prod in zip(derivs, prods)
            for c in (mat_vec(prod, reward) for reward in rewards)
        ]
        k += 1


def entries(table):
    """A state-major level as one m-tuple per (first, tail), in the
    lexicographic order of (first, *tail): table[i][x] lists state x's
    numerators for first rule i over the tails."""
    return [entry for per_state in table for entry in zip(*per_state)]


def assert_levels_match_reference(mdp, alpha, depth):
    """Every integer entry over its level denominator equals the `Fraction`
    table's entry, at every level up to `depth`, for the rules of
    D(alpha)."""
    mdp0 = mdp.with_terminal([F(0)] * mdp.m)
    rules = rules_from_action_sets(_require_irregular(mdp, alpha)[2])
    got = islice(_derivative_levels(mdp0, rules, alpha), depth + 1)
    want = islice(reference_derivative_levels(mdp0, rules, alpha), depth + 1)
    for k, ((table, den), ref) in enumerate(zip(got, want)):
        assert den > 0
        assert [tuple(F(x, den) for x in entry) for entry in entries(table)] == ref, k


# Every D(alpha) below has two rules; ex5's verdict at 2/3 reads level 9,
# which has 1024 entries.
LEVEL_DEPTH = 9


@pytest.mark.parametrize(
    "example_id", [e for e in EXAMPLE_IDS if e not in ("ex1", "ex2", "ex3")]
)
def test_integer_levels_match_fraction_table_corpus(example_id):
    mdp = build_example(example_id).mdp
    for point in rational_irregular_points(mdp):
        assert_levels_match_reference(mdp, point, LEVEL_DEPTH)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_integer_levels_match_fraction_table_random(seed):
    mdp = seeded_mdp(seed)
    for point in rational_irregular_points(mdp):
        assert_levels_match_reference(mdp, point, LEVEL_DEPTH)


def assert_levels_match_oracle(mdp, rules, alpha, depth):
    mdp0 = mdp.with_terminal([F(0)] * mdp.m)
    levels = islice(_derivative_levels(mdp0, rules, alpha), depth + 1)
    for k, (table, den) in enumerate(levels):
        prefixes = [
            (first, tail) for first in rules for tail in product(rules, repeat=k)
        ]
        assert len(entries(table)) == len(prefixes)
        for (first, tail), deriv in zip(prefixes, entries(table)):
            continuation = MarkovPrefix(tail if tail else (first,))
            assert tuple(F(x, den) for x in deriv) == _finite_value_derivative(
                mdp0, first, continuation, alpha, k + 1
            ), (k, first, tail)


@pytest.mark.parametrize(
    "example_id, alpha, depth", [("ex5", F(2, 3), 9), ("ex1", F(1, 2), 4)]
)
def test_table_entries_match_oracle_corpus(example_id, alpha, depth):
    mdp = build_example(example_id).mdp
    assert_levels_match_oracle(mdp, enumerate_decision_rules(mdp), alpha, depth)


@pytest.mark.parametrize("seed", [52, 95, 118])
def test_table_entries_match_oracle_random(seed):
    mdp = seeded_mdp(seed)
    rules = enumerate_decision_rules(mdp)
    depth = 4 if len(rules) <= 4 else 2
    assert_levels_match_oracle(mdp, rules, F(3, 5), depth)


class TestPrefixCap:
    def test_cap_below_level_nine_raises(self, monkeypatch):
        monkeypatch.setenv("EXACTMDP_PREFIX_CAP", "512")
        mdp = build_example("ex5").mdp
        for side in ("minus", "plus"):
            with pytest.raises(CapExceededError) as info:
                check_condition_B(mdp, F(2, 3), side)
            assert info.value.needed == 1024
            assert info.value.cap == 512

    def test_cap_exit_code(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("EXACTMDP_PREFIX_CAP", "512")
        path = tmp_path / "ex5.json"
        mdp = build_example("ex5").mdp
        path.write_text(docio.dumps_document(docio.document_from_mdp(mdp)))
        assert cli.main(["conditions", str(path), "--point", "2/3"]) == 3
        capsys.readouterr()

    def test_cap_at_level_nine_succeeds(self, monkeypatch):
        monkeypatch.setenv("EXACTMDP_PREFIX_CAP", "1024")
        mdp = build_example("ex5").mdp
        for side in ("minus", "plus"):
            verdict = check_condition_B(mdp, F(2, 3), side)
            assert verdict.holds is True
            assert verdict.horizon_used == 9


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_partition_ignores_terminal_rewards_corpus(example_id):
    mdp = build_example(example_id).mdp
    assert canonical_partition(mdp) == canonical_partition(
        mdp.with_terminal([F(0)] * mdp.m)
    )


@pytest.mark.parametrize("seed", range(8))
def test_partition_ignores_terminal_rewards_random(seed):
    mdp = random_mdp(random.Random(seed), max_states=3, max_actions=2, max_den=4)
    assert any(t != 0 for t in mdp.terminal)
    assert canonical_partition(mdp) == canonical_partition(
        mdp.with_terminal([F(0)] * mdp.m)
    )
