"""Differential test of the integer Bellman kernel.

Policy evaluation, Q-values, value iteration and the turnpike loop run on
integer numerators over one denominator.  This file keeps the earlier
``Fraction`` implementations (Q-values per action, Gaussian elimination,
policy iteration, and the turnpike loop on the balanced model) as the
reference, and requires every value vector, action set, ``OptSets`` and
``TurnpikeResult`` to be equal to theirs.
"""

import random
from fractions import Fraction as F

import pytest

import exactmdp.bellman as bellman
import exactmdp.exactarith as exactarith
from conftest import random_mdp
from exactmdp.bellman import (
    ActionSets,
    OptSets,
    ValueVector,
    VIStep,
    apply_policy_operator,
    bellman_step,
    evaluate_deterministic,
    optimal_set,
    product_subset,
    terminal_value,
    value_iteration,
)
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.exactarith import SingularMatrixError, bareiss_solve, solve_linear
from exactmdp.mdp import DecisionRule, Mdp, balance, enumerate_decision_rules, spreads
from exactmdp.turnpike import (
    AllRulesOptimalError,
    TurnpikeResult,
    suboptimality_gap,
    turnpike_integer,
)

ALPHAS = tuple(F(k, 10) for k in range(10)) + (F(97, 100), F(999, 1000))
RANDOM_ALPHAS = (F(0), F(1, 3), F(7, 10), F(9, 10), F(97, 100))


# -- the Fraction reference ------------------------------------------------------


def ref_action_values(mdp: Mdp, alpha: F, vals) -> list[list[F]]:
    return [
        [
            mdp.rewards[i][k]
            + alpha
            * sum((p * vals[j] for j, p in enumerate(mdp.transitions[i][k])), F(0))
            for k in range(mdp.action_count(i))
        ]
        for i in range(mdp.m)
    ]


def ref_bellman_step(mdp: Mdp, alpha: F, v: ValueVector) -> tuple[ValueVector, ActionSets]:
    q = ref_action_values(mdp, alpha, v.values)
    best = tuple(max(row) for row in q)
    sets = tuple(
        frozenset(k for k, val in enumerate(row) if val == b) for row, b in zip(q, best)
    )
    hor = None if v.horizon is None else v.horizon + 1
    return ValueVector(best, alpha, hor), sets


def ref_value_iteration(mdp: Mdp, alpha: F, n_max: int) -> list[VIStep]:
    steps = [VIStep(0, terminal_value(mdp, alpha), None)]
    v = steps[0].value
    for n in range(1, n_max + 1):
        v, sets = ref_bellman_step(mdp, alpha, v)
        steps.append(VIStep(n, v, sets))
    return steps


def ref_solve_linear(a, b) -> list[F]:
    """Gaussian elimination on Fraction entries, with the residual check."""
    n = len(a)
    mat = [[F(x) for x in row] + [F(b[i])] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv = mat[col][col]
        for r in range(n):
            if r == col or mat[r][col] == 0:
                continue
            factor = mat[r][col] / pv
            for c in range(col, n + 1):
                mat[r][c] -= factor * mat[col][c]
    x = [mat[i][n] / mat[i][i] for i in range(n)]
    for i in range(n):
        if sum((a[i][j] * x[j] for j in range(n)), F(0)) != b[i]:
            raise AssertionError("linear solve verification failed")
    return x


def policy_system(mdp: Mdp, rule: DecisionRule, alpha: F):
    p = mdp.transition_matrix(rule)
    a = [
        [F(1 if i == j else 0) - alpha * p[i][j] for j in range(mdp.m)]
        for i in range(mdp.m)
    ]
    return a, list(mdp.reward_vector(rule))


def ref_evaluate_deterministic(mdp: Mdp, rule: DecisionRule, alpha: F) -> ValueVector:
    vals = tuple(ref_solve_linear(*policy_system(mdp, rule, alpha)))
    v = ValueVector(vals, alpha, None)
    if apply_policy_operator(mdp, rule, alpha, v).values != vals:
        raise AssertionError("policy value failed the fixed-point check")
    return v


def ref_reward_greedy_rule(mdp: Mdp) -> DecisionRule:
    """Per state, the lowest-index action of largest reward."""
    return DecisionRule(tuple(row.index(max(row)) for row in mdp.rewards))


def ref_optimal_set(mdp: Mdp, alpha: F, visited=None, start=None) -> OptSets:
    """Policy iteration from ``start``, by default the rule of all zeros."""
    rule = DecisionRule(tuple(0 for _ in range(mdp.m))) if start is None else start
    while True:
        if visited is not None:
            visited.append(rule)
        v = ref_evaluate_deterministic(mdp, rule, alpha)
        q = ref_action_values(mdp, alpha, v.values)
        improved = list(rule.choices)
        changed = False
        for i in range(mdp.m):
            best = max(q[i])
            if q[i][rule.action(i)] < best:
                improved[i] = min(k for k, val in enumerate(q[i]) if val == best)
                changed = True
        if not changed:
            break
        rule = DecisionRule(tuple(improved))
    v_star, d_sets = ref_bellman_step(mdp, alpha, v)
    if v_star.values != v.values:
        raise AssertionError("policy iteration ended on a non-fixed point")
    return OptSets(ValueVector(v.values, alpha, None), d_sets)


def ref_gap(mdp: Mdp, alpha: F, opt: OptSets) -> F:
    q = ref_action_values(mdp, alpha, opt.v_alpha.values)
    positives = [
        opt.v_alpha[i] - q[i][k]
        for i in range(mdp.m)
        for k in range(mdp.action_count(i))
        if opt.v_alpha[i] > q[i][k]
    ]
    if not positives:
        raise AllRulesOptimalError("all decision rules are optimal at this discount")
    return min(positives)


def ref_turnpike_integer(mdp: Mdp, alpha: F) -> TurnpikeResult:
    """The turnpike loop on the balanced model, in Fraction arithmetic."""
    bal, sp = balance(mdp)
    opt = ref_optimal_set(bal, alpha)
    if alpha == 0:
        return TurnpikeResult(alpha, 1, 0, None, None, opt.d_alpha_sets)
    try:
        gap = ref_gap(bal, alpha, opt)
    except AllRulesOptimalError:
        return TurnpikeResult(alpha, 1, 0, None, None, opt.d_alpha_sets)
    k_cert = 0
    bound = 2 * alpha * (sp.r1_star / (1 - alpha) + sp.r2_star)
    while bound >= gap:
        k_cert += 1
        bound *= alpha
    v_star = opt.v_alpha.values
    v = terminal_value(bal, alpha)
    n_value, failed_sets = 1, None
    horizon = 0
    while horizon < k_cert:
        diff = [a - b for a, b in zip(v.values, v_star)]
        if alpha * (max(diff) - min(diff)) < gap:
            break
        v, sets = ref_bellman_step(bal, alpha, v)
        horizon += 1
        if not product_subset(sets, opt.d_alpha_sets):
            n_value, failed_sets = horizon + 1, sets
    witness = None
    if failed_sets is not None:
        bad_state = next(
            i for i in range(mdp.m) if not failed_sets[i] <= opt.d_alpha_sets[i]
        )
        witness = DecisionRule(
            tuple(
                min(s - opt.d_alpha_sets[i]) if i == bad_state else min(s)
                for i, s in enumerate(failed_sets)
            )
        )
    return TurnpikeResult(
        alpha, n_value, k_cert, gap, witness, opt.d_alpha_sets, horizon
    )


# -- comparisons -----------------------------------------------------------------


def assert_same_bellman(mdp: Mdp, alpha: F, horizons: int = 4, rule_limit: int = 16):
    opt = optimal_set(mdp, alpha)
    assert opt == ref_optimal_set(mdp, alpha)
    trace = value_iteration(mdp, alpha, horizons)
    assert trace == ref_value_iteration(mdp, alpha, horizons)
    for v in [step.value for step in trace[:3]] + [opt.v_alpha]:
        assert bellman_step(mdp, alpha, v) == ref_bellman_step(mdp, alpha, v)
    for rule in enumerate_decision_rules(mdp)[:rule_limit]:
        assert evaluate_deterministic(mdp, rule, alpha) == ref_evaluate_deterministic(
            mdp, rule, alpha
        )
        a, b = policy_system(mdp, rule, alpha)
        assert solve_linear(a, b) == ref_solve_linear(a, b)


def assert_same_turnpike(mdp: Mdp, alpha: F):
    assert turnpike_integer(mdp, alpha) == ref_turnpike_integer(mdp, alpha)


def seeded_mdps(count: int = 40):
    """1-5 states, 1-4 actions, rewards in [-2, 2]; zero-probability entries
    and single-action states occur throughout."""
    rng = random.Random(20261018)
    return [random_mdp(rng, max_states=5, max_actions=4) for _ in range(count)]


class TestCorpus:
    @pytest.mark.parametrize("ex", EXAMPLE_IDS)
    def test_bellman_layers_match_reference(self, ex):
        mdp = build_example(ex).mdp
        for alpha in ALPHAS:
            assert_same_bellman(mdp, alpha)

    @pytest.mark.parametrize("ex", EXAMPLE_IDS)
    def test_turnpike_matches_reference(self, ex):
        mdp = build_example(ex).mdp
        for alpha in ALPHAS:
            assert_same_turnpike(mdp, alpha)


class TestSeededRandom:
    def test_family_covers_the_edge_cases(self):
        mdps = seeded_mdps()
        assert {m.m for m in mdps} == {1, 2, 3, 4, 5}
        assert max(max(m.action_count(i) for i in range(m.m)) for m in mdps) == 4
        assert any(m.action_count(i) == 1 for m in mdps for i in range(m.m))
        assert any(r < 0 for m in mdps for row in m.rewards for r in row)
        assert any(
            x == 0 for m in mdps for acts in m.transitions for row in acts for x in row
        )

    def test_bellman_layers_match_reference(self):
        for mdp in seeded_mdps():
            for alpha in RANDOM_ALPHAS:
                assert_same_bellman(mdp, alpha, horizons=3, rule_limit=4)

    def test_turnpike_matches_reference(self):
        for mdp in seeded_mdps():
            for alpha in RANDOM_ALPHAS:
                assert_same_turnpike(mdp, alpha)


def recorded_evaluations(monkeypatch) -> list:
    original = bellman._policy_value
    seen = []

    def recording(form, rule):
        seen.append(rule)
        return original(form, rule)

    monkeypatch.setattr(bellman, "_policy_value", recording)
    return seen


def test_policy_iteration_visits_the_same_rules(monkeypatch):
    """Same start rule (the reward-greedy one) and tie-break (lowest index
    among the maximisers): one evaluation per round, of the same rules in
    the same order."""
    seen = recorded_evaluations(monkeypatch)
    mdps = [build_example(ex).mdp for ex in EXAMPLE_IDS] + seeded_mdps()
    for mdp in mdps:
        start = ref_reward_greedy_rule(mdp)
        for alpha in RANDOM_ALPHAS:
            seen.clear()
            expected = []
            optimal_set(mdp, alpha)
            ref_optimal_set(mdp, alpha, visited=expected, start=start)
            assert seen == expected


def test_turnpike_policy_iteration_starts_from_the_horizon_3_rule(monkeypatch):
    """``turnpike_integer`` starts policy iteration from the smallest rule of
    value iteration's horizon-3 first-step set, and evaluates the same rules
    in the same order as the reference started there."""
    seen = recorded_evaluations(monkeypatch)
    mdps = [build_example(ex).mdp for ex in EXAMPLE_IDS] + seeded_mdps()
    for mdp in mdps:
        for alpha in RANDOM_ALPHAS:
            d3 = ref_value_iteration(mdp, alpha, 3)[3].first_step
            start = DecisionRule(tuple(min(s) for s in d3))
            seen.clear()
            expected = []
            turnpike_integer(mdp, alpha)
            ref_optimal_set(mdp, alpha, visited=expected, start=start)
            assert seen == expected


class TestUnbalancedTurnpike:
    """``turnpike_integer`` iterates the model as given; K and every other
    field equal those of the balanced model."""

    def cases(self):
        yield from (build_example(ex).mdp for ex in EXAMPLE_IDS)
        yield from seeded_mdps(30)

    def test_spreads_give_the_balanced_constants(self):
        for mdp in self.cases():
            sp, (_, bsp) = spreads(mdp), balance(mdp)
            assert (sp.r1_star, sp.r2_star) == (bsp.r1_star, bsp.r2_star)

    def test_result_equals_the_balanced_computation(self):
        for mdp in self.cases():
            bal, _ = balance(mdp)
            for alpha in (F(1, 2), F(9, 10), F(97, 100)):
                assert turnpike_integer(mdp, alpha) == turnpike_integer(bal, alpha)


class TestIntegerSolver:
    def test_returns_positive_determinant_and_exact_residual(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            b = [rng.randint(-9, 9) for _ in range(n)]
            try:
                x, det = bareiss_solve(a, b)
            except SingularMatrixError:
                continue
            assert det > 0
            for row, bi in zip(a, b):
                assert sum(c * xj for c, xj in zip(row, x)) == det * bi

    def test_needs_a_row_swap(self):
        x, det = bareiss_solve([[0, 2], [3, 1]], [4, 5])
        assert [F(v, det) for v in x] == [F(1), F(2)]

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            bareiss_solve([[1, 2], [2, 4]], [1, 1])

    @pytest.mark.parametrize(
        "module,call,message",
        [
            (
                bellman,
                lambda: evaluate_deterministic(
                    build_example("ex1").mdp, DecisionRule((0, 0)), F(1, 2)
                ),
                "fixed-point check",
            ),
            (
                exactarith,
                lambda: solve_linear([[F(1, 2), F(1)], [F(0), F(3)]], [F(1), F(2)]),
                "linear solve verification failed",
            ),
        ],
    )
    def test_checks_catch_a_wrong_solution(self, monkeypatch, module, call, message):
        def off_by_one(a, b):
            x, det = bareiss_solve(a, b)
            return [x[0] + 1, *x[1:]], det

        monkeypatch.setattr(module, "bareiss_solve", off_by_one)
        with pytest.raises(AssertionError, match=message):
            call()

    def test_gap_from_integer_q_matches_reference(self):
        for mdp in seeded_mdps(20):
            for alpha in (F(1, 3), F(9, 10)):
                try:
                    expected = ref_gap(mdp, alpha, ref_optimal_set(mdp, alpha))
                except AllRulesOptimalError:
                    with pytest.raises(AllRulesOptimalError):
                        suboptimality_gap(mdp, alpha)
                    continue
                assert suboptimality_gap(mdp, alpha) == expected
