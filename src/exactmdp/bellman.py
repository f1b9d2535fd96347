"""Exact Bellman operators, value iteration, and optimal-policy sets at a
fixed rational discount factor.

First-step-optimal sets are handled as per-state argmax action sets because
the set of optimal decision rules always factorizes into a product across
states; rule sets are only materialized on demand (and capped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .exactarith import solve_linear
from .limits import CapExceededError, enumeration_cap
from .mdp import DecisionRule, MarkovPrefix, Mdp

ActionSets = tuple[frozenset[int], ...]


@dataclass(frozen=True)
class ValueVector:
    """Per-state exact values at one discount factor; horizon None means
    the infinite-horizon value."""

    values: tuple[Fraction, ...]
    alpha: Fraction
    horizon: int | None

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def norm(self) -> Fraction:
        return max(abs(v) for v in self.values)


@dataclass(frozen=True)
class VIStep:
    horizon: int
    value: ValueVector
    first_step: ActionSets | None  # None at horizon 0


@dataclass(frozen=True)
class OptSets:
    """Infinite-horizon optimal data: the value vector, the optimal rule set
    as per-state action sets, and (optionally) first-step sets by horizon."""

    v_alpha: ValueVector
    d_alpha_sets: ActionSets
    d_n: dict[int, ActionSets] = field(default_factory=dict)


def rules_from_action_sets(
    sets: ActionSets, cap: int | None = None
) -> frozenset[DecisionRule]:
    cap = enumeration_cap() if cap is None else cap
    count = 1
    for s in sets:
        count *= len(s)
    if count > cap:
        raise CapExceededError("enumeration", count, cap)
    return frozenset(
        DecisionRule(choice) for choice in product(*(sorted(s) for s in sets))
    )


def product_subset(a: ActionSets, b: ActionSets) -> bool:
    return all(sa <= sb for sa, sb in zip(a, b))


def count_rules(sets: ActionSets) -> int:
    n = 1
    for s in sets:
        n *= len(s)
    return n


def apply_policy_operator(
    mdp: Mdp, rule: DecisionRule, alpha: Fraction, v: ValueVector
) -> ValueVector:
    vals = v.values
    out = tuple(
        mdp.rewards[i][rule.action(i)]
        + alpha
        * sum(
            (p * vals[j] for j, p in enumerate(mdp.transitions[i][rule.action(i)])),
            Fraction(0),
        )
        for i in range(mdp.m)
    )
    hor = None if v.horizon is None else v.horizon + 1
    return ValueVector(out, alpha, hor)


def _action_values(mdp: Mdp, alpha: Fraction, vals) -> list[list[Fraction]]:
    return [
        [
            mdp.rewards[i][k]
            + alpha
            * sum((p * vals[j] for j, p in enumerate(mdp.transitions[i][k])), Fraction(0))
            for k in range(mdp.action_count(i))
        ]
        for i in range(mdp.m)
    ]


def bellman_step(
    mdp: Mdp, alpha: Fraction, v: ValueVector
) -> tuple[ValueVector, ActionSets]:
    """One application of the optimality operator plus the per-state argmax
    action sets (whose product is the first-step-optimal rule set)."""
    q = _action_values(mdp, alpha, v.values)
    best = tuple(max(row) for row in q)
    sets = tuple(
        frozenset(k for k, val in enumerate(row) if val == b)
        for row, b in zip(q, best)
    )
    hor = None if v.horizon is None else v.horizon + 1
    return ValueVector(best, alpha, hor), sets


def apply_bellman(
    mdp: Mdp, alpha: Fraction, v: ValueVector, cap: int | None = None
) -> tuple[ValueVector, frozenset[DecisionRule]]:
    out, sets = bellman_step(mdp, alpha, v)
    return out, rules_from_action_sets(sets, cap)


def terminal_value(mdp: Mdp, alpha: Fraction) -> ValueVector:
    return ValueVector(tuple(mdp.terminal), alpha, 0)


def value_iteration(mdp: Mdp, alpha: Fraction, n_max: int) -> list[VIStep]:
    """Exact trace from the terminal vector up to horizon n_max, with the
    first-step-optimal action sets at every horizon >= 1."""
    if not (0 <= alpha < 1):
        raise ValueError("discount factor must lie in [0, 1)")
    steps = [VIStep(0, terminal_value(mdp, alpha), None)]
    v = steps[0].value
    for n in range(1, n_max + 1):
        v, sets = bellman_step(mdp, alpha, v)
        steps.append(VIStep(n, v, sets))
    return steps


def evaluate_deterministic(mdp: Mdp, rule: DecisionRule, alpha: Fraction) -> ValueVector:
    """Exact infinite-horizon value of a stationary deterministic policy."""
    if not (0 <= alpha < 1):
        raise ValueError("discount factor must lie in [0, 1)")
    m = mdp.m
    p = mdp.transition_matrix(rule)
    r = mdp.reward_vector(rule)
    a = [
        [Fraction(1 if i == j else 0) - alpha * p[i][j] for j in range(m)]
        for i in range(m)
    ]
    vals = tuple(solve_linear(a, list(r)))
    v = ValueVector(vals, alpha, None)
    if apply_policy_operator(mdp, rule, alpha, v).values != vals:
        raise AssertionError("policy value failed the fixed-point check")
    return v


def evaluate_markov(
    mdp: Mdp, prefix: MarkovPrefix, alpha: Fraction, n: int
) -> ValueVector:
    """Exact n-horizon value of a Markov policy, terminal rewards included."""
    v = terminal_value(mdp, alpha)
    for t in range(n - 1, -1, -1):
        v = apply_policy_operator(mdp, prefix.rule_at(t), alpha, v)
    return v


def optimal_set(mdp: Mdp, alpha: Fraction, horizons: int = 0) -> OptSets:
    """Infinite-horizon value and the set of optimal decision rules.

    Runs exact policy iteration from the lexicographically smallest rule with
    lexicographic tie-breaking, verifies the optimality equation, and reads
    the optimal set off the per-state argmax.  When ``horizons`` is positive
    the first-step sets for horizons 1..horizons are attached as well.
    """
    if not (0 <= alpha < 1):
        raise ValueError("discount factor must lie in [0, 1)")
    rule = DecisionRule(tuple(0 for _ in range(mdp.m)))
    while True:
        v = evaluate_deterministic(mdp, rule, alpha)
        q = _action_values(mdp, alpha, v.values)
        improved = list(rule.choices)
        changed = False
        for i in range(mdp.m):
            best = max(q[i])
            if q[i][rule.action(i)] < best:
                improved[i] = min(
                    k for k, val in enumerate(q[i]) if val == best
                )
                changed = True
        if not changed:
            break
        rule = DecisionRule(tuple(improved))
    v_star, d_sets = bellman_step(mdp, alpha, v)
    if v_star.values != v.values:
        raise AssertionError("policy iteration ended on a non-fixed point")
    d_n: dict[int, ActionSets] = {}
    if horizons:
        for step in value_iteration(mdp, alpha, horizons)[1:]:
            d_n[step.horizon] = step.first_step
    return OptSets(ValueVector(v.values, alpha, None), d_sets, d_n)


def rolling_horizon_policy(mdp: Mdp, alpha: Fraction, n: int) -> MarkovPrefix:
    """n-horizon optimal Markov policy built from first-step-optimal rules of
    decreasing horizons (lexicographically smallest member at each step)."""
    if n < 1:
        raise ValueError("horizon must be positive")
    steps = value_iteration(mdp, alpha, n)
    rules = []
    for i in range(n):
        sets = steps[n - i].first_step
        rules.append(DecisionRule(tuple(min(s) for s in sets)))
    prefix = MarkovPrefix(tuple(rules))
    if evaluate_markov(mdp, prefix, alpha, n).values != steps[n].value.values:
        raise AssertionError("rolling-horizon policy is not n-horizon optimal")
    return prefix
