"""Exact Bellman operators, value iteration, and optimal-policy sets at a
fixed rational discount factor.

Optimal and first-step-optimal sets are held as per-state action sets
(``ActionSets``): a deterministic rule is optimal exactly when each of its
actions is conserving, so each such set of rules is the product of its
per-state sets.  Every layer compares, counts and intersects them state by
state; ``rules_from_action_sets`` is the one place that lists a product's
rules, under the enumeration cap, for reports that print them.

Policy evaluation, Q-values and value iteration run on integers.  With L
the lcm of every reward and transition denominator, ``Mdp.integer_table``
holds L*r and L*P and is built once per MDP; at alpha = p/q an
``_IntegerForm`` is (p, q, table).  A value vector is held as integer
numerators over one denominator: for v = nums/den,
Q(i, k) * L*q*den = L*r(i, k)*q*den + p * sum_j L*P(i, k, j)*nums[j] is an
integer, so argmaxes and ties are integer comparisons, and the next value is
the row maxima over L*q*den reduced by one gcd.  A policy's value solves
(qL*I - p*L*P_pi) x = q*L*r_pi by fraction-free elimination.  Values become
``Fraction`` only where a public function returns them.

Policy iteration (``_policy_iteration``) takes its start rule from the
caller: ``optimal_set`` starts from the reward-greedy rule, and
``turnpike.turnpike_integer`` from the smallest rule of value iteration's
horizon-3 first-step set.  Each round is one exact solve; V* and D are
unique, so the start changes only how many rounds run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, product
from typing import Iterator, Sequence

from .exactarith import bareiss_solve
from .mdp import DecisionRule, IntegerTable, MarkovPrefix, Mdp, capped_rule_count

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
    """Infinite-horizon optimal data: the value vector and the optimal rule
    set as per-state action sets."""

    v_alpha: ValueVector
    d_alpha_sets: ActionSets


def rules_from_action_sets(sets: ActionSets) -> list[DecisionRule]:
    """The decision rules of the product in lexicographic order; raises
    ``CapExceededError`` past the enumeration cap."""
    capped_rule_count(sets)
    return [DecisionRule(choice) for choice in product(*(sorted(s) for s in sets))]


def smallest_rule(sets: ActionSets) -> DecisionRule:
    """The lexicographically smallest rule of a nonempty product."""
    return DecisionRule(tuple(min(s) for s in sets))


def product_subset(a: ActionSets, b: ActionSets) -> bool:
    return all(sa <= sb for sa, sb in zip(a, b))


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


@dataclass(frozen=True)
class _IntegerForm:
    """An MDP at one discount alpha = p/q with its integer table."""

    p: int
    q: int
    table: IntegerTable


def _integer_form(mdp: Mdp, alpha: Fraction) -> _IntegerForm:
    return _IntegerForm(alpha.numerator, alpha.denominator, mdp.integer_table)


def _ints_of(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, den) with values = nums / den and den the lcm of the
    denominators, so gcd(den, *nums) == 1."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _reduced(nums: Sequence[int], den: int) -> tuple[list[int], int]:
    g = math.gcd(den, *nums)
    return [x // g for x in nums], den // g


def _vector(
    nums: Sequence[int], den: int, alpha: Fraction, horizon: int | None
) -> ValueVector:
    return ValueVector(tuple(Fraction(x, den) for x in nums), alpha, horizon)


def _q_nums(form: _IntegerForm, nums: Sequence[int], den: int) -> list[list[int]]:
    """Q-values at the value vector nums/den, each times L*q*den."""
    p, qd, t = form.p, form.q * den, form.table
    return [
        [r * qd + p * sum(w * nums[j] for j, w in row) for r, row in zip(rs, acts)]
        for rs, acts in zip(t.rewards, t.rows)
    ]


def _argmax(q: list[list[int]]) -> tuple[list[int], ActionSets]:
    best = [max(row) for row in q]
    sets = tuple(
        frozenset(k for k, x in enumerate(row) if x == b) for row, b in zip(q, best)
    )
    return best, sets


def _sets_at_fixed_point(
    form: _IntegerForm, nums: Sequence[int], den: int, q: list[list[int]]
) -> ActionSets | None:
    """The argmax sets of the Q-values q at V = nums/den, when V is the
    optimality operator's fixed point (each row maximum is V * L*q); else
    None."""
    best, sets = _argmax(q)
    lq = form.table.scale * form.q
    return sets if all(b == x * lq for b, x in zip(best, nums)) else None


def _step(
    form: _IntegerForm, nums: Sequence[int], den: int
) -> tuple[tuple[list[int], int], ActionSets]:
    """One optimality-operator step on nums/den: the next (nums, den), reduced,
    and the per-state argmax sets."""
    best, sets = _argmax(_q_nums(form, nums, den))
    return _reduced(best, form.table.scale * form.q * den), sets


def bellman_step(
    mdp: Mdp, alpha: Fraction, v: ValueVector
) -> tuple[ValueVector, ActionSets]:
    """One application of the optimality operator plus the per-state argmax
    action sets (whose product is the first-step-optimal rule set)."""
    (nums, den), sets = _step(_integer_form(mdp, alpha), *_ints_of(v.values))
    hor = None if v.horizon is None else v.horizon + 1
    return _vector(nums, den, alpha, hor), sets


def terminal_value(mdp: Mdp, alpha: Fraction) -> ValueVector:
    return ValueVector(tuple(mdp.terminal), alpha, 0)


def value_iteration(mdp: Mdp, alpha: Fraction, n_max: int) -> list[VIStep]:
    """Exact trace from the terminal vector up to horizon n_max, with the
    first-step-optimal action sets at every horizon >= 1."""
    if n_max < 0:
        raise ValueError("horizon must be non-negative")
    return list(islice(value_iteration_steps(mdp, alpha), n_max + 1))


def value_iteration_steps(mdp: Mdp, alpha: Fraction) -> Iterator[VIStep]:
    """`value_iteration`'s trace without end, each horizon stepped when read."""
    if not (0 <= alpha < 1):
        raise ValueError("discount factor must lie in [0, 1)")
    yield VIStep(0, terminal_value(mdp, alpha), None)
    form = _integer_form(mdp, alpha)
    nums, den = _ints_of(mdp.terminal)
    for n in count(1):
        (nums, den), sets = _step(form, nums, den)
        yield VIStep(n, _vector(nums, den, alpha, n), sets)


def _policy_value(form: _IntegerForm, rule: DecisionRule) -> tuple[list[int], int]:
    """Reduced (nums, den) of a stationary deterministic policy's value."""
    t = form.table
    m = len(t.rows)
    ql, p = form.q * t.scale, form.p
    a = []
    for i in range(m):
        row = [0] * m
        row[i] = ql
        for j, w in t.rows[i][rule.action(i)]:
            row[j] -= p * w
        a.append(row)
    b = [form.q * t.rewards[i][rule.action(i)] for i in range(m)]
    x, det = bareiss_solve(a, b)
    # T_pi v = v for v = x/det, scaled by qL*det
    if any(sum(c * xj for c, xj in zip(row, x)) != det * bi for row, bi in zip(a, b)):
        raise AssertionError("policy value failed the fixed-point check")
    return _reduced(x, det)


def evaluate_deterministic(
    mdp: Mdp, rule: DecisionRule, alpha: Fraction, form: _IntegerForm | None = None
) -> ValueVector:
    """Exact infinite-horizon value of a stationary deterministic policy.

    ``form`` is the MDP's integer form at alpha, when the caller has built it.
    """
    if not (0 <= alpha < 1):
        raise ValueError("discount factor must lie in [0, 1)")
    if form is None:
        form = _integer_form(mdp, alpha)
    return _vector(*_policy_value(form, rule), alpha, None)


def evaluate_markov(
    mdp: Mdp, prefix: MarkovPrefix, alpha: Fraction, n: int
) -> ValueVector:
    """Exact n-horizon value of a Markov policy, terminal rewards included."""
    if n < 0:
        raise ValueError("horizon must be non-negative")
    v = terminal_value(mdp, alpha)
    for t in range(n - 1, -1, -1):
        v = apply_policy_operator(mdp, prefix.rule_at(t), alpha, v)
    return v


def _reward_greedy_rule(form: _IntegerForm) -> DecisionRule:
    """Per state, the lowest-index action of largest L*r: the smallest
    first-step-optimal rule of horizon 1 with zero terminal reward."""
    return DecisionRule(tuple(row.index(max(row)) for row in form.table.rewards))


def _policy_iteration(
    mdp: Mdp, alpha: Fraction, form: _IntegerForm, rule: DecisionRule
) -> OptSets:
    """Exact policy iteration from ``rule``: one evaluation per round, each
    non-conserving action replaced by the lowest-index maximiser, until no
    action changes; then the optimality equation is verified and the optimal
    set read off the per-state argmax.  Any start reaches the same unique
    V* and D."""
    while True:
        v = evaluate_deterministic(mdp, rule, alpha, form)
        nums, den = _ints_of(v.values)
        q = _q_nums(form, nums, den)
        improved = list(rule.choices)
        changed = False
        for i, row in enumerate(q):
            best = max(row)
            if row[rule.action(i)] < best:
                improved[i] = row.index(best)
                changed = True
        if not changed:
            break
        rule = DecisionRule(tuple(improved))
    d_sets = _sets_at_fixed_point(form, nums, den, q)
    if d_sets is None:
        raise AssertionError("policy iteration ended on a non-fixed point")
    return OptSets(v, d_sets)


def optimal_set(mdp: Mdp, alpha: Fraction) -> OptSets:
    """Infinite-horizon value and the set of optimal decision rules.

    Runs exact policy iteration from the reward-greedy rule (per state, the
    lowest-index action of largest reward, the horizon-1 rule of zero
    terminal reward, which costs no pass), with lexicographic tie-breaking,
    verifies the optimality equation, and reads the optimal set off the
    per-state argmax.
    """
    if not (0 <= alpha < 1):
        raise ValueError("discount factor must lie in [0, 1)")
    form = _integer_form(mdp, alpha)
    return _policy_iteration(mdp, alpha, form, _reward_greedy_rule(form))


def rolling_horizon_policy(mdp: Mdp, alpha: Fraction, n: int) -> MarkovPrefix:
    """n-horizon optimal Markov policy built from first-step-optimal rules of
    decreasing horizons (lexicographically smallest member at each step)."""
    if n < 1:
        raise ValueError("horizon must be positive")
    steps = value_iteration(mdp, alpha, n)
    prefix = MarkovPrefix(
        tuple(smallest_rule(steps[n - i].first_step) for i in range(n))
    )
    if evaluate_markov(mdp, prefix, alpha, n).values != steps[n].value.values:
        raise AssertionError("rolling-horizon policy is not n-horizon optimal")
    return prefix
