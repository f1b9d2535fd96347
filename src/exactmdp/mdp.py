"""Finite discounted MDP model with exact rational data.

States and actions are referred to by index throughout the numeric layers;
names are kept on the model for reporting.  All probabilities, rewards and
terminal rewards are `fractions.Fraction` end to end -- no floats are accepted
anywhere, since break-point detection relies on exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, product
from operator import itemgetter
from typing import Sequence, Sized

from .limits import CapExceededError, enumeration_cap


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not accepted; use Fraction or int")
    return Fraction(x)


def mat_vec(p: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact product of a square matrix and a vector, of Fractions or ints."""
    return tuple(sum(pij * v[j] for j, pij in enumerate(row)) for row in p)


@dataclass(frozen=True, order=True)
class DecisionRule:
    """A per-state choice of action, stored as action indices.

    Rules compare lexicographically on their index tuple; this is the
    canonical ordering used for enumeration, tie-breaking and reports.
    """

    choices: tuple[int, ...]

    def action(self, state_index: int) -> int:
        return self.choices[state_index]


@dataclass(frozen=True)
class MarkovPrefix:
    """A finite sequence of decision rules, optionally followed by a
    stationary tail rule."""

    rules: tuple[DecisionRule, ...]
    tail: DecisionRule | None = None

    def __post_init__(self):
        if not self.rules and self.tail is None:
            raise ValueError("MarkovPrefix needs at least one rule or a tail")

    def rule_at(self, t: int) -> DecisionRule:
        if t < len(self.rules):
            return self.rules[t]
        if self.tail is not None:
            return self.tail
        raise InsufficientRulesError(
            f"prefix has {len(self.rules)} rules and no tail; step {t} requested"
        )


class InsufficientRulesError(ValueError):
    pass


@dataclass(frozen=True)
class Spreads:
    """Reward spreads and the balancing offsets that minimize them."""

    r1: Fraction
    r2: Fraction
    r: Fraction
    f1: Fraction
    f2: Fraction
    r1_star: Fraction
    r2_star: Fraction
    r_star: Fraction


@dataclass(frozen=True)
class IntegerTable:
    """An MDP's data scaled to integers, independent of the discount.

    ``scale`` is L, the lcm of every reward and transition denominator;
    ``rewards[i][k]`` is L*r(i, k) and ``rows[i][k]`` lists the nonzero
    (j, L*P(i, k, j)).
    """

    scale: int
    rewards: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]


@dataclass(frozen=True)
class Violation:
    code: str
    state: str | None = None
    action: str | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class Mdp:
    """Finite MDP: states, per-state actions, transition rows, one-step and
    terminal rewards, all exact rationals.

    transitions[i][k] is the probability row over states for taking action k
    at state i; rewards[i][k] the corresponding one-step reward.
    """

    states: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    transitions: tuple[tuple[tuple[Fraction, ...], ...], ...]
    rewards: tuple[tuple[Fraction, ...], ...]
    terminal: tuple[Fraction, ...]

    def __post_init__(self):
        m = len(self.states)
        if m == 0:
            raise ValueError("MDP needs at least one state")
        if not (len(self.actions) == len(self.transitions) == len(self.rewards) == m):
            raise ValueError("per-state tables must align with the state list")
        if len(self.terminal) != m:
            raise ValueError("terminal reward vector length mismatch")
        for i in range(m):
            if len(self.transitions[i]) != len(self.actions[i]) or len(
                self.rewards[i]
            ) != len(self.actions[i]):
                raise ValueError(f"action tables misaligned at state {self.states[i]}")
            for row in self.transitions[i]:
                if len(row) != m:
                    raise ValueError("transition row length mismatch")

    @property
    def m(self) -> int:
        return len(self.states)

    @cached_property
    def integer_table(self) -> IntegerTable:
        """``build_integer_table(self)``, once per model (kept in its dict)."""
        return build_integer_table(self)

    @cached_property
    def reward_spreads(self) -> Spreads:
        return spreads(self)

    def action_count(self, i: int) -> int:
        return len(self.actions[i])

    def transition_matrix(self, rule: DecisionRule) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(self.transitions[i][rule.action(i)] for i in range(self.m))

    def reward_vector(self, rule: DecisionRule) -> tuple[Fraction, ...]:
        return tuple(self.rewards[i][rule.action(i)] for i in range(self.m))

    def with_terminal(self, terminal: Sequence[Fraction]) -> "Mdp":
        return Mdp(
            self.states,
            self.actions,
            self.transitions,
            self.rewards,
            tuple(_frac(t) for t in terminal),
        )


def validate(mdp: Mdp) -> ValidationReport:
    """Check the semantic invariants; violations are returned as data.

    Rows are read from the integer table: w = L·p is in range when
    0 <= w <= L, a row sums to 1 when its w sum to L, and the table drops
    only zeros.  Details are Fraction(w, L), as reduced as p itself."""
    violations: list[Violation] = []
    seen_states = set()
    for s in mdp.states:
        if s in seen_states:
            violations.append(Violation("duplicate-state", state=s))
        seen_states.add(s)
    table = mdp.integer_table
    scale = table.scale
    for i, s in enumerate(mdp.states):
        if mdp.action_count(i) == 0:
            violations.append(Violation("empty-action-set", state=s))
        seen_actions = set()
        for k, a in enumerate(mdp.actions[i]):
            if a in seen_actions:
                violations.append(Violation("duplicate-action", state=s, action=a))
            seen_actions.add(a)
            row = table.rows[i][k]
            for _, w in row:
                if w < 0 or w > scale:
                    violations.append(
                        Violation(
                            "probability-out-of-range",
                            state=s,
                            action=a,
                            detail=str(Fraction(w, scale)),
                        )
                    )
                    break
            total = sum(w for _, w in row)
            if total != scale:
                violations.append(
                    Violation(
                        "row-sum-not-one",
                        state=s,
                        action=a,
                        detail=str(Fraction(total, scale)),
                    )
                )
    return ValidationReport(ok=not violations, violations=tuple(violations))


def count_rules(per_state: Sequence[Sized]) -> int:
    """Number of decision rules in the product of per-state action choices."""
    return math.prod(len(s) for s in per_state)


def capped_rule_count(per_state: Sequence[Sized]) -> int:
    """``count_rules(per_state)``; raises ``CapExceededError`` past the
    enumeration cap."""
    count, cap = count_rules(per_state), enumeration_cap()
    if count > cap:
        raise CapExceededError("enumeration", count, cap)
    return count


def enumerate_decision_rules(mdp: Mdp) -> list[DecisionRule]:
    """All decision rules in lexicographic order of per-state action indices."""
    ranges = [range(mdp.action_count(i)) for i in range(mdp.m)]
    capped_rule_count(ranges)
    return [DecisionRule(choices) for choices in product(*ranges)]


def build_integer_table(mdp: Mdp) -> IntegerTable:
    """L and L·x once per distinct entry object (a loaded document shares one
    per distinct rational string); rows by lookup, nonzero (j, L·p) by ``filter``."""
    entries = [*chain(*mdp.rewards), *chain.from_iterable(chain(*mdp.transitions))]
    ids = list(map(id, entries))
    distinct = dict(zip(ids, entries))
    scale = math.lcm(*(x.denominator for x in distinct.values()))
    scaled = {key: x.numerator * (scale // x.denominator) for key, x in distinct.items()}
    ws = map(scaled.__getitem__, ids)  # L·x for every entry, in the order of entries
    rewards = tuple(tuple(islice(ws, len(row))) for row in mdp.rewards)
    rows = tuple(
        tuple(tuple(filter(itemgetter(1), enumerate(islice(ws, len(row))))) for row in acts)
        for acts in mdp.transitions
    )
    return IntegerTable(scale, rewards, rows)


def spreads(mdp: Mdp) -> Spreads:
    all_rewards = [r for row in mdp.rewards for r in row]
    hi1, lo1 = max(all_rewards), min(all_rewards)
    hi2, lo2 = max(mdp.terminal), min(mdp.terminal)
    # max |x| = max(max x, -min x)
    r1, r2 = max(hi1, -lo1), max(hi2, -lo2)
    f1, f2 = (hi1 + lo1) / 2, (hi2 + lo2) / 2
    r1_star = r1 - abs(f1)
    r2_star = r2 - abs(f2)
    return Spreads(
        r1=r1,
        r2=r2,
        r=max(r1, r2),
        f1=f1,
        f2=f2,
        r1_star=r1_star,
        r2_star=r2_star,
        r_star=max(r1_star, r2_star),
    )


def balance(mdp: Mdp) -> tuple[Mdp, Spreads]:
    """Shift one-step rewards by -F1 and terminal rewards by -F2.

    Optimal-policy structure at every horizon is unchanged; the returned
    spreads are those of the balanced model (so its R equals its R*).
    """
    sp = mdp.reward_spreads
    balanced = Mdp(
        mdp.states,
        mdp.actions,
        mdp.transitions,
        tuple(tuple(r - sp.f1 for r in row) for row in mdp.rewards),
        tuple(t - sp.f2 for t in mdp.terminal),
    )
    return balanced, balanced.reward_spreads
