"""Small-discount structure: the nested rule filtration, its stabilization
index, and the explicit discount radii below which it pins down the
optimal-policy behavior.

The filtration compares reward pushforwards of increasing order.  Because
every level is a per-state product of action sets, the whole chain is
computed state by state on a single shared pushforward vector, without
enumerating rules.  The chain stabilizes after at most m - 1 steps, where m
is the number of states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .bellman import ActionSets
from .exactarith import point_position
from .mdp import Mdp, balance, count_rules
from .partition import canonical_partition
from .turnpike import turnpike_integer

INFINITE = None  # C_n before any separation has occurred


@dataclass(frozen=True)
class FiltrationReport:
    """The chain F_{-1} >= F_0 >= ... >= F_L with its separation data.

    c_chain[n] is the smallest positive pushforward gap seen up to order n
    (None while no separation has occurred); delta and delta_tilde are the
    discount radii derived from C_L against the balanced spreads.
    """

    action_chain: tuple[ActionSets, ...]  # F_{-1}, F_0, ..., F_L
    x_chain: tuple[frozenset[int], ...]  # X_0 .. X_L
    l_value: int
    h_value: int
    jump_indices: tuple[int, ...]
    c_chain: tuple[Fraction | None, ...]  # C_0 .. C_L
    delta: Fraction
    delta_tilde: Fraction
    r1_star: Fraction
    r_star: Fraction

    def rules_at(self, n: int) -> ActionSets:
        """F_n as per-state action sets; n = -1 is allowed."""
        return self.action_chain[n + 1]

    def c_at(self, n: int) -> Fraction | None:
        return self.c_chain[min(n, self.l_value)]

    def delta_at(self, n: int) -> Fraction:
        c = self.c_at(n)
        return Fraction(1) if c is None else c / (2 * self.r_star + c)

    def delta_tilde_at(self, n: int) -> Fraction:
        c = self.c_at(n)
        return Fraction(1) if c is None else c / (2 * self.r1_star + c)


def policy_filtration(mdp: Mdp) -> FiltrationReport:
    """Compute the reward-pushforward filtration and its constants.

    Rewards are balanced first; the chain, the separation states and the
    gaps are invariant under that shift, while the radii use the balanced
    spreads directly.
    """
    bal, sp = balance(mdp)
    m = bal.m
    current: list[frozenset[int]] = [
        frozenset(range(bal.action_count(i))) for i in range(m)
    ]
    action_chain: list[ActionSets] = [tuple(current)]
    x_chain: list[frozenset[int]] = []
    c_chain: list[Fraction | None] = []
    c_value: Fraction | None = None
    jump_indices = [0]
    u: tuple[Fraction, ...] | None = None
    l_value = 0
    for n in range(m):
        if n == 0:
            q = [[bal.rewards[i][k] for k in range(bal.action_count(i))] for i in range(m)]
        else:
            q = [
                [
                    sum(
                        (bal.transitions[i][k][j] * u[j] for j in range(m)),
                        Fraction(0),
                    )
                    for k in range(bal.action_count(i))
                ]
                for i in range(m)
            ]
        separated = frozenset(
            i for i in range(m) if len({q[i][k] for k in current[i]}) > 1
        )
        best = [max(q[i][k] for k in current[i]) for i in range(m)]
        for i in separated:
            for k in current[i]:
                gap = best[i] - q[i][k]
                if gap > 0 and (c_value is None or gap < c_value):
                    c_value = gap
        new = [
            frozenset(k for k in current[i] if q[i][k] == best[i])
            for i in range(m)
        ]
        if separated:
            l_value = n
            if n >= 1:
                jump_indices.append(n)
        x_chain.append(separated)
        c_chain.append(c_value)
        current = new
        action_chain.append(tuple(current))
        u = tuple(best)
    # trim the recorded chain at the stabilization index
    action_chain = action_chain[: l_value + 2]
    x_chain = x_chain[: l_value + 1]
    c_chain = c_chain[: l_value + 1]
    jump_indices = [j for j in jump_indices if j <= l_value]
    c_final = c_chain[-1]
    if c_final is None:
        delta = delta_tilde = Fraction(1)
    else:
        delta = c_final / (2 * sp.r_star + c_final)
        delta_tilde = c_final / (2 * sp.r1_star + c_final)
    return FiltrationReport(
        action_chain=tuple(action_chain),
        x_chain=tuple(x_chain),
        l_value=l_value,
        h_value=len(jump_indices) - 1,
        jump_indices=tuple(jump_indices),
        c_chain=tuple(c_chain),
        delta=delta,
        delta_tilde=delta_tilde,
        r1_star=sp.r1_star,
        r_star=sp.r_star,
    )


def small_discount_constants(
    mdp: Mdp,
) -> tuple[Fraction | None, Fraction, Fraction]:
    """(C_L, Delta_L, Delta~_L); C_L is None when all rules share every
    reward pushforward, in which case both radii degenerate to 1."""
    rep = policy_filtration(mdp)
    return rep.c_chain[-1], rep.delta, rep.delta_tilde


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SmallDiscountChecks:
    outcomes: tuple[CheckOutcome, ...]
    filtration: FiltrationReport  # the filtration the outcomes checked

    @property
    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)


def _grid(hi: Fraction, count: int) -> list[Fraction]:
    return [hi * Fraction(i, count + 1) for i in range(1, count + 1)]


def small_discount_checks(mdp: Mdp, grid: int = 20) -> SmallDiscountChecks:
    """Spot-check the small-discount predictions against direct computation.

    Failures would indicate an implementation fault, not a property of the
    input, so they are reported as findings with witnesses.  D(alpha) and
    N(alpha) at each distinct grid point are computed once, with D and V*
    read off the canonical partition and certified there.
    """
    if grid < 1:
        raise ValueError("grid must have at least one point")
    rep = policy_filtration(mdp)
    part = canonical_partition(mdp)
    outcomes: list[CheckOutcome] = []
    at = functools.cache(lambda alpha: turnpike_integer(mdp, alpha, part))
    d0 = at(Fraction(0)).d_alpha_sets
    f0 = rep.rules_at(0)
    outcomes.append(
        CheckOutcome(
            "level0-matches-alpha0-optimal",
            d0 == f0,
            f"|F0|={count_rules(f0)}, |D(0)|={count_rules(d0)}",
        )
    )

    fl = rep.rules_at(rep.l_value)
    bad = []
    for alpha in _grid(rep.delta_tilde, grid):
        if at(alpha).d_alpha_sets != fl:
            bad.append(alpha)
    outcomes.append(
        CheckOutcome(
            "stable-level-matches-optimal-below-radius",
            not bad,
            f"failures at {bad}" if bad else f"{grid} points below {rep.delta_tilde}",
        )
    )

    positive = [
        ip for ip in part.irregular_points if point_position(ip.point)[1] > 0
    ]
    if positive:
        first = positive[0].point
        if isinstance(first, Fraction):
            ok = first >= rep.delta_tilde
            where = str(first)
        else:
            root = first.excluding(rep.delta_tilde)
            ok = root.lo >= rep.delta_tilde
            where = f"({root.lo}, {root.hi})"
        outcomes.append(
            CheckOutcome(
                "first-irregular-point-at-or-beyond-radius",
                ok,
                f"first irregular point {where}, radius {rep.delta_tilde}",
            )
        )
    else:
        outcomes.append(
            CheckOutcome(
                "first-irregular-point-at-or-beyond-radius",
                True,
                "no positive irregular points",
            )
        )

    bad = []
    for alpha in _grid(rep.delta, grid):
        n = at(alpha).n_value
        if n > rep.l_value + 1:
            bad.append((alpha, n))
    outcomes.append(
        CheckOutcome(
            "turnpike-bounded-by-stabilization-index",
            not bad,
            f"violations {bad}" if bad else f"N <= {rep.l_value + 1} on the grid",
        )
    )

    zero_regular = not any(
        isinstance(ip.point, Fraction) and ip.point == 0
        for ip in part.irregular_points
    )
    if zero_regular:
        delta0 = rep.delta_at(0)
        bad = []
        for alpha in [Fraction(0)] + _grid(delta0, grid):
            if alpha >= delta0:
                continue
            n = at(alpha).n_value
            if n != 1:
                bad.append((alpha, n))
        outcomes.append(
            CheckOutcome(
                "immediate-turnpike-when-zero-regular",
                not bad,
                f"violations {bad}" if bad else f"N = 1 below {delta0}",
            )
        )
    else:
        outcomes.append(
            CheckOutcome(
                "immediate-turnpike-when-zero-regular",
                True,
                "0 is an irregular point; check not applicable",
            )
        )
    return SmallDiscountChecks(tuple(outcomes), rep)
