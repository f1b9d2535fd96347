"""Finite certificates for equality of pushforward sequences and of value
functions across all discount factors.

The horizon bound G(rule, v) is the largest t such that the family
{1, v, Pv, ..., P^(t-2) v} is linearly independent; agreement of two
pushforward sequences up to min(G1, G2) - 1 certifies agreement for every t.
Since G <= m, `pushforwards_equal` compares t < m without computing G.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

from .mdp import DecisionRule, Mdp, mat_vec

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class GValue:
    value: int
    witness_basis: tuple[Vector, ...]


class _ExactBasis:
    """Incremental row basis over the rationals (Gaussian elimination)."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def try_add(self, v: Vector) -> bool:
        """Add v if independent of the current span; report whether it was."""
        w = [Fraction(x) for x in v]
        for row, piv in zip(self.rows, self.pivots):
            if w[piv] != 0:
                factor = w[piv] / row[piv]
                for j in range(self.dim):
                    w[j] -= factor * row[j]
        pivot = next((j for j in range(self.dim) if w[j] != 0), None)
        if pivot is None:
            return False
        self.rows.append(w)
        self.pivots.append(pivot)
        return True


def compute_G(mdp: Mdp, rule: DecisionRule, v: Sequence[Fraction]) -> GValue:
    """Largest t with {1, v, Pv, ..., P^(t-2) v} linearly independent."""
    m = mdp.m
    if len(v) != m:
        raise ValueError("vector length must equal the state count")
    if m == 1:
        return GValue(1, (tuple(Fraction(1) for _ in range(m)),))
    ones = tuple(Fraction(1) for _ in range(m))
    basis = _ExactBasis(m)
    basis.try_add(ones)
    family: list[Vector] = [ones]
    p = mdp.transition_matrix(rule)
    w = tuple(Fraction(x) for x in v)
    g = 1
    while g < m:
        if not basis.try_add(w):
            break
        family.append(w)
        g += 1
        w = mat_vec(p, w)
    return GValue(g, tuple(family))


def pushforwards_equal(
    mdp: Mdp,
    rule1: DecisionRule,
    v1: Sequence[Fraction],
    rule2: DecisionRule,
    v2: Sequence[Fraction],
) -> bool:
    """True iff P^t(rule1) v1 = P^t(rule2) v2 for every t >= 0.

    Only t < m is checked: agreement up to min(G(rule1, v1), G(rule2, v2)) - 1
    certifies all larger t, and G <= m.
    """
    if len(v1) != mdp.m or len(v2) != mdp.m:
        raise ValueError("vector length must equal the state count")
    p1 = mdp.transition_matrix(rule1)
    p2 = mdp.transition_matrix(rule2)
    a = tuple(Fraction(x) for x in v1)
    b = tuple(Fraction(x) for x in v2)
    for _ in range(mdp.m):
        if a != b:
            return False
        a = mat_vec(p1, a)
        b = mat_vec(p2, b)
    return True


def same_pushforwards(
    mdp: Mdp, rule1: DecisionRule, rule2: DecisionRule
) -> Callable[[Sequence[Fraction]], bool]:
    """The test w -> pushforwards_equal(mdp, rule1, w, rule2, w), built once
    for the pair.

    The set S = {w : P1^t w = P2^t w for every t} is the common kernel of
    the rows of P1^t - P2^t for t = 1 .. m-1, which is what
    pushforwards_equal(w, w) compares.  Agreement for t < m suffices because
    it covers t < g with g = min(G1, G2) <= m: say g = G1 <= G2.  If
    g < m, P1^(g-1) w is dependent on {1, w, ..., P1^(g-2) w}; if g = m,
    those m vectors are a basis.  Either way
    P1^(g-1) w = c·1 + sum_(i < g-1) c_i P1^i w.  Agreement for t < g carries
    this relation to the P2 sequence, and P1 1 = P2 1 = 1, so applying P1^s
    and P2^s shows that both sequences follow one recurrence from the same
    start.  They then agree for every t, so w is in S.  The rows are kept
    as the nonzero rows of (L*P1)^t - (L*P2)^t over the integer table, so a
    test is integer dot products with w over a common denominator.
    """
    m, table = mdp.m, mdp.integer_table

    def powers(rule: DecisionRule) -> Iterator[list[list[int]]]:
        rows = [table.rows[i][k] for i, k in enumerate(rule.choices)]
        power = [[int(i == j) for j in range(m)] for i in range(m)]
        for _ in range(1, m):
            power = [
                [sum(lp * power[j][c] for j, lp in row) for c in range(m)]
                for row in rows
            ]
            yield power

    kernel = [
        tuple(map(sub, a, b))
        for p1, p2 in zip(powers(rule1), powers(rule2))
        for a, b in zip(p1, p2)
        if a != b
    ]

    def test(w: Sequence[Fraction]) -> bool:
        den = math.lcm(*(x.denominator for x in w))
        nums = [x.numerator * (den // x.denominator) for x in w]
        return all(sum(map(mul, row, nums)) == 0 for row in kernel)

    return test


def values_equal_all_discounts(
    mdp: Mdp, rule1: DecisionRule, rule2: DecisionRule
) -> bool:
    """Do the two stationary policies have identical value functions for
    every discount factor in [0, 1)?"""
    return pushforwards_equal(
        mdp, rule1, mdp.reward_vector(rule1), rule2, mdp.reward_vector(rule2)
    )
