"""Finite certificates for equality of pushforward sequences and of value
functions across all discount factors.

The horizon bound G(rule, v) is the largest t such that the family
{1, v, Pv, ..., P^(t-2) v} is linearly independent; agreement of two
pushforward sequences up to min(G1, G2) - 1 certifies agreement for every t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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

    Only t up to min(G(rule1, v1), G(rule2, v2)) - 1 is checked; that bound
    certifies all larger t.
    """
    g = min(compute_G(mdp, rule1, v1).value, compute_G(mdp, rule2, v2).value)
    p1 = mdp.transition_matrix(rule1)
    p2 = mdp.transition_matrix(rule2)
    a = tuple(Fraction(x) for x in v1)
    b = tuple(Fraction(x) for x in v2)
    for _ in range(g):
        if a != b:
            return False
        a = mat_vec(p1, a)
        b = mat_vec(p2, b)
    return True


def values_equal_all_discounts(
    mdp: Mdp, rule1: DecisionRule, rule2: DecisionRule
) -> bool:
    """Do the two stationary policies have identical value functions for
    every discount factor in [0, 1)?"""
    return pushforwards_equal(
        mdp, rule1, mdp.reward_vector(rule1), rule2, mdp.reward_vector(rule2)
    )
