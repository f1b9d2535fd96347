"""The condition layer's `Fraction` matrix-product references, frozen.

``derivative_difference`` once formed the transition products of the
continuation with ``_mat_mul`` from ``_identity`` and weighted each horizon's
reward by t·alpha^(t-1) (``_finite_value_derivative`` for a finite horizon,
a polynomial head plus the stationary tail's value and slopes for n None).
``pushforwards_equal`` once ran two ``compute_G`` eliminations and compared
t < min(G1, G2).  The library now reads both off the methods its checks use:
condition B's tail-vector recursion and the m-step bound of condition A's
kernel.  These copies are kept verbatim as independent references, with
``compute_G``, its ``GValue`` result and the ``_ExactBasis`` elimination it
runs, which no library path calls any more.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from exactmdp.mdp import DecisionRule, MarkovPrefix, Mdp, mat_vec
from exactmdp.polyarith import _value_solve, value_slopes, values_at

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


def _mat_mul(a, b, m):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m))
        for i in range(m)
    )


def _identity(m):
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def derivative_difference(
    mdp: Mdp,
    phi: DecisionRule,
    psi: DecisionRule,
    prefix: MarkovPrefix,
    alpha_star: Fraction,
    n: int | None,
) -> Vector:
    """Exact per-state derivative, at alpha_star, of the value difference
    between playing phi versus psi first and the given prefix afterwards.

    With n None the infinite-horizon difference is differentiated; this
    requires the prefix to end in a stationary tail.
    """
    m = mdp.m
    if n is not None:
        if n < 0:
            raise ValueError("horizon must be non-negative")
        d1 = _finite_value_derivative(mdp, phi, prefix, alpha_star, n)
        d2 = _finite_value_derivative(mdp, psi, prefix, alpha_star, n)
        return tuple(a - b for a, b in zip(d1, d2))
    if prefix.tail is None:
        raise ValueError("infinite-horizon derivative needs a stationary tail")

    def _symbolic(first: DecisionRule):
        # polynomial head of the reward stream and the transition product
        head_rules = [first, *prefix.rules]
        coeffs: list[Vector] = []
        p = _identity(m)
        for rule in head_rules:
            coeffs.append(mat_vec(p, mdp.reward_vector(rule)))
            p = _mat_mul(p, mdp.transition_matrix(rule), m)
        return coeffs, p

    c1, p1 = _symbolic(phi)
    c2, p2 = _symbolic(psi)
    tail = _value_solve(mdp, prefix.tail)
    horizon = len(c1)
    out = []
    a = alpha_star
    nums, den = values_at(tail, a)
    tail_vals = tuple(Fraction(v, den) for v in nums)
    tail_derivs = value_slopes(tail, a)
    for x in range(m):
        val = Fraction(0)
        for t in range(1, horizon):
            val += t * a ** (t - 1) * (c1[t][x] - c2[t][x])
        head = horizon * a ** (horizon - 1)
        p_diff_v = sum(
            (p1[x][j] - p2[x][j]) * tail_vals[j] for j in range(m)
        )
        p_diff_dv = sum(
            (p1[x][j] - p2[x][j]) * tail_derivs[j] for j in range(m)
        )
        val += head * p_diff_v + a**horizon * p_diff_dv
        out.append(val)
    return tuple(out)


def _finite_value_derivative(
    mdp: Mdp, first: DecisionRule, prefix: MarkovPrefix, alpha: Fraction, n: int
) -> Vector:
    """Derivative of the n-horizon value of (first, prefix...) at alpha,
    terminal rewards included."""
    m = mdp.m
    deriv = [Fraction(0)] * m
    p = _identity(m)
    for t in range(n):
        rule = first if t == 0 else prefix.rule_at(t - 1)
        if t >= 1:
            c_t = mat_vec(p, mdp.reward_vector(rule))
            w = t * alpha ** (t - 1)
            for x in range(m):
                deriv[x] += w * c_t[x]
        p = _mat_mul(p, mdp.transition_matrix(rule), m)
    if n >= 1:
        term = mat_vec(p, tuple(mdp.terminal))
        w = n * alpha ** (n - 1)
        for x in range(m):
            deriv[x] += w * term[x]
    return tuple(deriv)



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
