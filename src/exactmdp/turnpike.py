"""Turnpike horizons with soundness certificates.

The turnpike integer N(alpha) is the smallest horizon from which value
iteration emits only infinite-horizon-optimal first-step rules.  Two
horizons bound the work of deciding it:

- The a-priori certificate horizon K is the first k at which
  2 * alpha^(k+1) * (R1 / (1 - alpha) + R2) falls below the suboptimality
  gap (the smallest optimality-equation defect of any suboptimal action),
  from the contraction bound on ||V* - V_n||.  It is known before any
  iteration and is what ``certificate_horizon`` reports.  It is read off
  log(a/b) / log1p((q - p)/p) for the integers a, b of the inequality at
  alpha = p/q, under an explicit floating-point error bound; exact integer
  products run only where that bound leaves two candidates.
- Value iteration itself stops at the first n <= K at which the exact span
  test alpha * sp(V_n - V*) < gap holds, sp(w) = max w - min w.  For a
  suboptimal action k and an optimal k* at state i,
  Q_(n+1)(i, k) - Q_(n+1)(i, k*) = -delta(i, k) + alpha (P_k - P_k*)(V_n - V*)
  <= -delta + alpha * sp(V_n - V*) < 0, and sp(T V - T V*) <= alpha *
  sp(V - V*) keeps the test true at every later horizon, so no horizon
  after n emits a suboptimal first-step rule.  Since
  alpha * sp(V_K - V*) <= 2 * alpha^(K+1) * (R1 / (1 - alpha) + R2), the
  test holds by n = K at the latest, and N is the one the exhaustive check
  up to K gives.

D(alpha) and V*(alpha) come from exact policy iteration, except where the
caller holds the canonical partition: the interval maps, the cover, ``sweep``,
the condition checks and the small-discount checks pass it, and D and V* are
read off it and certified by one Q pass (``PartitionReport.optimal_at``).
On the pointwise path (no partition) value iteration runs its
first three horizons before policy iteration, which starts from the smallest
rule of D_3, the horizon-3 first-step set: a rolling-horizon rule, optimal
from horizon N on, so it often needs fewer exact solves than a cold start.
The turnpike loop then reads horizons 1-3 from those same steps.  D and V*
are unique, so the start changes no result.

This module keeps N, K, the certificate audit and ``turnpike_intervals``,
the entry point of the interval map.  The map itself and the cover
(``TurnpikeIntervalMap``, ``turnpike_cover``) live in ``turnpikemap``, which
``turnpike_intervals`` imports where it runs, so pointwise work never loads
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .bellman import (
    ActionSets,
    OptSets,
    _QPass,
    _integer_form,
    _ints_of,
    _policy_iteration,
    _step,
    optimal_set,
    product_subset,
    smallest_rule,
    value_iteration,
)
from .mdp import DecisionRule, Mdp, balance

if TYPE_CHECKING:
    # partition and turnpikemap are imported where they run, so the pointwise
    # path never loads them
    from .partition import PartitionReport
    from .turnpikemap import TurnpikeIntervalMap


# Value-iteration horizons run before policy iteration on the pointwise path:
# D_3's smallest rule is the start, and the turnpike loop reuses the steps.
# Longer prefixes save few policy rounds for their extra steps; inside
# ``optimal_set`` alone, which has no loop to reuse them, even these cost
# more than they save on small models.
_WARM_HORIZONS = 3

# one value-iteration step: the next (nums, den) and the argmax sets
_Step = tuple[tuple[list[int], int], ActionSets]


class AllRulesOptimalError(ValueError):
    """Every decision rule is optimal; there is no suboptimality gap."""


def suboptimality_gap(mdp: Mdp, alpha: Fraction) -> Fraction:
    """Smallest worst-state optimality-equation defect over suboptimal rules.

    Decomposes per state-action pair: the minimizing suboptimal rule takes a
    single non-optimal action of smallest positive defect and optimal actions
    elsewhere, so the gap equals the smallest positive defect of any action.
    """
    if not (0 < alpha < 1):
        raise ValueError("gap is defined for discount factors in (0, 1)")
    return _gap(optimal_set(mdp, alpha).q_pass)


def _gap(certified: _QPass) -> Fraction:
    """Smallest positive defect V*(i) - Q(i, k), read off the integer
    Q-values of the pass that certified V*."""
    lq = certified.form.table.scale * certified.form.q
    positives = [
        v * lq - x
        for v, row in zip(certified.nums, certified.q)
        for x in row
        if v * lq > x
    ]
    if not positives:
        raise AllRulesOptimalError("all decision rules are optimal at this discount")
    return Fraction(min(positives), lq * certified.den)


@dataclass(frozen=True)
class TurnpikeResult:
    alpha: Fraction
    n_value: int
    certificate_horizon: int
    gap: Fraction | None
    witness: DecisionRule | None
    d_alpha_sets: ActionSets
    # horizons value iteration actually ran before the span test stopped it
    horizons_checked: int = 0


def turnpike_integer(
    mdp: Mdp, alpha: Fraction, part: PartitionReport | None = None
) -> TurnpikeResult:
    """N(alpha) together with the a-priori certificate horizon K.

    Given ``part``, the canonical partition of mdp, D(alpha) and V*(alpha)
    are read off it (``PartitionReport.optimal_at``) instead of solved.
    Without it, policy iteration starts from the smallest rule of value
    iteration's horizon-3 first-step set, and the loop below reuses those
    three steps.

    K uses the balanced spreads R1* and R2*, which ``spreads`` gives for the
    model as it stands.  Nothing else depends on balancing: shifting rewards
    changes neither the first-step sets, the gap, nor the span of V_n - V*,
    so the model is iterated unshifted.  The convergence constant is the
    contraction bound ||V - V_n|| <= alpha^n (R1/(1-alpha) + R2); the
    terminal-spread term cannot be dropped when terminal rewards are nonzero.
    Value iteration runs horizon by horizon on integer numerators over one
    denominator and stops at the first n <= K with
    alpha * sp(V_n - V*) < gap, compared exactly: from there on every
    suboptimal action trails an optimal one by more than
    alpha * sp(V_n - V*), and the span contracts by alpha per step (see the
    module docstring).  N is one past the last failing horizon seen.
    """
    if not (0 <= alpha < 1):
        raise ValueError("discount factor must lie in [0, 1)")
    if part is not None:
        return _turnpike_at(mdp, part.optimal_at(mdp, alpha))
    form = _integer_form(mdp, alpha)
    steps, (nums, den) = [], _ints_of(mdp.terminal)
    for _ in range(_WARM_HORIZONS):
        (nums, den), sets = _step(form, nums, den)
        steps.append(((nums, den), sets))
    opt = _policy_iteration(alpha, form, smallest_rule(steps[-1][1]))
    return _turnpike_at(mdp, opt, steps)


def _turnpike_at(
    mdp: Mdp, opt: OptSets, steps: Sequence[_Step] = ()
) -> TurnpikeResult:
    """`turnpike_integer` at the discount of opt, given D and V* there with
    the Q pass that certified them (``opt.q_pass``, which ``optimal_set``
    and ``PartitionReport.optimal_at`` keep): the gap is read off that pass.

    ``steps`` holds the value-iteration steps of horizons 1, 2, ... that the
    caller has already taken from the terminal vector; the loop reads them
    in place of recomputing them.
    """
    alpha = opt.v_alpha.alpha
    if alpha == 0:
        return TurnpikeResult(alpha, 1, 0, None, None, opt.d_alpha_sets)
    certified = opt.q_pass
    form, v_star, e = certified.form, certified.nums, certified.den
    try:
        gap = _gap(certified)
    except AllRulesOptimalError:
        return TurnpikeResult(alpha, 1, 0, None, None, opt.d_alpha_sets)
    p, q = form.p, form.q
    g_num, g_den = gap.numerator, gap.denominator
    sp = mdp.reward_spreads
    c = sp.r1_star / (1 - alpha) + sp.r2_star
    # K is the first k with 2 * alpha^(k+1) * c < gap
    k_cert = _first_power_below(2 * p * c.numerator * g_den, g_num * c.denominator * q, p, q)
    nums, den = _ints_of(mdp.terminal)
    n_value, failed_sets = 1, None
    horizon = 0
    while horizon < k_cert:
        # alpha * sp(V_n - V*) < gap, with V_n - V* = diff / (den * e)
        diff = [x * e - v * den for x, v in zip(nums, v_star)]
        if p * (max(diff) - min(diff)) * g_den < g_num * q * den * e:
            break
        if horizon < len(steps):
            (nums, den), sets = steps[horizon]
        else:
            (nums, den), sets = _step(form, nums, den)
        horizon += 1
        if not product_subset(sets, opt.d_alpha_sets):
            n_value, failed_sets = horizon + 1, sets
    witness = None
    if failed_sets is not None:
        # smallest failing rule with a non-optimal action at the first such state
        bad = next(
            i for i, (f, d) in enumerate(zip(failed_sets, opt.d_alpha_sets)) if f - d
        )
        leaving = failed_sets[bad] - opt.d_alpha_sets[bad]
        witness = smallest_rule(failed_sets[:bad] + (leaving,) + failed_sets[bad + 1 :])
    return TurnpikeResult(
        alpha, n_value, k_cert, gap, witness, opt.d_alpha_sets, horizon
    )


def _first_power_below(a: int, b: int, p: int, q: int) -> int:
    """The first k >= 0 with a * p^k < b * q^k, for a >= 0, b > 0 and
    0 < p < q: floor(t) + 1 with t = log(a/b) / log(q/p) once a >= b.  For
    1/2 < p/q < 1 - 2^-1000, t is bracketed in floating point: each logarithm
    (of an int, or ``log1p`` of the rounded, normal (q - p)/p) is within
    2^-50 * (1 + |value|) of the exact one, so the slack 2^-40 on the
    numerator's logs and on the quotient covers them and the bracket's own
    roundings.  Exact products decide from the bracket's low end where its
    two ends give different k, and from 0 at p/q <= 1/2 (k <= log2(a/b) + 1).
    """
    k = 0
    if a >= b and 2 * p > q and (q - p) << 1000 > p:
        la, lb = math.log(a), math.log(b)
        slack, den = 2.0**-40 * (2 + abs(la) + abs(lb)), math.log1p((q - p) / p)
        k = max(1, math.floor((la - lb - slack) / den * (1 - 2.0**-40)) + 1)
        if k == math.floor((la - lb + slack) / den * (1 + 2.0**-40)) + 1:
            return k
    lhs, rhs = a * p**k, b * q**k
    while lhs >= rhs:
        k += 1
        lhs *= p
        rhs *= q
    return k


def certificate_audit(mdp: Mdp, result: TurnpikeResult, extra: int = 5) -> bool:
    """Re-run exact value iteration past the certificate horizon and confirm
    no first-step set escapes the optimal set at or beyond N(alpha)."""
    if extra < 0:
        raise ValueError("extra horizons must be non-negative")
    bal, _ = balance(mdp)
    opt = optimal_set(bal, result.alpha)
    trace = value_iteration(bal, result.alpha, result.certificate_horizon + extra)
    for step in trace[1:]:
        ok = product_subset(step.first_step, opt.d_alpha_sets)
        if step.horizon >= result.n_value and not ok:
            return False
        if step.horizon == result.n_value - 1 and result.n_value >= 2 and ok:
            return False
    return True


def _check_n_cap(n_cap: int) -> None:
    if n_cap < 1:
        raise ValueError("n_cap must be at least 1")


def turnpike_intervals(
    mdp: Mdp, lo: Fraction, hi: Fraction, n_cap: int = 16
) -> TurnpikeIntervalMap:
    """Decompose [lo, hi] into maximal intervals of constant N.

    Candidate discontinuity points are the irregular points plus the
    first-step irregular points of horizons below n_cap; N is evaluated once
    per gap (it is constant there) and at each rational candidate.  If some
    evaluation reaches N >= n_cap the map is returned flagged partial, since
    candidate completeness is then no longer certified.  Every span end and
    indeterminate point lies in [lo, hi].

    Candidates are gathered in [lo, hi] widened by (hi - lo) / 8 on each
    side, so that one-sided limits exist at the interval's own candidate
    points.
    """
    if not (0 <= lo < hi < 1):
        raise ValueError("interval must satisfy 0 <= lo < hi < 1")
    _check_n_cap(n_cap)
    from .partition import canonical_partition, symbolic_value_iteration
    from .turnpikemap import _interval_map

    part = canonical_partition(mdp)
    levels = symbolic_value_iteration(mdp, n_cap - 1)
    return _interval_map(mdp, lo, hi, n_cap, (hi - lo) / 8, part, levels)
