"""Boundedness analysis of the turnpike function near an irregular point.

Two families of conditions are checked at an irregular discount factor:

- A-conditions: some one-side-optimal rule stays first-step-optimal at the
  point for every large horizon.  With singleton one-sided sets these are
  verified jointly through a finite pushforward-equality certificate on
  the value-iteration residual; otherwise only definition-window evidence
  is reported.  The certificate's pushforward kernel depends only on the
  rule pair, so it is built once (``equivalence.same_pushforwards``) and
  each horizon's residual is tested against it.
- B-conditions: the one-side-optimal rules strictly dominate, to first
  order in the discount factor, every other optimal rule, uniformly over
  continuations drawn from the optimal set.  Verified with terminal
  rewards zeroed by comparing exact finite-horizon derivatives against an
  explicit tail bound; a tangency of value-function derivatives refutes
  them outright (``polyarith.value_slopes`` differentiates each rule's
  solve (N, Delta)).  The derivatives of all continuation prefixes are kept
  in one table that grows a level per horizon.  It is built from tail
  vectors: a prefix (first, tail) has derivative P_first·U(tail), with
  U = W + alpha·W' for the tail's value W, and putting a rule in front of a
  tail updates W and U with one matrix-vector step each, so no transition
  product is formed.  A level holds integer numerators over one
  denominator, built from the MDP's integer table, so no step reduces a
  fraction.  Both sides draw their prefixes from the same optimal set, so a
  boundedness verdict reads B- and B+ from one table.

A verdict reads D(alpha-), D(alpha), D(alpha+) off one canonical partition,
and both sides of A share one value-iteration trace and certificate search.
D and V* at the point and at every turnpike sample are read off that
partition too (``PartitionReport.optimal_at``), so no check runs policy
iteration.

A side is declared bounded when its A- and B-conditions are certified, or
when the point is within the small-discount radius; growth of sampled
turnpike values is reported as evidence of unboundedness, never as proof.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice
from operator import add, sub

from .bellman import (
    ActionSets,
    rules_from_action_sets,
    smallest_rule,
    value_iteration_steps,
)
from .equivalence import same_pushforwards
from .limits import CapExceededError, prefix_cap
from .mdp import DecisionRule, MarkovPrefix, Mdp, count_rules, mat_vec
from .partition import PartitionReport, canonical_partition, classify
from .polyarith import _value_solve, value_slopes, values_at
from .smalldiscount import policy_filtration
from .turnpike import _turnpike_at, turnpike_integer

Vector = tuple[Fraction, ...]

# Last horizon of condition A's certificate search and definition window,
# and the number of turnpike samples per side that a boundedness verdict
# takes when the conditions do not decide.
A_HORIZON = 24
SAMPLES_PER_SIDE = 6


class NotIrregularError(ValueError):
    pass


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str  # 'A-', 'A+', 'B-', 'B+'
    point: Fraction
    holds: bool | None  # None = inconclusive
    method: str
    horizon_used: int | None = None
    threshold: Fraction | None = None
    extrema: dict | None = None
    window: dict | None = None
    witnesses: dict | None = None


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


def _derivative_levels(
    mdp0: Mdp, rules: list[DecisionRule], alpha: Fraction
) -> Iterator[tuple[list[list[list[int]]], int]]:
    """Yield the condition-B derivative table level by level, K = 0, 1, ...

    Level K holds, for every (first, tail) with |tail| = K and rules drawn
    from `rules`, the derivative at alpha of the (K+1)-horizon value of
    playing first and then tail; mdp0's terminal rewards must be zero.  It
    is yielded state-major as (table, D): table[i][x] lists, over the tails
    in lexicographic order, the numerators over D of state x's derivative
    when first is rules[i].

    A tail t gives every derivative through its value W(t) and
    U(t) = W(t) + alpha·W'(t): (first, t) has derivative P_first·U(t), and
    putting rule r in front of t gives W(r·t) = r_r + alpha·P_r·W(t) and
    U(r·t) = r_r + alpha·P_r·(U(t) + W(t)), from W = U = 0 at the empty
    tail.  So no transition product is formed.  Over the integer table
    (L*P, L*r) at alpha = p/q, W and U of the tails of length K are
    numerators over (L·q)^K, a new tail's numerator being
    q·(L·q)^K·(L*r_r) + p·(L*P_r)·(the old numerators), and the derivatives
    are over D = L·(L·q)^K.  A level is built only when it is requested,
    and only the current tails are held.
    """
    m, table = mdp0.m, mdp0.integer_table
    p, q, scale = alpha.numerator, alpha.denominator, table.scale
    rows = [[table.rows[i][k] for i, k in enumerate(r.choices)] for r in rules]
    rewards = [[table.rewards[i][k] for i, k in enumerate(r.choices)] for r in rules]

    def prepend(cols: list[list[int]], base: int) -> list[list[int]]:
        # base·(L*r_r) + p·(L*P_r)·cols for each rule r in turn, state-major
        out: list[list[int]] = [[] for _ in range(m)]
        for rule_rows, reward in zip(rows, rewards):
            for x, row in enumerate(rule_rows):
                c = base * reward[x]
                out[x] += [c + p * v for v in _combine(row, cols)]
        return out

    w = u = [[0] for _ in range(m)]  # W and U of the one empty tail
    den = 1
    while True:
        yield [[_combine(row, u) for row in rs] for rs in rows], scale * den
        s = [list(map(add, a, b)) for a, b in zip(w, u)]
        w, u = prepend(w, q * den), prepend(s, q * den)
        den *= scale * q


def _combine(row: tuple[tuple[int, int], ...], cols: list[list[int]]) -> list[int]:
    """The sum over (j, c) in `row` of c times the list cols[j]."""
    (j, c), *rest = row
    out = [c * v for v in cols[j]]
    for j, c in rest:
        out = [a + c * v for a, v in zip(out, cols[j])]
    return out


# An irregular point as the checks read it: its kind, D(alpha-), D(alpha),
# D(alpha+) and the canonical partition they were read from.
_Irregular = tuple[str, ActionSets, ActionSets, ActionSets, PartitionReport]


def _require_irregular(mdp: Mdp, alpha_star: Fraction) -> _Irregular:
    """Classify alpha_star once, from the canonical partition of mdp."""
    if not (0 < alpha_star < 1):
        raise NotIrregularError("conditions are defined on irregular points in (0, 1)")
    report = canonical_partition(mdp)
    d_minus, d_at, d_plus = report.sets_around(alpha_star)
    kind = classify(d_minus, d_at, d_plus)
    if kind == "regular":
        raise NotIrregularError(f"{alpha_star} is a regular point")
    return kind, d_minus, d_at, d_plus, report


def check_condition_A(mdp: Mdp, alpha_star: Fraction, side: str) -> ConditionVerdict:
    """Check whether some side-optimal rule remains first-step-optimal at the
    point for all large horizons.

    When both one-sided sets are singletons the pushforward certificate is
    attempted for residual horizons up to A_HORIZON; at a non-touching break
    point its success decides both sides at once.  Otherwise the first-step
    sets over a horizon window are reported, which can only ever be
    evidence: the condition quantifies over all horizons.
    """
    if side not in ("minus", "plus"):
        raise ValueError("side must be 'minus' or 'plus'")
    point = _require_irregular(mdp, alpha_star)
    return _condition_a_verdicts(mdp, alpha_star, point)[side]


def _condition_a_verdicts(
    mdp: Mdp, alpha_star: Fraction, point: _Irregular
) -> dict[str, ConditionVerdict]:
    """`check_condition_A` for both sides, from one value-iteration trace
    and one certificate search: the certificate does not depend on the
    side.  The search builds the pushforward kernel of (phi, psi) once and
    tests w_k = V* - V_k against it from k = N - 1 up to A_HORIZON; the
    first k that passes is the certificate horizon, exactly as a call of
    `pushforwards_equal(mdp, phi, w_k, psi, w_k)` at each k would find.
    The trace is stepped as far as the search reads it; a window reads all."""
    kind, d_minus, _, d_plus, report = point
    certificate_k = None
    steps, trace = value_iteration_steps(mdp, alpha_star), []
    if count_rules(d_minus) == 1 and count_rules(d_plus) == 1:
        phi = smallest_rule(d_minus)
        psi = smallest_rule(d_plus)
        opt = report.optimal_at(mdp, alpha_star)
        n_val = _turnpike_at(mdp, opt).n_value
        v_inf = opt.v_alpha
        in_kernel = same_pushforwards(mdp, phi, psi)
        for k, step in zip(range(A_HORIZON + 1), steps):
            trace.append(step)
            if k >= n_val - 1 and in_kernel(
                [v - u for v, u in zip(v_inf.values, step.value.values)]
            ):
                certificate_k = k
                break
    verdicts = {}
    for side, name, d_side in (("minus", "A-", d_minus), ("plus", "A+", d_plus)):
        if certificate_k is not None and "touching" not in kind:
            verdicts[side] = ConditionVerdict(
                name,
                alpha_star,
                True,
                "certificate",
                horizon_used=certificate_k,
                witnesses={"phi": phi, "psi": psi},
            )
            continue
        trace += islice(steps, A_HORIZON + 1 - len(trace))
        # the products meet exactly when every state's sets do
        window = {
            step.horizon: all(a & b for a, b in zip(step.first_step, d_side))
            for step in trace[1:]
        }
        verdicts[side] = ConditionVerdict(
            name,
            alpha_star,
            None,
            "definition-window",
            horizon_used=A_HORIZON,
            window=window,
            witnesses={"certificate_horizon": certificate_k},
        )
    return verdicts


def condition_b_threshold(alpha_star: Fraction, k: int, r1_star: Fraction) -> Fraction:
    return (
        2
        * alpha_star**k
        * (
            alpha_star / (1 - alpha_star) ** 2
            + Fraction(k + 1) / (1 - alpha_star)
        )
        * r1_star
    )


def check_condition_B(
    mdp: Mdp,
    alpha_star: Fraction,
    side: str,
    k_range=range(0, 13),
) -> ConditionVerdict:
    """Check strict first-order dominance of the side-optimal rules over the
    other optimal rules, uniformly in the continuation.

    Terminal rewards are zeroed internally (the conditions do not depend on
    them).  For each horizon K the supremum/infimum of the exact derivative
    over all continuation prefixes drawn from the optimal set is compared
    with the tail bound; the first conclusive K settles the condition.  The
    derivatives come from a table built level by level (`_derivative_levels`)
    from tail vectors: level K + 1 puts each rule in front of each tail of
    level K, at the cost of sparse matrix-vector steps and no matrix
    product, and a level is built only after the prefix cap has admitted
    its size.  A side that no
    K settles, as with an empty `k_range`, is inconclusive.
    """
    if side not in ("minus", "plus"):
        raise ValueError("side must be 'minus' or 'plus'")
    point = _require_irregular(mdp, alpha_star)
    return _condition_b_verdicts(mdp, alpha_star, (side,), k_range, point)[side]


def _condition_b_verdicts(
    mdp: Mdp,
    alpha_star: Fraction,
    sides: tuple[str, ...],
    k_range,
    point: _Irregular,
) -> dict[str, ConditionVerdict]:
    """`check_condition_B` for each of `sides`, all reading one derivative
    table: the prefixes are drawn from D(alpha_star) on either side.  Each
    side settles at its own first conclusive K; the table grows, and the
    prefix cap is checked, while some side is still open.

    The point's sets and value functions are those of `mdp` itself: they
    depend only on the infinite-horizon value functions, which terminal
    rewards do not affect, so they equal those of the zeroed model."""
    mdp0 = mdp.with_terminal([Fraction(0)] * mdp.m)
    k_range = tuple(k_range)  # read once: max() below needs it again
    _, d_minus, d_at, d_plus, report = point
    vf = report.value_functions
    names = {"minus": "B-", "plus": "B+"}
    rules_sorted = rules_from_action_sets(d_at)  # the prefixes' rules
    split = {}  # each side's rules and the other rules of D(alpha_star)
    verdicts: dict[str, ConditionVerdict] = {}
    pending = []  # sides still to settle
    slope = cache(lambda rule: value_slopes(vf[rule], alpha_star))  # once per rule
    for side in sides:
        sets = d_minus if side == "minus" else d_plus
        d_side = [
            r for r in rules_sorted if all(a in s for a, s in zip(r.choices, sets))
        ]
        others = [r for r in rules_sorted if r not in d_side]
        split[side] = d_side, others
        if not others:
            verdicts[side] = ConditionVerdict(names[side], alpha_star, True, "vacuous")
            continue
        tangent = next(
            ((phi, psi) for phi in d_side for psi in others if slope(phi) == slope(psi)),
            None,
        )
        if tangent is not None:
            verdicts[side] = ConditionVerdict(
                names[side],
                alpha_star,
                False,
                "tangency",
                witnesses={"phi": tangent[0], "psi": tangent[1]},
            )
            continue
        pending.append(side)
    r1_star = mdp0.reward_spreads.r1_star
    levels, depth = None, 0
    for k in k_range:
        if not pending:
            break
        if k < 0:
            raise ValueError("horizons in k_range must be non-negative")
        count = len(rules_sorted) ** (k + 1)
        if count > prefix_cap():
            raise CapExceededError("prefix", count, prefix_cap())
        threshold = condition_b_threshold(alpha_star, k, r1_star)
        if levels is None or k < depth:
            levels, depth = _derivative_levels(mdp0, rules_sorted, alpha_star), -1
        while depth < k:
            depth, (derivs, den) = depth + 1, next(levels)
        by_first = dict(zip(rules_sorted, derivs))
        for side in list(pending):
            extrema = _dominance_extrema(
                mdp, side, *split[side], by_first, den, threshold
            )
            if extrema is not None:
                pending.remove(side)
                verdicts[side] = ConditionVerdict(
                    names[side],
                    alpha_star,
                    True,
                    "finite-horizon-threshold",
                    horizon_used=k,
                    threshold=threshold,
                    extrema=extrema,
                )
    for side in pending:
        verdicts[side] = ConditionVerdict(
            names[side],
            alpha_star,
            None,
            "finite-horizon-threshold",
            horizon_used=max(k_range, default=None),
        )
    return verdicts


def _dominance_extrema(
    mdp: Mdp,
    side: str,
    d_side: list[DecisionRule],
    others: list[DecisionRule],
    by_first: dict[DecisionRule, list[list[int]]],
    den: int,
    threshold: Fraction,
) -> dict | None:
    """The extreme derivative difference of each (phi, psi) over the
    continuations in `by_first`, when every pair clears the threshold on
    `side`; None as soon as one pair does not.  Both rule lists are sorted,
    and `by_first` maps each rule to its level's state-major lists of
    numerators over `den`, one list per state over the same tails."""
    extrema, bar = {}, threshold * den
    for phi in d_side:
        for psi in others:
            per_state = enumerate(zip(by_first[phi], by_first[psi]))
            if side == "plus":
                best = [(min(map(sub, a, b)), x) for x, (a, b) in per_state]
                ok = any(v > bar for v, _ in best)
                extreme = max(best, key=lambda t: t[0])
            else:
                best = [(max(map(sub, a, b)), x) for x, (a, b) in per_state]
                ok = any(v < -bar for v, _ in best)
                extreme = min(best, key=lambda t: t[0])
            if not ok:
                return None
            extrema[(phi, psi)] = {
                "value": Fraction(extreme[0], den),
                "state": mdp.states[extreme[1]],
            }
    return extrema


@dataclass(frozen=True)
class BoundednessReport:
    point: Fraction
    left: str  # 'bounded', 'unbounded-evidence', 'unknown'
    right: str
    a_left: ConditionVerdict
    a_right: ConditionVerdict
    b_left: ConditionVerdict
    b_right: ConditionVerdict
    method_left: str
    method_right: str
    samples_left: tuple[tuple[Fraction, int], ...] = ()
    samples_right: tuple[tuple[Fraction, int], ...] = ()


def _empirical_samples(
    mdp: Mdp, alpha_star: Fraction, side: str, report: PartitionReport
) -> tuple[tuple[Fraction, int], ...]:
    out = []
    for k in range(3, 3 + SAMPLES_PER_SIDE):
        step = min(alpha_star, 1 - alpha_star) / 2**k
        alpha = alpha_star - step if side == "minus" else alpha_star + step
        out.append((alpha, turnpike_integer(mdp, alpha, report).n_value))
    return tuple(out)


def boundedness_verdict(
    mdp: Mdp,
    alpha_star: Fraction,
    k_range_b=range(0, 13),
) -> BoundednessReport:
    """Combine the condition checks into a per-side boundedness verdict.

    A side is 'bounded' when its A- and B-conditions are both certified, or
    when the whole side neighborhood sits inside the small-discount radius.
    Otherwise sampled turnpike values approaching the point are attached;
    clear growth is labeled 'unbounded-evidence', anything else 'unknown'.
    """
    point = _require_irregular(mdp, alpha_star)
    a_verdicts = _condition_a_verdicts(mdp, alpha_star, point)
    b_verdicts = _condition_b_verdicts(
        mdp, alpha_star, ("minus", "plus"), k_range_b, point
    )
    filt = policy_filtration(mdp)
    report = point[-1]
    labels = {}
    methods = {}
    sample_data = {"minus": (), "plus": ()}
    for side in ("minus", "plus"):
        a, b = a_verdicts[side], b_verdicts[side]
        if a.holds is True and b.holds is True:
            labels[side] = "bounded"
            methods[side] = "conditions"
        elif side == "minus" and filt.delta is not None and alpha_star <= filt.delta:
            labels[side] = "bounded"
            methods[side] = "small-discount-radius"
        else:
            data = _empirical_samples(mdp, alpha_star, side, report)
            sample_data[side] = data
            values = [n for _, n in data]
            growing = values[-1] >= max(6, values[0] + 3) and all(
                a2 >= a1 for a1, a2 in zip(values, values[1:])
            )
            labels[side] = "unbounded-evidence" if growing else "unknown"
            methods[side] = "empirical"
    return BoundednessReport(
        point=alpha_star,
        left=labels["minus"],
        right=labels["plus"],
        a_left=a_verdicts["minus"],
        a_right=a_verdicts["plus"],
        b_left=b_verdicts["minus"],
        b_right=b_verdicts["plus"],
        method_left=methods["minus"],
        method_right=methods["plus"],
        samples_left=sample_data["minus"],
        samples_right=sample_data["plus"],
    )
