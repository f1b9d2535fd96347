"""Boundedness analysis of the turnpike function near an irregular point.

Two families of conditions are checked at an irregular discount factor:

- A-conditions: some one-side-optimal rule stays first-step-optimal at the
  point for every large horizon.  With singleton one-sided sets these are
  verified jointly through a finite pushforward-equality certificate on
  the value-iteration residual; otherwise only definition-window evidence
  is reported.
- B-conditions: the one-side-optimal rules strictly dominate, to first
  order in the discount factor, every other optimal rule, uniformly over
  continuations drawn from the optimal set.  Verified with terminal
  rewards zeroed by comparing exact finite-horizon derivatives against an
  explicit tail bound; a tangency of value-function derivatives refutes
  them outright.  The derivatives of all continuation prefixes are kept in
  one table that grows a level per horizon: each prefix extends its
  parent's derivative and transition product by one step instead of
  rebuilding them from the identity.  A level holds integer numerators over
  one denominator, built from the MDP's integer table, so no step reduces a
  fraction.  Both sides draw their prefixes from
  the same optimal set, so a boundedness verdict reads B- and B+ from one
  table.

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

from .bellman import (
    ActionSets,
    rules_from_action_sets,
    smallest_rule,
    value_iteration,
)
from .equivalence import pushforwards_equal
from .exactarith import value_rational_function
from .limits import CapExceededError, prefix_cap
from .mdp import DecisionRule, MarkovPrefix, Mdp, count_rules, mat_vec
from .partition import PartitionReport, canonical_partition, classify
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
    tail_v = value_rational_function(mdp, prefix.tail)
    horizon = len(c1)
    out = []
    a = alpha_star
    tail_vals = tuple(rf(a) for rf in tail_v)
    tail_derivs = tuple(rf.derivative()(a) for rf in tail_v)
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
) -> Iterator[tuple[list[tuple[int, ...]], int]]:
    """Yield the condition-B derivative table level by level, K = 0, 1, ...

    Level K lists, for every (first, tail) with |tail| = K and rules drawn
    from `rules`, in the lexicographic order of (first, *tail), the
    derivative at alpha of the (K+1)-horizon value of playing first and then
    tail; mdp0's terminal rewards must be zero.  Entry i's children are
    entries n·i .. n·i + n-1 of the next level (n = len(rules)).  With
    M = P_first·P_tail[0]···P_tail[K-1], the child (first, tail+(r,)) is the
    parent plus (K+1)·alpha^K·M·r_r, and its product is M·P_r.  The products
    of a level are formed only when the next level is requested, and only
    the current level is held.

    A level is yielded as (numerators, D), integers over one denominator,
    from the integer table (L*P, L*r) at alpha = p/q.  With M' = L^(K+1)·M,
    a child is its parent times D_(K+1)/D_K plus (K+1)·p^K·M'·(L*r_r), over
    D_(K+1) = L^(K+2)·q^K: D_0 = 1 (level 0 is zero), D_1 = L², then
    D_(K+1) = D_K·L·q.
    """
    m, n, table = mdp0.m, len(rules), mdp0.integer_table
    p, q, scale = alpha.numerator, alpha.denominator, table.scale
    rows = [[table.rows[i][k] for i, k in enumerate(r.choices)] for r in rules]
    trans = [[[dict(row).get(j, 0) for j in range(m)] for row in rs] for rs in rows]
    rewards = [[table.rewards[i][k] for i, k in enumerate(r.choices)] for r in rules]
    derivs, den = [(0,) * m] * n, 1
    prods = [_identity(m)]  # products of the parent level: the empty prefix
    k = 0
    while True:
        yield derivs, den
        w, ratio = (k + 1) * p**k, scale * (q if k else scale)
        prods = [_mat_mul(prods[i // n], trans[i % n], m) for i in range(len(derivs))]
        derivs = [
            tuple(d[x] * ratio + w * c[x] for x in range(m))
            for d, prod in zip(derivs, prods)
            for c in (mat_vec(prod, reward) for reward in rewards)
        ]
        den *= ratio
        k += 1


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
    side."""
    kind, d_minus, _, d_plus, report = point
    certificate_k = None
    trace = value_iteration(mdp, alpha_star, A_HORIZON)
    if count_rules(d_minus) == 1 and count_rules(d_plus) == 1:
        phi = smallest_rule(d_minus)
        psi = smallest_rule(d_plus)
        opt = report.optimal_at(mdp, alpha_star)
        n_val = _turnpike_at(mdp, opt).n_value
        v_inf = opt.v_alpha
        for k in range(max(0, n_val - 1), A_HORIZON + 1):
            w = tuple(v_inf[i] - trace[k].value[i] for i in range(mdp.m))
            if pushforwards_equal(mdp, phi, w, psi, w):
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
    derivatives come from a table built level by level (`_derivative_levels`):
    level K + 1 extends each prefix of level K by one rule, so a new prefix
    costs one matrix-vector and at most one matrix product, and a level is
    built only after the prefix cap has admitted its size.  A side that no
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
            (
                (phi, psi)
                for phi in d_side
                for psi in others
                if all(
                    (vf[phi][x] - vf[psi][x]).derivative()(alpha_star) == 0
                    for x in range(mdp.m)
                )
            ),
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
        # the continuations of each first rule, in the same tail order
        size = len(rules_sorted) ** k
        by_first = {
            rule: derivs[i * size : (i + 1) * size]
            for i, rule in enumerate(rules_sorted)
        }
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
    by_first: dict[DecisionRule, list[tuple[int, ...]]],
    den: int,
    threshold: Fraction,
) -> dict | None:
    """The extreme derivative difference of each (phi, psi) over the
    continuations in `by_first`, when every pair clears the threshold on
    `side`; None as soon as one pair does not.  Both rule lists are sorted,
    and the derivatives are numerators over `den`."""
    extrema, bar = {}, threshold * den
    for phi in d_side:
        for psi in others:
            per_state = [
                [a[x] - b[x] for a, b in zip(by_first[phi], by_first[psi])]
                for x in range(mdp.m)
            ]
            if side == "plus":
                best = [(min(vals), x) for x, vals in enumerate(per_state)]
                ok = any(v > bar for v, _ in best)
                extreme = max(best, key=lambda t: t[0])
            else:
                best = [(max(vals), x) for x, vals in enumerate(per_state)]
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
