"""Turnpike horizons with soundness certificates.

The turnpike integer N(alpha) is the smallest horizon from which value
iteration emits only infinite-horizon-optimal first-step rules.  Two
horizons bound the work of deciding it:

- The a-priori certificate horizon K is the first k at which
  2 * alpha^(k+1) * (R1 / (1 - alpha) + R2) falls below the suboptimality
  gap (the smallest optimality-equation defect of any suboptimal action),
  from the contraction bound on ||V* - V_n||.  It is known before any
  iteration and is what ``certificate_horizon`` reports.
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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bellman import (
    ActionSets,
    OptSets,
    _IntegerForm,
    _integer_form,
    _ints_of,
    _policy_iteration,
    _q_nums,
    _step,
    optimal_set,
    product_subset,
    smallest_rule,
    value_iteration,
)
from .limits import CapExceededError
from .mdp import DecisionRule, Mdp, balance
from .exactarith import (
    IsolatedRoot,
    Point,
    clear_of,
    point_position,
    points_equal,
    separate_points,
)
from .partition import (
    PartitionReport,
    PiecewiseValue,
    canonical_partition,
    classify,
    symbolic_value_iteration,
)


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
    opt = optimal_set(mdp, alpha)
    return _gap(_integer_form(mdp, alpha), *_ints_of(opt.v_alpha.values))


def _gap(form: _IntegerForm, v_star: list[int], den: int) -> Fraction:
    """Smallest positive defect V*(i) - Q(i, k) at V* = v_star / den, read
    off the integer Q-values (each times L*q*den)."""
    lq = form.table.scale * form.q
    positives = [
        v * lq - x
        for v, row in zip(v_star, _q_nums(form, v_star, den))
        for x in row
        if v * lq > x
    ]
    if not positives:
        raise AllRulesOptimalError("all decision rules are optimal at this discount")
    return Fraction(min(positives), lq * den)


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
    opt = _policy_iteration(mdp, alpha, form, smallest_rule(steps[-1][1]))
    return _turnpike_at(mdp, opt, steps)


def _turnpike_at(
    mdp: Mdp, opt: OptSets, steps: Sequence[_Step] = ()
) -> TurnpikeResult:
    """`turnpike_integer` at the discount of opt, given D and V* there.

    ``steps`` holds the value-iteration steps of horizons 1, 2, ... that the
    caller has already taken from the terminal vector; the loop reads them
    in place of recomputing them.
    """
    alpha = opt.v_alpha.alpha
    if alpha == 0:
        return TurnpikeResult(alpha, 1, 0, None, None, opt.d_alpha_sets)
    form = _integer_form(mdp, alpha)
    v_star, e = _ints_of(opt.v_alpha.values)
    try:
        gap = _gap(form, v_star, e)
    except AllRulesOptimalError:
        return TurnpikeResult(alpha, 1, 0, None, None, opt.d_alpha_sets)
    p, q = form.p, form.q
    g_num, g_den = gap.numerator, gap.denominator
    sp = mdp.reward_spreads
    c = sp.r1_star / (1 - alpha) + sp.r2_star
    # K is the first k with 2 * alpha^(k+1) * c < gap
    lhs, rhs = 2 * p * c.numerator * g_den, g_num * c.denominator * q
    k_cert = 0
    while lhs >= rhs:
        k_cert += 1
        lhs *= p
        rhs *= q
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


@dataclass(frozen=True)
class TurnpikeSpan:
    lo: Point
    hi: Point
    lo_closed: bool
    hi_closed: bool
    n_value: int


@dataclass(frozen=True)
class TurnpikeIntervalMap:
    spans: tuple[TurnpikeSpan, ...]
    d_minus: tuple[Fraction, ...]
    d_plus: tuple[Fraction, ...]
    d_hat: tuple[Fraction, ...]
    d_all: tuple[Fraction, ...]
    indeterminate: tuple[IsolatedRoot, ...]
    point_values: dict[Fraction, int]
    partial: bool
    horizon_used: int

    def value_at(self, alpha: Fraction) -> int | None:
        for span in self.spans:
            lo_edge = point_position(span.lo)[1]
            hi_edge = point_position(span.hi)[0]
            if (lo_edge < alpha or (span.lo_closed and alpha == lo_edge)) and (
                alpha < hi_edge or (span.hi_closed and alpha == hi_edge)
            ):
                return span.n_value
        return None


def _candidate_points(
    part: PartitionReport,
    levels: list[PiecewiseValue],
    lo_pad: Fraction,
    hi_pad: Fraction,
    query_lo: Fraction,
    query_hi: Fraction,
) -> list[Point]:
    """The irregular and first-step irregular points that meet
    [lo_pad, hi_pad], sorted, with every bracket's closed hull clear of both
    query ends, of the rational candidates and of the other brackets."""
    pts: list[Point] = []

    def _push(pt: Point):
        pt = clear_of(pt, (query_lo, query_hi))
        plo, phi = point_position(pt)
        if phi >= lo_pad and plo <= hi_pad and not any(points_equal(pt, q) for q in pts):
            pts.append(pt)

    for ip in part.irregular_points:
        _push(ip.point)
    for level in levels[1:]:
        for i, cut in enumerate(level.cuts):
            left, right = level.interval_sets[i], level.interval_sets[i + 1]
            if classify(left, level.point_sets[i], right) != "regular":
                _push(cut)
    return separate_points(pts)


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
    part = canonical_partition(mdp)
    levels = symbolic_value_iteration(mdp, n_cap - 1)
    return _interval_map(mdp, lo, hi, n_cap, (hi - lo) / 8, part, levels)


def _interval_map(
    mdp: Mdp, lo: Fraction, hi: Fraction, n_cap: int, pad: Fraction,
    part: PartitionReport, levels: list[PiecewiseValue],
) -> TurnpikeIntervalMap:
    """`turnpike_intervals` given the partition and the symbolic levels of
    horizons 0..n_cap - 1, which a cover computes once for all its pieces.

    Candidates are taken in the window [lo - pad, hi + pad], clipped to
    [0, (hi + 1) / 2].  No bracket's closed hull holds lo or hi, so the
    points of [lo, hi] are one run pts[first:last].  Gap j lies between
    pts[j - 1] and pts[j], with the window's ends standing in at j = 0 and
    j = len(pts).  Gaps first..last are the only ones sampled: each meets
    [lo, hi] and is sampled inside it, so the pad beyond a blow-up zone
    cannot set a span's N, or lies beside a rational query end and is
    sampled at its own midpoint for the one-sided limit there.

    The map is partial when N >= n_cap at one of those gap samples or at any
    rational candidate of the window, inside [lo, hi] or not.
    """
    lo_pad = max(Fraction(0), lo - pad)
    hi_pad = min(hi + pad, (hi + 1) / 2)
    pts = _candidate_points(part, levels, lo_pad, hi_pad, lo, hi)
    first = sum(point_position(p)[1] < lo for p in pts)
    last = sum(point_position(p)[0] <= hi for p in pts)
    bounds: list[Point] = [lo_pad, *pts, hi_pad]
    gaps: dict[int, int] = {}
    for j in range(first, last + 1):
        left, right = point_position(bounds[j])[1], point_position(bounds[j + 1])[0]
        if left == right:
            # a rational candidate on an end of the window leaves no gap there
            continue
        if lo < right and left < hi:
            left, right = max(left, lo), min(right, hi)
        gaps[j] = turnpike_integer(mdp, (left + right) / 2, part).n_value
    point_values = {
        p: turnpike_integer(mdp, p, part).n_value for p in pts if isinstance(p, Fraction)
    }
    partial = max([*gaps.values(), *point_values.values()], default=1) >= n_cap

    # one walk over [lo, hi]: each gap and point in turn, equal neighbours
    # merged; a bracket has no value (None) and ends the run before it
    runs: list[list] = []
    d_minus, d_plus = [], []

    def emit(a: Point, b: Point, a_closed: bool, b_closed: bool, n: int | None):
        if n is not None and runs and runs[-1][4] == n:
            runs[-1][1], runs[-1][3] = b, b_closed
        else:
            runs.append([a, b, a_closed, b_closed, n])

    cursor: Point = lo
    cursor_closed = True
    for j in range(first, last):
        pt = pts[j]
        if pt != lo:
            emit(cursor, pt, cursor_closed, False, gaps[j])
        n_at = point_values.get(pt)
        emit(pt, pt, True, True, n_at)
        if n_at is not None and j in gaps and gaps[j] != n_at:
            d_minus.append(pt)
        if n_at is not None and j + 1 in gaps and gaps[j + 1] != n_at:
            d_plus.append(pt)
        cursor, cursor_closed = pt, False
    if cursor != hi:
        emit(cursor, hi, cursor_closed, True, gaps[last])
    return TurnpikeIntervalMap(
        spans=tuple(TurnpikeSpan(*run) for run in runs if run[4] is not None),
        d_minus=tuple(d_minus),
        d_plus=tuple(d_plus),
        d_hat=tuple(p for p in d_minus if p in d_plus),
        d_all=tuple(sorted({*d_minus, *d_plus})),
        indeterminate=tuple(run[0] for run in runs if run[4] is None),
        point_values=point_values,
        partial=partial,
        horizon_used=n_cap,
    )


@dataclass(frozen=True)
class CoverPiece:
    lo: Fraction
    hi: Fraction
    n_value: int


@dataclass(frozen=True)
class CoverResult:
    pieces: tuple[CoverPiece, ...]
    excised_measure: Fraction


def _excise(
    intervals: list[tuple[Fraction, Fraction]],
    bad: list[Point],
    width: Fraction,
) -> tuple[list[tuple[Fraction, Fraction]], Fraction]:
    """Remove an open neighborhood of radius <= width around each bad point
    from the closed intervals; returns the remainder and the exact measure
    removed."""
    cuts: list[tuple[Fraction, Fraction]] = []
    for p in bad:
        if isinstance(p, IsolatedRoot):
            p = p.refined(width / 2)
            cuts.append((p.lo - width / 2, p.hi + width / 2))
        else:
            cuts.append((p - width, p + width))
    cuts.sort()
    removed = Fraction(0)
    out: list[tuple[Fraction, Fraction]] = []
    for a, b in intervals:
        cursor = a
        for clo, chi in cuts:
            if chi <= cursor or clo >= b:
                continue
            if clo > cursor:
                out.append((cursor, clo))
            removed += min(chi, b) - max(clo, cursor)
            cursor = max(cursor, chi)
            if cursor >= b:
                break
        if cursor < b:
            out.append((cursor, b))
    return out, removed


def turnpike_cover(
    mdp: Mdp,
    lo: Fraction,
    hi: Fraction,
    eps: Fraction,
    n_cap: int = 16,
    lo_open: bool = False,
    hi_open: bool = False,
) -> CoverResult:
    """Cover all but measure < eps of the interval with finitely many
    disjoint closed intervals on which N is constant.

    Mirrors the constructive argument: pass to a closed core, excise small
    neighborhoods of every irregular point (where N may blow up), map the
    turnpike values on what remains, excise the residual discontinuity
    points, and return the surviving closed pieces with exact measure
    accounting.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not (0 <= lo < hi < 1):
        raise ValueError("interval must satisfy 0 <= lo < hi < 1")
    _check_n_cap(n_cap)
    a, b = lo, hi
    loss = Fraction(0)
    if lo_open:
        a = lo + eps / 6
        loss += eps / 6
    if hi_open:
        b = hi - eps / 6
        loss += eps / 6
    if not a < b:
        raise ValueError("eps too large for the interval")

    part = canonical_partition(mdp)
    irregular = [
        ip.point
        for ip in part.irregular_points
        if point_position(ip.point)[1] > a and point_position(ip.point)[0] < b
    ]
    remaining = [(a, b)]
    budget = eps - loss
    if irregular:
        w1 = budget / (2 * len(irregular)) / 2
        remaining, removed = _excise(remaining, irregular, w1)
        loss += removed
        budget = eps - loss

    # Map N on the irregular-free pieces and excise its discontinuities.
    levels = symbolic_value_iteration(mdp, n_cap - 1) if remaining else []
    bad2: list[Point] = []
    for piece in remaining:
        tmap = _interval_map(mdp, *piece, n_cap, Fraction(0), part, levels)
        if tmap.partial:
            err = CapExceededError("symbolic-horizon", tmap.horizon_used, n_cap)
            err.partial_map = tmap
            raise err
        bad2.extend(
            p
            for p in list(tmap.d_all) + list(tmap.indeterminate)
            if point_position(p)[1] > piece[0] and point_position(p)[0] < piece[1]
        )
    if bad2:
        w2 = budget / (2 * len(bad2)) / 2
        remaining, removed = _excise(remaining, bad2, w2)
        loss += removed

    pieces = []
    for plo, phi in remaining:
        if plo >= phi:
            continue
        val = turnpike_integer(mdp, (plo + phi) / 2, part).n_value
        pieces.append(CoverPiece(plo, phi, val))
    if loss >= eps:
        raise AssertionError("excised measure exceeded the budget; kernel bug")
    return CoverResult(tuple(pieces), loss)
