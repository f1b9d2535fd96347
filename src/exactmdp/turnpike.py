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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bellman import (
    ActionSets,
    OptSets,
    _IntegerForm,
    _integer_form,
    _ints_of,
    _q_nums,
    _step,
    optimal_set,
    product_subset,
    smallest_rule,
    value_iteration,
)
from .limits import CapExceededError
from .mdp import DecisionRule, Mdp, balance
from .exactarith import IsolatedRoot, Point, point_position, points_equal
from .partition import (
    PartitionReport,
    PiecewiseValue,
    canonical_partition,
    classify,
    symbolic_value_iteration,
    _sorted_disjoint,
)


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
    opt = optimal_set(mdp, alpha) if part is None else part.optimal_at(mdp, alpha)
    return _turnpike_at(mdp, opt)


def _turnpike_at(mdp: Mdp, opt: OptSets) -> TurnpikeResult:
    """`turnpike_integer` at the discount of opt, given D and V* there."""
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
    pts: list[Point] = []

    def _want(pt: Point) -> bool:
        plo, phi = point_position(pt)
        return phi >= lo_pad and plo <= hi_pad

    def _push(pt: Point):
        if isinstance(pt, IsolatedRoot):
            pt = pt.excluding(query_lo).excluding(query_hi)
        if _want(pt) and not any(points_equal(pt, q) for q in pts):
            pts.append(pt)

    for ip in part.irregular_points:
        _push(ip.point)
    for level in levels[1:]:
        for i, cut in enumerate(level.cuts):
            left, right = level.interval_sets[i], level.interval_sets[i + 1]
            if classify(left, level.point_sets[i], right) != "regular":
                _push(cut)
    return _sorted_disjoint(pts)


def turnpike_intervals(
    mdp: Mdp,
    lo: Fraction,
    hi: Fraction,
    n_cap: int = 16,
    pad: Fraction | None = None,
) -> TurnpikeIntervalMap:
    """Decompose [lo, hi] into maximal intervals of constant N.

    Candidate discontinuity points are the irregular points plus the
    first-step irregular points of horizons below n_cap; N is evaluated once
    per gap (it is constant there) and at each rational candidate.  If some
    evaluation reaches N >= n_cap the map is returned flagged partial, since
    candidate completeness is then no longer certified.

    ``pad`` widens the analysis window beyond [lo, hi] so that one-sided
    limits exist at the interval's own candidate points; pass 0 to confine
    every evaluation to [lo, hi].
    """
    if not (0 <= lo < hi < 1):
        raise ValueError("interval must satisfy 0 <= lo < hi < 1")
    if pad is None:
        pad = (hi - lo) / 8
    part = canonical_partition(mdp)
    levels = symbolic_value_iteration(mdp, n_cap - 1)
    return _interval_map(mdp, lo, hi, n_cap, pad, part, levels)


def _interval_map(
    mdp: Mdp, lo: Fraction, hi: Fraction, n_cap: int, pad: Fraction,
    part: PartitionReport, levels: list[PiecewiseValue],
) -> TurnpikeIntervalMap:
    """`turnpike_intervals` given the partition and the symbolic levels of
    horizons 0..n_cap - 1, which a cover computes once for all its pieces."""
    lo_pad = max(Fraction(0), lo - pad)
    hi_pad = min(hi + pad, (hi + 1) / 2)
    pts = _candidate_points(part, levels, lo_pad, hi_pad, lo, hi)

    bounds: list[Point] = [lo_pad, *pts, hi_pad]
    gap_values: list[int | None] = []
    gap_inside: list[bool] = []
    for i in range(len(bounds) - 1):
        left_edge = point_position(bounds[i])[1]
        right_edge = point_position(bounds[i + 1])[0]
        if not left_edge < right_edge:
            # degenerate gap: a candidate point sits on the padded boundary
            # (only 0 can do this); there is nothing to sample in between
            gap_values.append(None)
            gap_inside.append(False)
            continue
        # sample inside the query interval whenever the gap meets it, so a
        # pad region beyond an uncovered blow-up zone cannot contaminate the
        # reported span values
        inside = right_edge > lo and left_edge < hi
        if inside:
            mid = (max(left_edge, lo) + min(right_edge, hi)) / 2
        else:
            mid = (left_edge + right_edge) / 2
        gap_values.append(turnpike_integer(mdp, mid, part).n_value)
        gap_inside.append(inside)
    point_values: dict[Fraction, int] = {}
    for pt in pts:
        if isinstance(pt, Fraction):
            point_values[pt] = turnpike_integer(mdp, pt, part).n_value
    # candidate completeness matters on [lo, hi]; pad-only evaluations count
    # only when they back a one-sided limit at a query-endpoint candidate
    relevant = [
        g for g, inside in zip(gap_values, gap_inside) if inside and g is not None
    ]
    for j, pt in enumerate(pts):
        if isinstance(pt, Fraction) and pt in (lo, hi):
            for idx in (j, j + 1):
                if gap_values[idx] is not None and not gap_inside[idx]:
                    relevant.append(gap_values[idx])
    max_seen = max(relevant + list(point_values.values()), default=1)
    partial = max_seen >= n_cap

    d_minus, d_plus = [], []
    for i, pt in enumerate(pts):
        if not isinstance(pt, Fraction) or not (lo <= pt <= hi):
            continue
        n_at = point_values[pt]
        if pt != 0 and gap_values[i] is not None and gap_values[i] != n_at:
            d_minus.append(pt)
        if gap_values[i + 1] is not None and gap_values[i + 1] != n_at:
            d_plus.append(pt)
    d_hat = [p for p in d_minus if p in d_plus]
    d_all = sorted(set(d_minus) | set(d_plus))

    # Assemble the query interval as an alternating list of gap and point
    # pieces; gaps inherit the padded structure's constant values.
    pieces: list[tuple[Point, Point, bool, bool, int | None]] = []
    inner = [
        pt
        for pt in pts
        if point_position(pt)[1] >= lo and point_position(pt)[0] <= hi
    ]
    # gap value applicable immediately right of a position
    def _gap_value_after(pos: Fraction) -> int:
        for i in range(len(bounds) - 1):
            right = point_position(bounds[i + 1])[0]
            if pos < right and gap_values[i] is not None:
                return gap_values[i]
        return next(g for g in reversed(gap_values) if g is not None)

    cursor: Point = lo
    cursor_closed = True
    for pt in inner:
        if not (isinstance(pt, Fraction) and pt == lo):
            pieces.append((cursor, pt, cursor_closed, False, _gap_value_after(point_position(cursor)[1])))
        val = point_values.get(pt) if isinstance(pt, Fraction) else None
        pieces.append((pt, pt, True, True, val))
        cursor, cursor_closed = pt, False
    if not (inner and isinstance(inner[-1], Fraction) and inner[-1] == hi):
        pieces.append((cursor, hi, cursor_closed, True, _gap_value_after(point_position(cursor)[1])))

    merged: list[list] = []
    indeterminate: list[IsolatedRoot] = []
    for piece in pieces:
        plo, phi, lo_cl, hi_cl, val = piece
        if val is None:
            indeterminate.append(plo)
            merged.append(list(piece))
            continue
        if (
            merged
            and merged[-1][4] is not None
            and merged[-1][4] == val
            and not (merged[-1][3] is False and lo_cl is False)
        ):
            merged[-1][1] = phi
            merged[-1][3] = hi_cl
        else:
            merged.append(list(piece))
    spans = tuple(
        TurnpikeSpan(mlo, mhi, lo_cl, hi_cl, val)
        for mlo, mhi, lo_cl, hi_cl, val in merged
        if val is not None
    )
    return TurnpikeIntervalMap(
        spans=spans,
        d_minus=tuple(d_minus),
        d_plus=tuple(d_plus),
        d_hat=tuple(d_hat),
        d_all=tuple(d_all),
        indeterminate=tuple(indeterminate),
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
