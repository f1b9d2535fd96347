"""Turnpike interval maps and covers.

``turnpike_intervals`` (in ``turnpike``, its entry point) decomposes an
interval of discounts into maximal spans of constant N(alpha) with the
left and right discontinuity sets; ``turnpike_cover`` covers all but an
arbitrarily small measure of an interval with finitely many closed pieces
of constant N.  Both cut at the irregular points of the canonical partition
and at the first-step irregular points of the symbolic value-iteration
levels, and read N once per gap off ``turnpike_integer`` given the
partition.  Pointwise work (``turnpike_integer`` alone) never runs this
module; the package loads it on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .limits import CapExceededError
from .mdp import Mdp
from .turnpike import _check_n_cap, turnpike_integer

if TYPE_CHECKING:
    from .partition import PartitionReport, PiecewiseValue
    from .polyarith import IsolatedRoot, Point


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
        """N at the rational alpha, from the span that holds it; None when
        no span does.  Which side of an irrational span end alpha lies on is
        decided exactly, also inside the end's bracket."""
        from .polyarith import point_sign

        for span in self.spans:
            lo_side = point_sign(span.lo, alpha)
            hi_side = point_sign(span.hi, alpha)
            if (lo_side < 0 or (span.lo_closed and lo_side == 0)) and (
                hi_side > 0 or (span.hi_closed and hi_side == 0)
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
    from .partition import classify
    from .polyarith import clear_of, point_position, points_equal, separate_points

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
    from .polyarith import point_position

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
    from .polyarith import IsolatedRoot

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

    from .partition import canonical_partition, symbolic_value_iteration
    from .polyarith import point_position

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
