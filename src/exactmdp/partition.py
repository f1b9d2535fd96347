"""Canonical partition of the discount interval and piecewise-symbolic value
iteration.

The discount interval [0, 1) splits into finitely many open intervals on
which the set of optimal stationary policies is constant, separated by
irregular points (break points, where the one-sided optimal sets differ, and
touching points, where a policy is optimal only at the point itself).  The
same structure exists at every finite horizon for the first-step-optimal
sets; both are computed here with exact arithmetic.  Irrational separation
points are carried as isolating brackets, never as floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence, Union

from .bellman import ActionSets, optimal_set, rules_from_action_sets
from .exactarith import (
    IsolatedRoot,
    Polynomial,
    RationalFunction,
    count_roots_open,
    descartes_bound,
    isolate_roots,
    poly_gcd,
    polynomial_vanishes_at,
    same_root,
    unreduced_difference,
    value_rational_function,
)
from .limits import CapExceededError, piece_cap, symbolic_horizon_cap
from .mdp import DecisionRule, Mdp, enumerate_decision_rules

PartitionPoint = Union[Fraction, IsolatedRoot]


def point_position(pt: PartitionPoint) -> tuple[Fraction, Fraction]:
    if isinstance(pt, Fraction):
        return pt, pt
    return pt.position()


def points_equal(a: PartitionPoint, b: PartitionPoint) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    if isinstance(a, Fraction):
        return b.exact == a if b.exact is not None else False
    if isinstance(b, Fraction):
        return a.exact == b if a.exact is not None else False
    return same_root(a, b)


def _canonical(pt: PartitionPoint) -> PartitionPoint:
    if isinstance(pt, IsolatedRoot) and pt.exact is not None:
        return pt.exact
    return pt


@dataclass(frozen=True)
class IrregularPoint:
    point: PartitionPoint
    kind: str  # 'break', 'touching', 'break+touching'
    d_at: frozenset[DecisionRule]
    d_left: frozenset[DecisionRule]
    d_right: frozenset[DecisionRule]


@dataclass(frozen=True)
class PartitionInterval:
    lo: PartitionPoint
    hi: PartitionPoint
    d_set: frozenset[DecisionRule]


@dataclass(frozen=True)
class PartitionReport:
    irregular_points: tuple[IrregularPoint, ...]
    intervals: tuple[PartitionInterval, ...]
    blackwell_point: PartitionPoint
    value_functions: dict[DecisionRule, tuple[RationalFunction, ...]]

    def interval_containing(self, alpha: Fraction) -> PartitionInterval:
        for iv in self.intervals:
            lo = point_position(iv.lo)[1]
            hi = point_position(iv.hi)[0]
            if lo < alpha < hi:
                return iv
            # alpha may sit inside a bracket endpoint; decide the side exactly
            if isinstance(iv.lo, IsolatedRoot) and iv.lo.lo < alpha < iv.lo.hi:
                if count_roots_open(iv.lo.defining, iv.lo.lo, alpha) == 1:
                    return iv  # the irrational endpoint lies left of alpha
            if isinstance(iv.hi, IsolatedRoot) and iv.hi.lo < alpha < iv.hi.hi:
                if count_roots_open(iv.hi.defining, alpha, iv.hi.hi) == 1:
                    return iv
        raise ValueError(f"no partition interval contains {alpha}")


def _rational_inside(lo_pt: PartitionPoint, hi_pt: PartitionPoint) -> Fraction:
    lo = point_position(lo_pt)[1]
    hi = point_position(hi_pt)[0]
    if not lo < hi:
        raise AssertionError("empty gap between partition points")
    return (lo + hi) / 2


def _sorted_disjoint(points: list[PartitionPoint]) -> list[PartitionPoint]:
    pts = [_canonical(p) for p in points]
    rationals = sorted({p for p in pts if isinstance(p, Fraction)})
    brackets = [p for p in pts if isinstance(p, IsolatedRoot)]
    # brackets must exclude every rational point and each other
    refined: list[IsolatedRoot] = []
    for br in brackets:
        for q in rationals:
            br = br.excluding(q)
        refined.append(br)
    for i in range(len(refined)):
        for j in range(i + 1, len(refined)):
            a, b = refined[i], refined[j]
            while True:
                a_lo, a_hi = a.position()
                b_lo, b_hi = b.position()
                if a_hi < b_lo or b_hi < a_lo:
                    break
                a = a.refined((a.hi - a.lo) / 4)
                b = b.refined((b.hi - b.lo) / 4)
            refined[i], refined[j] = a, b
    merged: list[PartitionPoint] = list(rationals) + list(refined)
    merged.sort(key=lambda p: point_position(p))
    return merged


def _clear_of_ends(pt: PartitionPoint) -> PartitionPoint:
    """Refine a bracket until it lies strictly inside (0, 1), so the gaps it
    makes with the bounds 0 and 1 are not empty; the root lies in the open
    interval, so this ends."""
    while isinstance(pt, IsolatedRoot) and pt.exact is None and (
        pt.lo <= 0 or pt.hi >= 1
    ):
        pt = pt.refined((pt.hi - pt.lo) / 4)
    return pt


def _add_point(points: list[PartitionPoint], new: PartitionPoint) -> bool:
    new = _canonical(_clear_of_ends(new))
    for p in points:
        if points_equal(p, new):
            return False
    points.append(new)
    points[:] = _sorted_disjoint(points)
    return True


def _root_free_on(
    f: Sequence[RationalFunction],
    g: Sequence[RationalFunction],
    lo: Fraction,
    hi: Fraction,
) -> bool:
    """True when Descartes' rule certifies that no f[x] - g[x] has a root in
    the open interval (lo, hi), a subinterval of (0, 1).

    The rule runs on each unreduced numerator.  Every value function's
    denominator divides det(I - aP), which has no root in [0, 1), so the
    unreduced and the reduced numerators have the same roots there, and any
    common factor of the reduced ones has none of its own.
    """
    for fx, gx in zip(f, g):
        num = unreduced_difference(fx, gx)
        if num and descartes_bound(num, lo, hi):
            return False
    return True


def _d_rules_at(mdp: Mdp, alpha: Fraction) -> frozenset[DecisionRule]:
    return rules_from_action_sets(optimal_set(mdp, alpha).d_alpha_sets)


def canonical_partition(mdp: Mdp) -> PartitionReport:
    """Exact decomposition of [0, 1) by the optimal-policy map.

    Stationary values are computed symbolically per rule; cut candidates are
    grown by sampling optimal sets at interval midpoints, isolating
    sign-change roots of value differences against the locally optimal value,
    and adding common-vanishing points (where some other policy's whole value
    vector meets the optimum).  The loop stabilizes in finitely many rounds,
    after which the set map is provably constant between consecutive points.
    """
    rules = enumerate_decision_rules(mdp)
    vfun = {rule: value_rational_function(mdp, rule) for rule in rules}
    classes: dict[tuple, list[DecisionRule]] = {}
    for rule in rules:
        key = tuple(rf.key() for rf in vfun[rule])
        classes.setdefault(key, []).append(rule)
    class_reps = [(members[0], vfun[members[0]]) for members in classes.values()]

    points: list[PartitionPoint] = []
    while True:
        bounds: list[PartitionPoint] = [Fraction(0)] + points + [Fraction(1)]
        added = False
        for i in range(len(bounds) - 1):
            lo_pt, hi_pt = bounds[i], bounds[i + 1]
            mid = _rational_inside(lo_pt, hi_pt)
            d_mid = _d_rules_at(mdp, mid)
            rep = min(d_mid)
            vstar = vfun[rep]
            hull_lo = point_position(lo_pt)[0]
            hull_hi = point_position(hi_pt)[1]
            for _, vec in class_reps:
                if _root_free_on(vstar, vec, hull_lo, hull_hi):
                    continue  # no difference has a root on the gap
                diffs = [vstar[x] - vec[x] for x in range(mdp.m)]
                nonzero = [d for d in diffs if not d.is_zero]
                if not nonzero:
                    continue  # same value function; optimal together
                candidates: list[IsolatedRoot] = []
                for d in nonzero:
                    for root in isolate_roots(d.num, hull_lo, hull_hi):
                        if root.multiplicity % 2 == 1:
                            candidates.append(root)
                common = reduce(poly_gcd, (d.num for d in nonzero))
                if common.degree > 0:
                    candidates.extend(isolate_roots(common, hull_lo, hull_hi))
                for root in candidates:
                    pt = _canonical(root)
                    if points_equal(pt, lo_pt) or points_equal(pt, hi_pt):
                        continue
                    if _add_point(points, pt):
                        added = True
        if not added:
            break

    # Evaluate D on each gap and at each point, then classify.
    bounds = [Fraction(0)] + points + [Fraction(1)]
    gap_sets: list[frozenset[DecisionRule]] = []
    gap_reps: list[DecisionRule] = []
    for i in range(len(bounds) - 1):
        mid = _rational_inside(bounds[i], bounds[i + 1])
        d = _d_rules_at(mdp, mid)
        gap_sets.append(d)
        gap_reps.append(min(d))

    irregular: list[IrregularPoint] = []
    keep: list[tuple[PartitionPoint, frozenset, frozenset, frozenset]] = []
    for i, pt in enumerate(points):
        d_left, d_right = gap_sets[i], gap_sets[i + 1]
        if isinstance(pt, Fraction):
            d_at = _d_rules_at(mdp, pt)
        else:
            rep = gap_reps[i]
            vstar = vfun[rep]
            members = []
            for rule in rules:
                diffs = [vstar[x] - vfun[rule][x] for x in range(mdp.m)]
                if all(
                    d.is_zero or polynomial_vanishes_at(d.num, pt) for d in diffs
                ):
                    members.append(rule)
            d_at = frozenset(members)
        if not (d_left | d_right) <= d_at:
            raise AssertionError("upper hemicontinuity violated; kernel bug")
        is_break = d_left != d_right
        is_touch = d_at != (d_left | d_right)
        if is_break or is_touch:
            kind = (
                "break+touching"
                if is_break and is_touch
                else ("break" if is_break else "touching")
            )
            irregular.append(IrregularPoint(pt, kind, d_at, d_left, d_right))
            keep.append((pt, d_at, d_left, d_right))

    # Irregularity of the left endpoint 0 (touching only; 0 has no left side).
    d0 = _d_rules_at(mdp, Fraction(0))
    d0_plus = gap_sets[0]
    zero_irregular = d0 != d0_plus
    if zero_irregular:
        irregular.insert(
            0,
            IrregularPoint(Fraction(0), "touching", d0, frozenset(), d0_plus),
        )

    # Merge gaps across dropped (regular) candidate points.
    intervals: list[PartitionInterval] = []
    kept_points = [p for (p, *_rest) in keep]
    cursor: PartitionPoint = Fraction(0)
    idx = 0
    for i, pt in enumerate(points + [Fraction(1)]):
        last = i == len(points)
        if last or any(points_equal(pt, kp) for kp in kept_points):
            hi = Fraction(1) if last else pt
            intervals.append(PartitionInterval(cursor, hi, gap_sets[i]))
            cursor = hi
        # dropped points simply extend the current interval
    blackwell: PartitionPoint = Fraction(0)
    if irregular:
        blackwell = irregular[-1].point
    return PartitionReport(
        irregular_points=tuple(irregular),
        intervals=tuple(intervals),
        blackwell_point=blackwell,
        value_functions=vfun,
    )


def one_sided_optimal_sets(
    mdp: Mdp, alpha: Fraction, report: PartitionReport | None = None
) -> tuple[frozenset[DecisionRule], frozenset[DecisionRule], frozenset[DecisionRule]]:
    """(D(alpha-), D(alpha), D(alpha+)); D(0-) is empty by convention."""
    if not (0 <= alpha < 1):
        raise ValueError("discount factor must lie in [0, 1)")
    report = canonical_partition(mdp) if report is None else report
    if alpha == 0:
        d0 = _d_rules_at(mdp, Fraction(0))
        return frozenset(), d0, report.intervals[0].d_set
    for ip in report.irregular_points:
        if points_equal(ip.point, alpha):
            return ip.d_left, ip.d_at, ip.d_right
    iv = report.interval_containing(alpha)
    return iv.d_set, _d_rules_at(mdp, alpha), iv.d_set


# -- piecewise-symbolic value iteration -------------------------------------------


@dataclass(frozen=True)
class PiecewiseValue:
    """One horizon of symbolic value iteration.

    cuts are the retained interior points; pieces[i] is the per-state
    polynomial vector on the i-th open interval; interval_sets / point_sets
    give the first-step-optimal action products (None at horizon 0).
    """

    horizon: int
    cuts: tuple[PartitionPoint, ...]
    pieces: tuple[tuple[Polynomial, ...], ...]
    interval_sets: tuple[ActionSets, ...] | None
    point_sets: tuple[ActionSets, ...] | None

    def bounds(self) -> list[PartitionPoint]:
        return [Fraction(0), *self.cuts, Fraction(1)]

    def piece_index_at(self, alpha: Fraction) -> int | None:
        """Index of the open piece containing alpha, or None if alpha is a cut."""
        for i, cut in enumerate(self.cuts):
            lo, hi = point_position(cut)
            if isinstance(cut, Fraction):
                if alpha == cut:
                    return None
                if alpha < cut:
                    return i
            else:
                if alpha <= lo:
                    return i
                if lo < alpha < hi:
                    # decide which side of the irrational cut alpha lies on
                    if count_roots_open(cut.defining, cut.lo, alpha) == 0:
                        return i
        return len(self.cuts)

    def sets_around(self, alpha: Fraction) -> tuple[ActionSets, ActionSets, ActionSets]:
        """(D_n(alpha-), D_n(alpha), D_n(alpha+)) as action products."""
        if self.interval_sets is None:
            raise ValueError("horizon 0 carries no first-step sets")
        for i, cut in enumerate(self.cuts):
            if isinstance(cut, Fraction) and cut == alpha:
                return (
                    self.interval_sets[i],
                    self.point_sets[i],
                    self.interval_sets[i + 1],
                )
        idx = self.piece_index_at(alpha)
        s = self.interval_sets[idx]
        return s, s, s


def _settle_inside(
    pt: PartitionPoint, bounds: list[PartitionPoint], idx: int
) -> PartitionPoint | None:
    """Refine pt (and, in place, the enclosing bound brackets) until pt lies
    strictly between bounds[idx] and bounds[idx + 1]; None when pt's root is
    actually outside that open gap."""
    while True:
        lo_b, hi_b = bounds[idx], bounds[idx + 1]
        lo_edge = point_position(lo_b)[1]
        hi_edge = point_position(hi_b)[0]
        p_lo, p_hi = point_position(pt)
        if lo_edge < p_lo and p_hi < hi_edge:
            return pt
        if p_hi <= point_position(lo_b)[0] or p_lo >= point_position(hi_b)[1]:
            return None
        progress = False
        if isinstance(pt, IsolatedRoot) and pt.exact is None:
            pt = pt.refined((pt.hi - pt.lo) / 4)
            progress = True
        if (
            isinstance(lo_b, IsolatedRoot)
            and lo_b.exact is None
            and not point_position(lo_b)[1] < point_position(pt)[0]
        ):
            bounds[idx] = lo_b.refined((lo_b.hi - lo_b.lo) / 4)
            progress = True
        if (
            isinstance(hi_b, IsolatedRoot)
            and hi_b.exact is None
            and not point_position(pt)[1] < point_position(hi_b)[0]
        ):
            bounds[idx + 1] = hi_b.refined((hi_b.hi - hi_b.lo) / 4)
            progress = True
        if not progress:
            raise AssertionError("cannot separate coincident partition points")


def _poly_eval_argmax(qs: Sequence[Polynomial], pt: Fraction) -> frozenset[int]:
    vals = [q(pt) for q in qs]
    best = max(vals)
    return frozenset(k for k, v in enumerate(vals) if v == best)


def _argmax_at_bracket(
    qs: Sequence[Polynomial], qmax: Polynomial, pt: IsolatedRoot
) -> frozenset[int]:
    out = set()
    for k, q in enumerate(qs):
        d = q - qmax
        if d.is_zero or polynomial_vanishes_at(d, pt):
            out.add(k)
    return frozenset(out)


def _step_piecewise(mdp: Mdp, pw: PiecewiseValue) -> PiecewiseValue:
    bounds: list[PartitionPoint] = pw.bounds()
    cut_records: list[tuple[str, object]] = []  # ('bound', idx) | ('local', point)
    pieces: list[tuple[Polynomial, ...]] = []
    isets: list[ActionSets] = []
    psets: list[ActionSets] = []

    for idx, pvec in enumerate(pw.pieces):
        qs = [
            [
                Polynomial.constant(mdp.rewards[i][k])
                + sum(
                    (
                        pvec[j] * mdp.transitions[i][k][j]
                        for j in range(mdp.m)
                        if mdp.transitions[i][k][j] != 0
                    ),
                    Polynomial(),
                ).shift_up(1)
                for k in range(mdp.action_count(i))
            ]
            for i in range(mdp.m)
        ]
        hull_lo = point_position(bounds[idx])[0]
        hull_hi = point_position(bounds[idx + 1])[1]
        raw: list[PartitionPoint] = []
        for i in range(mdp.m):
            for a in range(mdp.action_count(i)):
                for b in range(a + 1, mdp.action_count(i)):
                    d = qs[i][a] - qs[i][b]
                    if d.is_zero:
                        continue
                    for root in isolate_roots(d, hull_lo, hull_hi):
                        pt = _canonical(root)
                        if points_equal(pt, bounds[idx]) or points_equal(
                            pt, bounds[idx + 1]
                        ):
                            continue
                        if not any(points_equal(pt, seen) for seen in raw):
                            raw.append(pt)
        local: list[PartitionPoint] = []
        for pt in _sorted_disjoint(raw):
            settled = _settle_inside(pt, bounds, idx)
            if settled is not None:
                local.append(settled)
        local.sort(key=point_position)

        # Point set at the boundary shared with the previous piece; the two
        # sides agree in value there, so the current q's may be used.
        if idx > 0:
            boundary = bounds[idx]
            if isinstance(boundary, Fraction):
                pset = tuple(
                    _poly_eval_argmax(qs[i], boundary) for i in range(mdp.m)
                )
            else:
                mid_right = _rational_inside(
                    boundary, local[0] if local else bounds[idx + 1]
                )
                maxpolys = [
                    qs[i][max(range(len(qs[i])), key=lambda k: qs[i][k](mid_right))]
                    for i in range(mdp.m)
                ]
                pset = tuple(
                    _argmax_at_bracket(qs[i], maxpolys[i], boundary)
                    for i in range(mdp.m)
                )
            cut_records.append(("bound", idx))
            psets.append(pset)

        sub_bounds = [bounds[idx], *local, bounds[idx + 1]]
        for s in range(len(sub_bounds) - 1):
            mid = _rational_inside(sub_bounds[s], sub_bounds[s + 1])
            piece_polys = []
            piece_sets = []
            for i in range(mdp.m):
                vals = [q(mid) for q in qs[i]]
                best_idx = max(range(len(vals)), key=lambda k: vals[k])
                best_poly = qs[i][best_idx]
                piece_polys.append(best_poly)
                piece_sets.append(
                    frozenset(k for k, q in enumerate(qs[i]) if q == best_poly)
                )
            if s > 0:
                cut = sub_bounds[s]
                if isinstance(cut, Fraction):
                    pset = tuple(
                        _poly_eval_argmax(qs[i], cut) for i in range(mdp.m)
                    )
                else:
                    pset = tuple(
                        _argmax_at_bracket(qs[i], piece_polys[i], cut)
                        for i in range(mdp.m)
                    )
                cut_records.append(("local", cut))
                psets.append(pset)
            pieces.append(tuple(piece_polys))
            isets.append(tuple(piece_sets))

    cuts: list[PartitionPoint] = [
        bounds[payload] if kind == "bound" else payload
        for kind, payload in cut_records
    ]

    # Merge pieces across cuts that change neither the polynomials, the
    # interval sets, nor the value of the set at the point itself.
    merged_cuts: list[PartitionPoint] = []
    merged_pieces = [pieces[0]]
    merged_isets = [isets[0]]
    merged_psets: list[ActionSets] = []
    for i, cut in enumerate(cuts):
        left_piece, right_piece = merged_pieces[-1], pieces[i + 1]
        left_set, right_set = merged_isets[-1], isets[i + 1]
        if (
            left_piece == right_piece
            and left_set == right_set
            and psets[i] == left_set
        ):
            continue
        merged_cuts.append(cut)
        merged_psets.append(psets[i])
        merged_pieces.append(right_piece)
        merged_isets.append(right_set)

    if len(merged_pieces) > piece_cap():
        raise CapExceededError("piece", len(merged_pieces), piece_cap())
    return PiecewiseValue(
        horizon=pw.horizon + 1,
        cuts=tuple(merged_cuts),
        pieces=tuple(merged_pieces),
        interval_sets=tuple(merged_isets),
        point_sets=tuple(merged_psets),
    )


def symbolic_value_iteration(mdp: Mdp, n_max: int) -> list[PiecewiseValue]:
    """Value functions of horizons 0..n_max as piecewise polynomials in the
    discount factor, with the first-step partition at every horizon."""
    cap = symbolic_horizon_cap()
    if n_max > cap:
        raise CapExceededError("symbolic-horizon", n_max, cap)
    levels = [
        PiecewiseValue(
            horizon=0,
            cuts=(),
            pieces=(tuple(Polynomial.constant(t) for t in mdp.terminal),),
            interval_sets=None,
            point_sets=None,
        )
    ]
    for _ in range(n_max):
        levels.append(_step_piecewise(mdp, levels[-1]))
    return levels


@dataclass(frozen=True)
class FirstStepClassification:
    kind: str  # 'regular', 'break', 'touching', 'break+touching'
    left: ActionSets
    at: ActionSets
    right: ActionSets


def classify_first_step(pw: PiecewiseValue, alpha: Fraction) -> FirstStepClassification:
    left, at, right = pw.sets_around(alpha)
    is_break = left != right
    union = tuple(l | r for l, r in zip(left, right))
    is_touch = at != union
    kind = "regular"
    if is_break and is_touch:
        kind = "break+touching"
    elif is_break:
        kind = "break"
    elif is_touch:
        kind = "touching"
    return FirstStepClassification(kind, left, at, right)


def first_step_classify(mdp: Mdp, alpha: Fraction, n: int) -> FirstStepClassification:
    """Classify alpha for the horizon-n first-step-optimal map."""
    if n < 1:
        raise ValueError("horizon must be positive")
    levels = symbolic_value_iteration(mdp, n)
    return classify_first_step(levels[n], alpha)
