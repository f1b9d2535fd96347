"""Canonical partition of the discount interval and piecewise-symbolic value
iteration.

The discount interval [0, 1) splits into finitely many open intervals on
which the set of optimal stationary policies is constant, separated by
irregular points (break points, where the one-sided optimal sets differ, and
touching points, where a policy is optimal only at the point itself).  The
same structure exists at every finite horizon for the first-step-optimal
sets; both are computed here with exact arithmetic and told apart by one
``classify``.  Each such set -- D(alpha), D(alpha-), D(alpha+) or a first-step
set D_n(alpha) -- is held as per-state action sets (``ActionSets``), and
``PartitionReport.sets_around`` and ``PiecewiseValue.sets_around`` read the
one-sided sets at any rational point off the structure without solving again.
Once a partition exists, ``PartitionReport.optimal_at`` gives D(alpha) and
V*(alpha) without policy iteration: D is the set of alpha's cell or
irregular point, V* the stored value functions of D's smallest rule at
alpha, and one integer Q pass certifies both.  Irrational separation points
are carried as isolating brackets, never as floats.

Symbolic value iteration's inner loop runs on integers.  Each pair
difference q_a - q_b and each tie test q_k - q_max is a positive integer
multiple of the difference, left unreduced (``_diff``): root isolation and
the vanishing test read only its signs and its primitive and square-free
forms.  The argmax at a rational point compares homogenized integer values
that share one positive factor (``_scaled_values``), with no ``Fraction``
per Q value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .bellman import (
    ActionSets,
    OptSets,
    _integer_form,
    _q_nums,
    _sets_at_fixed_point,
    _vector,
    optimal_set,
    product_subset,
    smallest_rule,
)
from .exactarith import (
    IsolatedRoot,
    Point,
    Polynomial,
    RationalFunction,
    _homogeneous_value,
    _poly,
    _sub_ints,
    descartes_bound,
    isolate_roots,
    point_position,
    point_sign,
    points_equal,
    poly_gcd,
    polynomial_vanishes_at,
    unreduced_difference,
    value_rational_function,
    values_at,
)
from .limits import CapExceededError, piece_cap, symbolic_horizon_cap
from .mdp import DecisionRule, Mdp, count_rules, enumerate_decision_rules

@dataclass(frozen=True)
class IrregularPoint:
    point: Point
    kind: str  # 'break', 'touching', 'break+touching'
    d_at: ActionSets
    d_left: ActionSets
    d_right: ActionSets


@dataclass(frozen=True)
class PartitionInterval:
    lo: Point
    hi: Point
    d_set: ActionSets


@dataclass(frozen=True)
class PartitionReport:
    irregular_points: tuple[IrregularPoint, ...]
    intervals: tuple[PartitionInterval, ...]
    blackwell_point: Point
    value_functions: dict[DecisionRule, tuple[RationalFunction, ...]]

    def interval_containing(self, alpha: Fraction) -> PartitionInterval:
        for iv in self.intervals:
            if point_sign(iv.lo, alpha) < 0 < point_sign(iv.hi, alpha):
                return iv
        raise ValueError(f"no partition interval contains {alpha}")

    def sets_around(self, alpha: Fraction) -> tuple[ActionSets, ActionSets, ActionSets]:
        """(D(alpha-), D(alpha), D(alpha+)), read off the partition: D is
        constant on each open interval, and a regular point's set is its
        interval's.  D(0-) has no rules by convention."""
        if not (0 <= alpha < 1):
            raise ValueError("discount factor must lie in [0, 1)")
        for ip in self.irregular_points:
            if points_equal(ip.point, alpha):
                return ip.d_left, ip.d_at, ip.d_right
        first = self.intervals[0].d_set
        if alpha == 0:
            return (frozenset(),) * len(first), first, first
        d = self.interval_containing(alpha).d_set
        return d, d, d

    def optimal_at(self, mdp: Mdp, alpha: Fraction) -> OptSets:
        """D(alpha) and V*(alpha) of mdp, the MDP this partition is of, read
        off the partition instead of solved: D from ``sets_around`` and V* as
        the stored value functions of D's smallest rule at alpha.  One
        integer Q pass certifies both, the fixed-point check that
        ``optimal_set`` ends with: the argmax sets must be D and the row
        maxima V* itself, else AssertionError."""
        d_sets = self.sets_around(alpha)[1]
        nums, den = values_at(self.value_functions[smallest_rule(d_sets)], alpha)
        form = _integer_form(mdp, alpha)
        if _sets_at_fixed_point(form, nums, den, _q_nums(form, nums, den)) != d_sets:
            raise AssertionError(f"partition sets fail the optimality check at {alpha}")
        return OptSets(_vector(nums, den, alpha, None), d_sets)


def _rational_inside(lo_pt: Point, hi_pt: Point) -> Fraction:
    lo = point_position(lo_pt)[1]
    hi = point_position(hi_pt)[0]
    if not lo < hi:
        raise AssertionError("empty gap between partition points")
    return (lo + hi) / 2


def _sorted_disjoint(points: list[Point]) -> list[Point]:
    rationals = sorted({p for p in points if isinstance(p, Fraction)})
    brackets = [p for p in points if isinstance(p, IsolatedRoot)]
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
    merged: list[Point] = list(rationals) + list(refined)
    merged.sort(key=lambda p: point_position(p))
    return merged


def _clear_of_ends(pt: Point) -> Point:
    """Refine a bracket until it lies strictly inside (0, 1), so the gaps it
    makes with the bounds 0 and 1 are not empty; the root lies in the open
    interval, so this ends."""
    while isinstance(pt, IsolatedRoot) and (pt.lo <= 0 or pt.hi >= 1):
        pt = pt.refined((pt.hi - pt.lo) / 4)
    return pt


def _add_point(points: list[Point], new: Point) -> bool:
    """Insert a new point, keeping every bracket's closed hull clear of the
    rational points, so no gap between neighbours is empty."""
    new = _clear_of_ends(new)
    for p in points:
        if points_equal(p, new):
            return False
    points.append(new)
    points[:] = _sorted_disjoint(points)
    rationals = [p for p in points if isinstance(p, Fraction)]
    points[:] = [_clear_of(pt, rationals) for pt in points]
    return True


def _clear_of(pt: Point, rationals: Sequence[Fraction]) -> Point:
    """Refine a bracket until its closed hull holds none of the rationals;
    the root is irrational, so bisection leaves each rational behind."""
    while isinstance(pt, IsolatedRoot) and any(pt.lo <= q <= pt.hi for q in rationals):
        pt = pt.refined((pt.hi - pt.lo) / 4)
    return pt


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


def classify(left: ActionSets, at: ActionSets, right: ActionSets) -> str:
    """'regular', 'break', 'touching' or 'break+touching' for a point whose
    optimal sets are ``left`` just left of it, ``at`` at it, ``right`` just
    right.  A break has left != right; a touching point has a rule optimal
    only at the point itself.  The union of the one-sided sets lies in
    ``at``, so that is |at| != |left| + |right| - |left & right|."""
    is_break = left != right
    both = tuple(a & b for a, b in zip(left, right))
    union = count_rules(left) + count_rules(right) - count_rules(both)
    is_touch = count_rules(at) != union
    if is_break and is_touch:
        return "break+touching"
    if is_break:
        return "break"
    return "touching" if is_touch else "regular"


def _optimal_at_root(
    mdp: Mdp, vfun: dict, rule: DecisionRule, pt: IsolatedRoot
) -> ActionSets:
    """D at an irrational point, given a rule optimal there: action a is
    conserving at state s exactly when the rule switched to a at s keeps the
    optimal value at pt, so sum |A(s)| value comparisons decide the sets."""

    def conserving(s: int, a: int) -> bool:
        switched = DecisionRule(rule.choices[:s] + (a,) + rule.choices[s + 1 :])
        diffs = (v - w for v, w in zip(vfun[rule], vfun[switched]))
        return all(d.is_zero or polynomial_vanishes_at(d.num, pt) for d in diffs)

    return tuple(
        frozenset(a for a in range(mdp.action_count(s)) if conserving(s, a))
        for s in range(mdp.m)
    )


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
    solved: dict[Fraction, ActionSets] = {}

    def sets_at(alpha: Fraction) -> ActionSets:
        # a first-round midpoint can come back as a partition point
        if alpha not in solved:
            solved[alpha] = optimal_set(mdp, alpha).d_alpha_sets
        return solved[alpha]

    vfun = {rule: value_rational_function(mdp, rule) for rule in rules}
    classes: dict[tuple, list[DecisionRule]] = {}
    for rule in rules:
        classes.setdefault(vfun[rule], []).append(rule)
    class_reps = [(members[0], vfun[members[0]]) for members in classes.values()]

    points: list[Point] = []
    while True:
        bounds: list[Point] = [Fraction(0)] + points + [Fraction(1)]
        gap_sets: list[ActionSets] = []
        added = False
        for i in range(len(bounds) - 1):
            lo_pt, hi_pt = bounds[i], bounds[i + 1]
            mid = _rational_inside(lo_pt, hi_pt)
            gap_sets.append(sets_at(mid))
            vstar = vfun[smallest_rule(gap_sets[-1])]
            hull_lo = point_position(lo_pt)[0]
            hull_hi = point_position(hi_pt)[1]
            for _, vec in class_reps:
                if _root_free_on(vstar, vec, hull_lo, hull_hi):
                    continue  # no difference has a root on the gap
                diffs = [vstar[x] - vec[x] for x in range(mdp.m)]
                nonzero = [d for d in diffs if not d.is_zero]
                if not nonzero:
                    continue  # same value function; optimal together
                candidates: list[Point] = []
                for d in nonzero:
                    for root, mult in isolate_roots(d.num, hull_lo, hull_hi):
                        if mult % 2 == 1:
                            candidates.append(root)
                common = reduce(poly_gcd, (d.num for d in nonzero))
                if common.degree > 0:
                    candidates.extend(
                        root for root, _ in isolate_roots(common, hull_lo, hull_hi)
                    )
                for pt in candidates:
                    if points_equal(pt, lo_pt) or points_equal(pt, hi_pt):
                        continue
                    if _add_point(points, pt):
                        added = True
        if not added:
            break

    # The last round added no point, so its gaps are the final ones and
    # gap_sets holds D on each; evaluate D at each point and classify.
    irregular: list[IrregularPoint] = []
    kept: list[int] = []
    for i, pt in enumerate(points):
        d_left, d_right = gap_sets[i], gap_sets[i + 1]
        if isinstance(pt, Fraction):
            d_at = sets_at(pt)
        else:
            d_at = _optimal_at_root(mdp, vfun, smallest_rule(d_left), pt)
        if not (product_subset(d_left, d_at) and product_subset(d_right, d_at)):
            raise AssertionError("upper hemicontinuity violated; kernel bug")
        kind = classify(d_left, d_at, d_right)
        if kind != "regular":
            irregular.append(IrregularPoint(pt, kind, d_at, d_left, d_right))
            kept.append(i)

    # Irregularity of the left endpoint 0: touching only, as 0 has no left
    # side, so it is classified with its right side on both.
    d0, d0_plus = sets_at(Fraction(0)), gap_sets[0]
    kind = classify(d0_plus, d0, d0_plus)
    if kind != "regular":
        no_rules = (frozenset(),) * mdp.m
        irregular.insert(0, IrregularPoint(Fraction(0), kind, d0, no_rules, d0_plus))

    # Merge gaps across dropped (regular) candidate points.
    intervals: list[PartitionInterval] = []
    cursor: Point = Fraction(0)
    for i in kept + [len(points)]:
        hi = points[i] if i < len(points) else Fraction(1)
        intervals.append(PartitionInterval(cursor, hi, gap_sets[i]))
        cursor = hi
    blackwell: Point = Fraction(0)
    if irregular:
        blackwell = irregular[-1].point
    return PartitionReport(
        irregular_points=tuple(irregular),
        intervals=tuple(intervals),
        blackwell_point=blackwell,
        value_functions=vfun,
    )


# -- piecewise-symbolic value iteration -------------------------------------------


@dataclass(frozen=True)
class PiecewiseValue:
    """One horizon of symbolic value iteration.

    cuts are the retained interior points; pieces[i] is the per-state
    polynomial vector on the i-th open interval; interval_sets / point_sets
    give the first-step-optimal action products (None at horizon 0).
    """

    horizon: int
    cuts: tuple[Point, ...]
    pieces: tuple[tuple[Polynomial, ...], ...]
    interval_sets: tuple[ActionSets, ...] | None
    point_sets: tuple[ActionSets, ...] | None

    def bounds(self) -> list[Point]:
        return [Fraction(0), *self.cuts, Fraction(1)]

    def piece_index_at(self, alpha: Fraction) -> int | None:
        """Index of the open piece containing alpha, or None if alpha is a cut."""
        for i, cut in enumerate(self.cuts):
            sign = point_sign(cut, alpha)
            if sign == 0:
                return None
            if sign > 0:
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
    pt: Point, bounds: list[Point], idx: int
) -> Point | None:
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
        if isinstance(pt, IsolatedRoot):
            pt = pt.refined((pt.hi - pt.lo) / 4)
            progress = True
        if isinstance(lo_b, IsolatedRoot) and not lo_b.hi < point_position(pt)[0]:
            bounds[idx] = lo_b.refined((lo_b.hi - lo_b.lo) / 4)
            progress = True
        if isinstance(hi_b, IsolatedRoot) and not point_position(pt)[1] < hi_b.lo:
            bounds[idx + 1] = hi_b.refined((hi_b.hi - hi_b.lo) / 4)
            progress = True
        if not progress:
            raise AssertionError("cannot separate coincident partition points")


def _diff(a: Polynomial, b: Polynomial) -> Polynomial:
    """A positive integer multiple of a - b, over 1: both cross-scaled to the
    lcm of their denominators and subtracted, with no content reduction.
    Root isolation and ``polynomial_vanishes_at`` read only its signs and
    its primitive and square-free forms, which the multiple leaves alone."""
    x, y = a.ints, b.ints
    if a.den != b.den:
        den = math.lcm(a.den, b.den)
        x = [c * (den // a.den) for c in x]
        y = [c * (den // b.den) for c in y]
    return _poly(_sub_ints(x, y))


def _scaled_values(qs: Sequence[Polynomial], pt: Fraction) -> list[int]:
    """q(pt) for each q in qs, all times one positive factor d^top·M, where
    pt = n/d, top is the largest degree and M the lcm of the denominators:
    q's homogenized value at n/d times d^(top - deg q)·(M / q.den)."""
    n, d = pt.numerator, pt.denominator
    top = max(q.degree for q in qs)
    big = math.lcm(*(q.den for q in qs))
    return [
        _homogeneous_value(q.ints, n, d) * d ** (top - q.degree) * (big // q.den)
        for q in qs
    ]


def _first_argmax(qs: Sequence[Polynomial], pt: Fraction) -> int:
    vals = _scaled_values(qs, pt)
    return max(range(len(vals)), key=vals.__getitem__)


def _poly_eval_argmax(qs: Sequence[Polynomial], pt: Fraction) -> frozenset[int]:
    vals = _scaled_values(qs, pt)
    best = max(vals)
    return frozenset(k for k, v in enumerate(vals) if v == best)


def _argmax_at_bracket(
    qs: Sequence[Polynomial], qmax: Polynomial, pt: IsolatedRoot
) -> frozenset[int]:
    out = set()
    for k, q in enumerate(qs):
        d = _diff(q, qmax)
        if d.is_zero or polynomial_vanishes_at(d, pt):
            out.add(k)
    return frozenset(out)


def _q_polynomials(mdp: Mdp, pvec: Sequence[Polynomial]) -> list[list[Polynomial]]:
    """Q(i, k) = r(i, k) + alpha * sum_j P(i, k, j) * pvec[j] from the integer
    table: with pvec[j] = nums[j] / d, its coefficients are L*r(i, k)*d, then
    sum_j L*P(i, k, j) * nums[j] shifted up by one, over L*d."""
    table = mdp.integer_table
    d = math.lcm(*(v.den for v in pvec))
    nums = [[c * (d // v.den) for c in v.ints] for v in pvec]
    width = max(map(len, nums))

    def q(r: int, row) -> Polynomial:
        acc = [r * d] + [0] * width
        for j, w in row:
            for t, c in enumerate(nums[j], 1):
                acc[t] += w * c
        return _poly(acc, table.scale * d)

    return [list(map(q, rs, acts)) for rs, acts in zip(table.rewards, table.rows)]


def _step_piecewise(mdp: Mdp, pw: PiecewiseValue) -> PiecewiseValue:
    bounds: list[Point] = pw.bounds()
    cut_records: list[tuple[str, object]] = []  # ('bound', idx) | ('local', point)
    pieces: list[tuple[Polynomial, ...]] = []
    isets: list[ActionSets] = []
    psets: list[ActionSets] = []

    for idx, pvec in enumerate(pw.pieces):
        qs = _q_polynomials(mdp, pvec)
        hull_lo = point_position(bounds[idx])[0]
        hull_hi = point_position(bounds[idx + 1])[1]
        raw: list[Point] = []
        for i in range(mdp.m):
            for a in range(mdp.action_count(i)):
                for b in range(a + 1, mdp.action_count(i)):
                    d = _diff(qs[i][a], qs[i][b])
                    if d.is_zero:
                        continue
                    for pt, _ in isolate_roots(d, hull_lo, hull_hi):
                        if points_equal(pt, bounds[idx]) or points_equal(
                            pt, bounds[idx + 1]
                        ):
                            continue
                        if not any(points_equal(pt, seen) for seen in raw):
                            raw.append(pt)
        local: list[Point] = []
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
                maxpolys = [qs[i][_first_argmax(qs[i], mid_right)] for i in range(mdp.m)]
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
                best_poly = qs[i][_first_argmax(qs[i], mid)]
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

    cuts: list[Point] = [
        bounds[payload] if kind == "bound" else payload
        for kind, payload in cut_records
    ]

    # Merge pieces across cuts that change neither the polynomials, the
    # interval sets, nor the value of the set at the point itself.
    merged_cuts: list[Point] = []
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


def first_step_classify(mdp: Mdp, alpha: Fraction, n: int) -> FirstStepClassification:
    """Classify alpha for the horizon-n first-step-optimal map."""
    if n < 1:
        raise ValueError("horizon must be positive")
    left, at, right = symbolic_value_iteration(mdp, n)[n].sets_around(alpha)
    return FirstStepClassification(classify(left, at, right), left, at, right)
