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
one-sided sets at any rational point of [0, 1) off the structure without
solving again.
The partition's refinement loop settles most gaps from one rule.  With pi*
the smallest rule optimal at a gap's sample point, the advantage numerators
L·Delta·A(s, a) over pi*'s values N / Delta (``_advantage_numerators``)
have the advantages' signs on [0, 1).  When Descartes' rule clears every
nonzero one on the gap's hull, D is constant on the gap and it is final
(``_break_free``; Hordijk, Dekker & Kallenberg 1985).  Otherwise the loose
actions, whose numerators it does not clear (``_loose_actions``), drive a
search over classes of rules with equal values (``_class_key``), each rule
solved as (N, Delta) on first lookup.  Any other advantage is <= 0 at the
sample point and root-free on the open hull, so identically 0 or negative
there.  As V_pi* - V_sigma = (I - alpha·P_sigma)^-1 (-A(., sigma(.))) with
a nonnegative resolvent of positive diagonal, a rule sigma through no loose
action gives no candidate: each value difference is identically 0 or
positive there.  Likewise, where a rule is optimal, a is conserving at s
exactly when A(s, a) vanishes (``_optimal_at_root``).
Once a partition exists, ``PartitionReport.optimal_at`` gives D(alpha) and
V*(alpha) without policy iteration: D is the set of alpha's cell or
irregular point, V* the value functions of D's smallest rule at alpha, and
one integer Q pass certifies both.  Irrational separation points
are carried as isolating brackets, never as floats, and every set of them
is kept apart by ``exactarith.separate_points``; ``_settle_inside`` also
refines a step's points against the previous horizon's cuts.

Symbolic value iteration's inner loop runs on integers.  On each piece the
Q values are raw integer numerators of one common length over one
denominator (``_q_numerators``), so a pair difference q_a - q_b is a list
subtraction, a positive integer multiple of the difference, left
unreduced: root isolation reads only its signs and its primitive and
square-free forms.  The argmax at a rational point compares the lists'
homogenized values, which share one positive factor (``_values_at``), and
an interval set compares lists.  A ``Polynomial`` is built only for each
state's chosen Q, which the level stores, and for a pair difference that
goes to ``isolate_roots``.  Before that, ``exactarith._excludes_roots``
certifies most pair differences root-free on the piece's closed hull from
a bound on the derivative at O(d) cost, and those pairs skip isolation.

The tie sets at irrational points come off the same pair isolation.  On
each piece the step records which pairs (state, a, b) are identically zero,
which vanish at the piece's left bound, and which produced each local
point.  An irrational cut or left bound lies strictly inside the piece's
open hull, so every pair root there has been isolated; the actions tied
with the best one there are those whose pair with it is zero or recorded at
that point (``_tie_set``), and no vanishing test runs.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import product
from typing import Iterator, Sequence

from .bellman import (
    ActionSets,
    OptSets,
    _argmax,
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
    RuleValues,
    _exact_div_ints,
    _excludes_roots,
    _gcd_ints,
    _homogeneous_value,
    _mul_ints,
    _poly,
    _sub_ints,
    _value_solve,
    clear_of,
    descartes_bound,
    insert_point,
    isolate_roots,
    point_position,
    point_sign,
    points_equal,
    polynomial_vanishes_at,
    separate_points,
    value_difference,
    values_at,
)
from .limits import CapExceededError, piece_cap, symbolic_horizon_cap
from .mdp import DecisionRule, Mdp, capped_rule_count, count_rules

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
    value_functions: Mapping[DecisionRule, RuleValues]

    def interval_containing(self, alpha: Fraction) -> PartitionInterval:
        for iv in self.intervals:
            if point_sign(iv.lo, alpha) < 0 < point_sign(iv.hi, alpha):
                return iv
        raise ValueError(f"no partition interval contains {alpha}")

    def sets_around(self, alpha: Fraction) -> tuple[ActionSets, ActionSets, ActionSets]:
        """(D(alpha-), D(alpha), D(alpha+)), read off the partition: D is
        constant on each open interval, and a regular point's set is its
        interval's.  D(0-) has no rules by convention."""
        _check_discount(alpha)
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


def _check_discount(alpha: Fraction) -> None:
    if not (0 <= alpha < 1):
        raise ValueError("discount factor must lie in [0, 1)")


def _rational_inside(lo_pt: Point, hi_pt: Point) -> Fraction:
    lo = point_position(lo_pt)[1]
    hi = point_position(hi_pt)[0]
    if not lo < hi:
        raise AssertionError("empty gap between partition points")
    return (lo + hi) / 2


def _add_point(points: list[Point], new: Point) -> bool:
    """Insert a new point, clear of 0 and 1, keeping the set apart."""
    return insert_point(points, clear_of(new, (Fraction(0), Fraction(1))))


class _ValueFunctions(Mapping):
    """Every decision rule's values (N, Δ), ``_value_solve``'s output, in the
    order of ``enumerate_decision_rules``, each solved on first lookup.  A
    rule's advantages come from the same solve."""

    def __init__(self, mdp: Mdp):
        self._mdp = mdp
        self._ranges = [range(mdp.action_count(s)) for s in range(mdp.m)]
        self._len = capped_rule_count(self._ranges)
        self._solves: dict[DecisionRule, RuleValues] = {}
        self._advantages: dict[DecisionRule, list[list[list[int]]]] = {}

    def __getitem__(self, rule: DecisionRule) -> RuleValues:
        if rule not in self._solves:
            if not (
                isinstance(rule, DecisionRule)
                and len(rule.choices) == len(self._ranges)
                and all(a in r for a, r in zip(rule.choices, self._ranges))
            ):
                raise KeyError(rule)
            self._solves[rule] = _value_solve(self._mdp, rule)
        return self._solves[rule]

    def __iter__(self) -> Iterator[DecisionRule]:
        return map(DecisionRule, product(*self._ranges))

    def __len__(self) -> int:
        return self._len

    def advantages(self, rule: DecisionRule) -> list[list[list[int]]]:
        """``_advantage_numerators`` of the rule's values, built once."""
        if rule not in self._advantages:
            self._advantages[rule] = _advantage_numerators(self._mdp, *self[rule])
        return self._advantages[rule]


def _class_key(values: RuleValues) -> RuleValues:
    """(N, Δ) divided by the gcd of its m + 1 polynomials and by their
    content, with Δ(0) > 0.  What is left is the lcm of the reduced value
    functions' denominators and the numerators over it, so two rules have
    equal keys exactly when their value vectors are equal."""
    nums, det = values
    g = reduce(_gcd_ints, filter(None, nums), det)
    if len(g) > 1:
        nums, det = [_exact_div_ints(num, g) for num in nums], _exact_div_ints(det, g)
    c = math.gcd(*det, *(v for num in nums for v in num)) * (1 if det[0] > 0 else -1)
    return tuple(tuple(v // c for v in num) for num in nums), tuple(v // c for v in det)


def _crossing_numerators(
    f: RuleValues, g: RuleValues, lo: Fraction, hi: Fraction
) -> list[list[int]]:
    """The nonzero differences V_f(x) - V_g(x) as numerators in lowest
    terms, or [] when Descartes' rule finds none with a root in (lo, hi), a
    subinterval of (0, 1).  The screen reads ``value_difference``, which has
    each difference's roots on [0, 1) with no gcd; past it, dividing by the
    gcd with Δ·Δ' leaves the reduced numerator up to a constant factor."""
    diffs = [value_difference(f, g, x) for x in range(len(f[0]))]
    if all(not u or not descartes_bound(u, lo, hi) for u in diffs):
        return []
    both = _mul_ints(f[1], g[1])
    return [_exact_div_ints(u, _gcd_ints(u, both)) for u in diffs if u]


def _q_lists(
    table, nums: Sequence[Sequence[int]], den: Sequence[int]
) -> list[list[list[int]]]:
    """L·r(i, k)·den + alpha·Σⱼ L·P(i, k, j)·nums[j] for each state i and
    action k, as integer coefficients in alpha, all of one length: the
    numerators of Q(i, k) over L·den when the values are nums / den."""
    width = max(len(den), 1 + max(map(len, nums)))

    def q(r: int, row) -> list[int]:
        acc = [0] * width
        for t, c in enumerate(den):
            acc[t] = r * c
        for j, w in row:
            for t, c in enumerate(nums[j], 1):
                acc[t] += w * c
        return acc

    return [list(map(q, rs, acts)) for rs, acts in zip(table.rewards, table.rows)]


def _advantage_numerators(
    mdp: Mdp, nums: Sequence[Sequence[int]], det: Sequence[int]
) -> list[list[list[int]]]:
    """L·Δ·A(s, a) for each state s and action a, as integer coefficients in
    alpha, where A(s, a) = r(s, a) + alpha·Σⱼ P(s, a, j)·vⱼ − v_s is the
    advantage of a at s over the rule whose values v are nums / det = N / Δ
    (from ``_value_solve``): the Q numerator of a over N / Δ less L·N_s.
    Δ > 0 on [0, 1), so each has its advantage's sign there."""
    scale = mdp.integer_table.scale
    return [
        [_sub_ints(q, [scale * c for c in nums[s]]) for q in row]
        for s, row in enumerate(_q_lists(mdp.integer_table, nums, det))
    ]


def _break_free(
    advantages: Sequence[Sequence[list[int]]], lo: Fraction, hi: Fraction
) -> bool:
    """True when Descartes' rule certifies that none of the nonzero
    advantage numerators has a root in the open interval (lo, hi)."""
    return all(not num or descartes_bound(num, lo, hi) == 0 for row in advantages for num in row)


def _loose_actions(advantages: Sequence[Sequence[list[int]]], lo, hi) -> list[set[int]]:
    """Each state's actions whose advantage numerator is nonzero and has a
    Descartes count above 0 on (lo, hi)."""
    return [
        {a for a, num in enumerate(row) if num and descartes_bound(num, lo, hi)}
        for row in advantages
    ]


def _hull_within(hulls: list[tuple[Fraction, Fraction]], lo: Fraction, hi: Fraction) -> bool:
    return any(a <= lo and hi <= b for a, b in hulls)


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


def _optimal_at_root(advantages: Sequence[Sequence[list[int]]], pt: IsolatedRoot) -> ActionSets:
    """D at an irrational point, from the advantage numerators of a rule
    optimal there; a zero numerator vanishes everywhere."""
    return tuple(
        frozenset(a for a, num in enumerate(row) if polynomial_vanishes_at(_poly(num), pt))
        for row in advantages
    )


def canonical_partition(mdp: Mdp) -> PartitionReport:
    """Exact decomposition of [0, 1) by the optimal-policy map.

    Cut candidates are grown gap by gap from pi*, the smallest rule of D at
    a rational inside the gap.  A gap that fails pi*'s certificate gets, for
    each class of rules through a loose action, the odd roots of the class's
    value differences against pi*'s and the common roots where its value
    vector meets pi*'s.  A gap whose pi* was searched on a hull containing
    the gap's hull is skipped: each root found there was added or was an end
    of that gap, so inside this hull it can only be an end of this one.  The
    loop stops in finitely many rounds, after which the set map is provably
    constant between consecutive points.
    """
    vfun = _ValueFunctions(mdp)
    solved: dict[Fraction, ActionSets] = {}

    def sets_at(alpha: Fraction) -> ActionSets:
        # a first-round midpoint can come back as a partition point
        if alpha not in solved:
            solved[alpha] = optimal_set(mdp, alpha).d_alpha_sets
        return solved[alpha]

    @cache
    def key(rule: DecisionRule) -> RuleValues:
        return _class_key(vfun[rule])

    runs: dict[DecisionRule, list[tuple[Fraction, Fraction]]] = {}  # class-path hulls
    points: list[Point] = []
    while True:
        bounds: list[Point] = [Fraction(0)] + points + [Fraction(1)]
        gap_sets: list[ActionSets] = []
        added = False
        for i in range(len(bounds) - 1):
            lo_pt, hi_pt = bounds[i], bounds[i + 1]
            mid = _rational_inside(lo_pt, hi_pt)
            gap_sets.append(sets_at(mid))
            best = smallest_rule(gap_sets[-1])
            hull_lo, hull_hi = point_position(lo_pt)[0], point_position(hi_pt)[1]
            advantages = vfun.advantages(best)
            if _break_free(advantages, hull_lo, hull_hi):
                continue  # D is constant on the hull: no candidate point
            hulls = runs.setdefault(best, [])
            if _hull_within(hulls, hull_lo, hull_hi):
                continue  # every candidate was passed on by an earlier run
            hulls.append((hull_lo, hull_hi))
            loose = _loose_actions(advantages, hull_lo, hull_hi)
            classes = dict.fromkeys(  # in rule order
                key(rule) for rule in vfun if any(a in s for a, s in zip(rule.choices, loose))
            )
            vstar = key(best)
            for vec in classes:
                nums = _crossing_numerators(vstar, vec, hull_lo, hull_hi)
                if not nums:
                    continue  # no root on the gap, or the same value function
                candidates = [
                    root
                    for num in nums
                    for root, mult in isolate_roots(_poly(num), hull_lo, hull_hi)
                    if mult % 2 == 1
                ]
                common = reduce(_gcd_ints, nums)
                if len(common) > 1:
                    candidates += [r for r, _ in isolate_roots(_poly(common), hull_lo, hull_hi)]
                for pt in candidates:
                    if not (points_equal(pt, lo_pt) or points_equal(pt, hi_pt)):
                        added |= _add_point(points, pt)
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
            d_at = _optimal_at_root(vfun.advantages(smallest_rule(d_left)), pt)
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
    blackwell: Point = irregular[-1].point if irregular else Fraction(0)
    return PartitionReport(tuple(irregular), tuple(intervals), blackwell, vfun)


# -- piecewise-symbolic value iteration -------------------------------------------


@dataclass(frozen=True)
class PiecewiseValue:
    """One horizon of symbolic value iteration.

    cuts are the retained interior points; pieces[i] is the per-state
    polynomial vector on the i-th open interval; interval_sets / point_sets
    give the first-step-optimal action products on the pieces and at the
    cuts, and zero_sets the one at 0, the reward argmax (all None at
    horizon 0).
    """

    horizon: int
    cuts: tuple[Point, ...]
    pieces: tuple[tuple[Polynomial, ...], ...]
    interval_sets: tuple[ActionSets, ...] | None
    point_sets: tuple[ActionSets, ...] | None
    zero_sets: ActionSets | None = None

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
        """(D_n(alpha-), D_n(alpha), D_n(alpha+)) as action products.
        D_n(0-) has no rules by convention."""
        _check_discount(alpha)
        if self.interval_sets is None:
            raise ValueError("horizon 0 carries no first-step sets")
        if alpha == 0:
            first = self.interval_sets[0]
            return (frozenset(),) * len(first), self.zero_sets, first
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


def _values_at(qs: Sequence[Sequence[list[int]]], pt: Fraction) -> list[list[int]]:
    """Each state's Q numerators at the rational pt, homogenized.  They all
    have one length over one denominator, so every value carries the same
    positive factor and the values compare as the Q values do."""
    n, d = pt.numerator, pt.denominator
    return [[_homogeneous_value(c, n, d) for c in q] for q in qs]


def _first_best(qs: Sequence[Sequence[list[int]]], pt: Fraction) -> list[int]:
    """The lowest-index maximiser of each state's Q values at pt."""
    return [max(range(len(v)), key=v.__getitem__) for v in _values_at(qs, pt)]


def _tie_set(i: int, count: int, best: int, ties: set) -> frozenset[int]:
    """The actions of state i whose Q value ties with action best's, where
    ``ties`` holds every pair (i, a, b), a < b, whose difference vanishes
    at the point in question."""
    return frozenset(
        k for k in range(count) if k == best or (i, min(k, best), max(k, best)) in ties
    )


def _q_numerators(
    mdp: Mdp, pvec: Sequence[Polynomial]
) -> tuple[list[list[list[int]]], int]:
    """Q(i, k) = r(i, k) + alpha * sum_j P(i, k, j) * pvec[j] from the integer
    table, as raw integer numerators of one common length over one
    denominator: with pvec[j] = nums[j] / d, the ``_q_lists`` over L*d."""
    d = math.lcm(*(v.den for v in pvec))
    nums = [[c * (d // v.den) for c in v.ints] for v in pvec]
    return _q_lists(mdp.integer_table, nums, [d]), mdp.integer_table.scale * d


def _step_piecewise(mdp: Mdp, pw: PiecewiseValue) -> PiecewiseValue:
    bounds: list[Point] = pw.bounds()
    cut_records: list[tuple[str, object]] = []  # ('bound', idx) | ('local', point)
    pieces: list[tuple[Polynomial, ...]] = []
    isets: list[ActionSets] = []
    psets: list[ActionSets] = []

    for idx, pvec in enumerate(pw.pieces):
        qs, den = _q_numerators(mdp, pvec)
        hull_lo = point_position(bounds[idx])[0]
        hull_hi = point_position(bounds[idx + 1])[1]
        # Each pair (i, a, b) whose difference is identically zero, or
        # vanishes at the left bound, or at a raw point: the tie sets at the
        # left bound and at the local cuts are read off these records.
        zero: set[tuple[int, int, int]] = set()
        at_left: set[tuple[int, int, int]] = set()
        raw: list[Point] = []
        raw_pairs: list[set[tuple[int, int, int]]] = []
        for i, q in enumerate(qs):
            for a in range(len(q)):
                for b in range(a + 1, len(q)):
                    # a positive integer multiple of Q(i, a) - Q(i, b); root
                    # isolation reads only its signs and primitive part
                    diff = _sub_ints(q[a], q[b])
                    if not diff:
                        zero.add((i, a, b))
                        continue
                    if _excludes_roots(diff, hull_lo, hull_hi):
                        continue  # isolation would find no root on the hull
                    for pt, _ in isolate_roots(_poly(diff), hull_lo, hull_hi):
                        if points_equal(pt, bounds[idx]):
                            at_left.add((i, a, b))
                            continue
                        if points_equal(pt, bounds[idx + 1]):
                            continue
                        seen = next(
                            (j for j, r in enumerate(raw) if points_equal(pt, r)), None
                        )
                        if seen is None:
                            raw.append(pt)
                            raw_pairs.append({(i, a, b)})
                        else:
                            raw_pairs[seen].add((i, a, b))
        local: list[tuple[Point, set]] = []
        for pt, pairs in separate_points(raw, raw_pairs):
            settled = _settle_inside(pt, bounds, idx)
            if settled is not None:
                local.append((settled, zero | pairs))
        local.sort(key=lambda item: point_position(item[0]))

        # Point set at the boundary shared with the previous piece; the two
        # sides agree in value there, so the current q's may be used.  A
        # root of a pair difference at an irrational boundary lies inside
        # the open hull, so isolation has found it.
        if idx > 0:
            boundary = bounds[idx]
            if isinstance(boundary, Fraction):
                pset = _argmax(_values_at(qs, boundary))[1]
            else:
                mid_right = _rational_inside(
                    boundary, local[0][0] if local else bounds[idx + 1]
                )
                ties = zero | at_left
                pset = tuple(
                    _tie_set(i, len(q), k, ties)
                    for i, (q, k) in enumerate(zip(qs, _first_best(qs, mid_right)))
                )
            cut_records.append(("bound", idx))
            psets.append(pset)

        sub_bounds = [bounds[idx], *(pt for pt, _ in local), bounds[idx + 1]]
        for s in range(len(sub_bounds) - 1):
            mid = _rational_inside(sub_bounds[s], sub_bounds[s + 1])
            best = _first_best(qs, mid)
            pieces.append(tuple(_poly(q[k], den) for q, k in zip(qs, best)))
            isets.append(
                tuple(
                    frozenset(j for j, c in enumerate(q) if c == q[k])
                    for q, k in zip(qs, best)
                )
            )
            if s > 0:
                cut, ties = local[s - 1]
                if isinstance(cut, Fraction):
                    pset = _argmax(_values_at(qs, cut))[1]
                else:
                    pset = tuple(
                        _tie_set(i, len(q), k, ties)
                        for i, (q, k) in enumerate(zip(qs, best))
                    )
                cut_records.append(("local", cut))
                psets.append(pset)

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
        zero_sets=_argmax(mdp.integer_table.rewards)[1],  # at 0, Q is the reward
    )


def symbolic_value_iteration(mdp: Mdp, n_max: int) -> list[PiecewiseValue]:
    """Value functions of horizons 0..n_max as piecewise polynomials in the
    discount factor, with the first-step partition at every horizon."""
    if n_max < 0:
        raise ValueError("horizon must be non-negative")
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
    """Classify alpha in [0, 1) for the horizon-n first-step-optimal map.
    0 has no left side, so, as in ``canonical_partition``, it is classified
    with its right side on both and can only be touching."""
    if n < 1:
        raise ValueError("horizon must be positive")
    _check_discount(alpha)
    left, at, right = symbolic_value_iteration(mdp, n)[n].sets_around(alpha)
    kind = classify(right if alpha == 0 else left, at, right)
    return FirstStepClassification(kind, left, at, right)
