"""The reduced value-function form, frozen as a reference.

Before every rule's values were read as their unreduced solve (N, Δ), each
state's value was a reduced ``RationalFunction`` (``reduced_values``), rule
classes were keyed by the tuple of reduced functions, each class's
differences against the optimal rule came from ``RationalFunction``
subtraction (another gcd each), and the Descartes screen in front of them
multiplied the reduced forms back out (``unreduced_difference``).
``values_at`` evaluated reduced functions, and D at an irrational point
compared reduced values.

The helpers that the partition shares with this reference
(``_rational_inside``, ``_break_free``, ``_add_point``, ``classify``,
``_advantage_numerators``, ``isolate_roots``) are read through the module,
so a test that patches one of them in ``partition`` patches it here too.
"""

import math
from fractions import Fraction
from functools import reduce
from typing import Sequence

from exactmdp import partition as P
from exactmdp.bellman import (
    OptSets,
    _integer_form,
    _q_nums,
    _sets_at_fixed_point,
    _vector,
    optimal_set,
    product_subset,
    smallest_rule,
)
from exactmdp.mdp import DecisionRule, Mdp, enumerate_decision_rules
from exactmdp.polyarith import (
    Point,
    RationalFunction,
    _homogeneous_value,
    _mul_ints,
    _poly,
    _sub_ints,
    _value_solve,
    descartes_bound,
    point_position,
    points_equal,
    poly_gcd,
    polynomial_vanishes_at,
)


def reduced_values(m: int, nums, det) -> tuple[RationalFunction, ...]:
    """The reduced ``RationalFunction`` N_x / Δ for each numerator N_x of a
    solve (N, Δ)."""
    det_poly = _poly(det)
    out = []
    for num in nums:
        rf = RationalFunction(_poly(num), det_poly)
        if rf.num.degree > m or rf.den.degree > m:
            raise AssertionError("value function degree exceeded the state count; kernel bug")
        out.append(rf)
    return tuple(out)


def values_at(fs: Sequence[RationalFunction], x: Fraction) -> tuple[list[int], int]:
    """(nums, den) with f_i(x) = nums[i] / den over one positive denominator,
    gcd(den, *nums) = 1: with k >= both degrees of f and x = n/d,
    f(x) = d^k·num(x) / (d^k·den(x)), two homogenized values."""
    n, d = x.numerator, x.denominator
    pairs = []
    for f in fs:
        k = max(f.num.degree, f.den.degree)
        top = _homogeneous_value(f.num.ints, n, d) * d ** (k - f.num.degree)
        bottom = _homogeneous_value(f.den.ints, n, d) * d ** (k - f.den.degree)
        bottom *= f.num.den  # the denominator polynomial is over 1
        pairs.append((top, bottom) if bottom > 0 else (-top, -bottom))
    den = math.lcm(*(b for _, b in pairs))
    nums = [t * (den // b) for t, b in pairs]
    g = math.gcd(den, *nums)
    return [v // g for v in nums], den // g


def unreduced_difference(f: RationalFunction, g: RationalFunction) -> list[int]:
    """Integer coefficients of a positive multiple of f.num·g.den − g.num·f.den,
    the numerator of f − g before any gcd reduction."""
    fn, fs = f.num.ints, f.num.den
    gn, gs = g.num.ints, g.num.den
    gd = [gs * c for c in g.den.ints]
    fd = [fs * c for c in f.den.ints]
    return _sub_ints(_mul_ints(fn, gd), _mul_ints(gn, fd))


def root_free_on(f, g, lo: Fraction, hi: Fraction) -> bool:
    """True when Descartes' rule finds no f[x] - g[x] with a root in (lo, hi)."""
    for fx, gx in zip(f, g):
        num = unreduced_difference(fx, gx)
        if num and descartes_bound(num, lo, hi):
            return False
    return True


def class_numerators(vstar, vec, lo: Fraction, hi: Fraction) -> list:
    """The class loop's numerators for one class: the reduced numerators of
    the nonzero differences vstar[x] - vec[x], or [] when the screen clears
    the class or the two value vectors are equal."""
    if root_free_on(vstar, vec, lo, hi):
        return []
    diffs = [a - b for a, b in zip(vstar, vec)]
    return [d.num for d in diffs if not d.is_zero]


def value_classes(mdp: Mdp, rules) -> list[tuple[RationalFunction, ...]]:
    """One reduced value vector per class, in rule order."""
    return list(dict.fromkeys(reduced_values(mdp.m, *_value_solve(mdp, r)) for r in rules))


def optimal_at_root(mdp: Mdp, values, rule: DecisionRule, pt) -> tuple:
    """D at an irrational point from single-state switches of a rule optimal
    there, each tested on the unreduced difference of reduced values."""

    def conserving(s: int, a: int) -> bool:
        switched = DecisionRule(rule.choices[:s] + (a,) + rule.choices[s + 1 :])
        nums = (unreduced_difference(v, w) for v, w in zip(values(rule), values(switched)))
        return all(not num or polynomial_vanishes_at(_poly(num), pt) for num in nums)

    return tuple(
        frozenset(a for a in range(mdp.action_count(s)) if conserving(s, a))
        for s in range(mdp.m)
    )


def optimal_at(report, mdp: Mdp, alpha: Fraction) -> OptSets:
    """``PartitionReport.optimal_at`` on reduced values."""
    d_sets = report.sets_around(alpha)[1]
    rule = smallest_rule(d_sets)
    nums, den = values_at(reduced_values(mdp.m, *_value_solve(mdp, rule)), alpha)
    form = _integer_form(mdp, alpha)
    if _sets_at_fixed_point(form, nums, den, _q_nums(form, nums, den)) != d_sets:
        raise AssertionError(f"partition sets fail the optimality check at {alpha}")
    return OptSets(_vector(nums, den, alpha, None), d_sets)


def canonical_partition(mdp: Mdp) -> P.PartitionReport:
    """The partition's refinement loop with the class search on reduced
    ``RationalFunction`` value vectors; ``value_functions`` maps each rule
    it solved to its reduced values."""
    cache: dict[DecisionRule, tuple[RationalFunction, ...]] = {}

    def values(rule: DecisionRule) -> tuple[RationalFunction, ...]:
        if rule not in cache:
            cache[rule] = reduced_values(mdp.m, *_value_solve(mdp, rule))
        return cache[rule]

    solved: dict[Fraction, tuple] = {}

    def sets_at(alpha: Fraction):
        if alpha not in solved:
            solved[alpha] = optimal_set(mdp, alpha).d_alpha_sets
        return solved[alpha]

    def advantages(rule: DecisionRule):
        return [
            [num for num in row if num]
            for row in P._advantage_numerators(mdp, *_value_solve(mdp, rule))
        ]

    rules = enumerate_decision_rules(mdp)
    classes = None
    points: list[Point] = []
    while True:
        bounds: list[Point] = [Fraction(0)] + points + [Fraction(1)]
        gap_sets = []
        added = False
        for i in range(len(bounds) - 1):
            lo_pt, hi_pt = bounds[i], bounds[i + 1]
            mid = P._rational_inside(lo_pt, hi_pt)
            gap_sets.append(sets_at(mid))
            best = smallest_rule(gap_sets[-1])
            hull_lo = point_position(lo_pt)[0]
            hull_hi = point_position(hi_pt)[1]
            if P._break_free(advantages(best), hull_lo, hull_hi):
                continue
            if classes is None:
                classes = list(dict.fromkeys(values(r) for r in rules))
            vstar = values(best)
            for vec in classes:
                nums = class_numerators(vstar, vec, hull_lo, hull_hi)
                if not nums:
                    continue
                candidates: list[Point] = []
                for num in nums:
                    for root, mult in P.isolate_roots(num, hull_lo, hull_hi):
                        if mult % 2 == 1:
                            candidates.append(root)
                common = reduce(poly_gcd, nums)
                if common.degree > 0:
                    candidates.extend(
                        root for root, _ in P.isolate_roots(common, hull_lo, hull_hi)
                    )
                for pt in candidates:
                    if points_equal(pt, lo_pt) or points_equal(pt, hi_pt):
                        continue
                    if P._add_point(points, pt):
                        added = True
        if not added:
            break

    irregular = []
    kept = []
    for i, pt in enumerate(points):
        d_left, d_right = gap_sets[i], gap_sets[i + 1]
        if isinstance(pt, Fraction):
            d_at = sets_at(pt)
        else:
            d_at = optimal_at_root(mdp, values, smallest_rule(d_left), pt)
        if not (product_subset(d_left, d_at) and product_subset(d_right, d_at)):
            raise AssertionError("upper hemicontinuity violated; kernel bug")
        kind = P.classify(d_left, d_at, d_right)
        if kind != "regular":
            irregular.append(P.IrregularPoint(pt, kind, d_at, d_left, d_right))
            kept.append(i)

    d0, d0_plus = sets_at(Fraction(0)), gap_sets[0]
    kind = P.classify(d0_plus, d0, d0_plus)
    if kind != "regular":
        no_rules = (frozenset(),) * mdp.m
        irregular.insert(0, P.IrregularPoint(Fraction(0), kind, d0, no_rules, d0_plus))

    intervals = []
    cursor: Point = Fraction(0)
    for i in kept + [len(points)]:
        hi = points[i] if i < len(points) else Fraction(1)
        intervals.append(P.PartitionInterval(cursor, hi, gap_sets[i]))
        cursor = hi
    blackwell: Point = irregular[-1].point if irregular else Fraction(0)
    return P.PartitionReport(
        irregular_points=tuple(irregular),
        intervals=tuple(intervals),
        blackwell_point=blackwell,
        value_functions=cache,
    )
