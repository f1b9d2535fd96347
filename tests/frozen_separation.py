"""The earlier point-separation helpers, frozen as references.

Before ``exactarith.separate_points``, the invariant that no two
neighbouring points touch was kept in four places: ``_sorted_disjoint`` in
``partition`` (brackets out of each rational's open interval, then pairwise
disjoint), followed by a ``_clear_of`` pass in the partition's point
insertion and in the turnpike candidates but not in symbolic value
iteration's step; ``_clear_of_ends`` in the partition's point insertion;
and ``_disjoin`` in ``isolate_roots``.  The copies below are those helpers
as they were, and the functions after them are their callers' earlier
forms, for tests that compare against the old behaviour.

``all_pairs_separate_points`` is ``separate_points`` as it was before it
visited only the bracket pairs whose hulls meet: its pair pass checks every
pair.

The last section holds the root tests as they were before Descartes
bisection replaced the Sturm path in ``exactarith``: ``count_roots_open``
with a Sturm chain past a Descartes count of 2, ``polynomial_vanishes_at``
on that count, and ``same_root`` with its refinement loop.
"""

from fractions import Fraction
from typing import Sequence

from exactmdp import exactarith, partition, turnpike
from exactmdp.exactarith import IsolatedRoot, Point, point_position, points_equal
from exactmdp.partition import classify


def _sorted_disjoint(points: list[Point], records: Sequence | None = None) -> list:
    keyed = list(zip(points, [None] * len(points) if records is None else records))
    rationals = sorted(dict((p, r) for p, r in keyed if isinstance(p, Fraction)).items())
    refined = [(br, r) for br, r in keyed if isinstance(br, IsolatedRoot)]
    for i, (br, r) in enumerate(refined):
        for q, _ in rationals:
            br = br.excluding(q)
        refined[i] = br, r
    for i in range(len(refined)):
        for j in range(i + 1, len(refined)):
            (a, ra), (b, rb) = refined[i], refined[j]
            while True:
                a_lo, a_hi = point_position(a)
                b_lo, b_hi = point_position(b)
                if a_hi < b_lo or b_hi < a_lo:
                    break
                a = a.refined((a.hi - a.lo) / 4)
                b = b.refined((b.hi - b.lo) / 4)
            refined[i], refined[j] = (a, ra), (b, rb)
    merged = rationals + refined
    merged.sort(key=lambda item: point_position(item[0]))
    if records is None:
        return [p for p, _ in merged]
    return merged


def _clear_of_ends(pt: Point) -> Point:
    while isinstance(pt, IsolatedRoot) and (pt.lo <= 0 or pt.hi >= 1):
        pt = pt.refined((pt.hi - pt.lo) / 4)
    return pt


def _clear_of(pt: Point, rationals: Sequence[Fraction]) -> Point:
    while isinstance(pt, IsolatedRoot) and any(pt.lo <= q <= pt.hi for q in rationals):
        pt = pt.refined((pt.hi - pt.lo) / 4)
    return pt


def _disjoin(roots: list[Point]) -> list[Point]:
    out = list(roots)
    for i in range(len(out) - 1):
        a, b = out[i], out[i + 1]
        while point_position(a)[1] >= point_position(b)[0]:
            if isinstance(a, IsolatedRoot):
                a = a.refined((a.hi - a.lo) / 4)
            if isinstance(b, IsolatedRoot):
                b = b.refined((b.hi - b.lo) / 4)
        out[i], out[i + 1] = a, b
    return out


def all_pairs_separate_points(points: Sequence[Point], records: Sequence | None = None) -> list:
    keyed = list(zip(points, [None] * len(points) if records is None else records))
    rationals = sorted(dict((p, r) for p, r in keyed if isinstance(p, Fraction)).items())
    cuts = [q for q, _ in rationals]
    brackets = []
    for br, r in keyed:
        if isinstance(br, IsolatedRoot):
            for q in cuts:
                br = br.excluding(q)
            brackets.append((br, r))
    for i in range(len(brackets)):
        for j in range(i + 1, len(brackets)):
            (a, ra), (b, rb) = brackets[i], brackets[j]
            while not (a.hi < b.lo or b.hi < a.lo):
                a = a.refined((a.hi - a.lo) / 4)
                b = b.refined((b.hi - b.lo) / 4)
            brackets[i], brackets[j] = (a, ra), (b, rb)
    merged = rationals + [(exactarith.clear_of(br, cuts), r) for br, r in brackets]
    merged.sort(key=lambda item: point_position(item[0]))
    return merged if records is not None else [p for p, _ in merged]


# -- the callers' earlier forms ---------------------------------------------------


def disjoined_roots(roots: list[Point], mults: list[int]) -> list:
    """What ``isolate_roots`` did with its sorted roots and multiplicities."""
    return list(zip(_disjoin(roots), mults))


def add_point(points: list[Point], new: Point) -> bool:
    """The partition's point insertion."""
    new = _clear_of_ends(new)
    for p in points:
        if points_equal(p, new):
            return False
    points.append(new)
    points[:] = _sorted_disjoint(points)
    rationals = [p for p in points if isinstance(p, Fraction)]
    points[:] = [_clear_of(pt, rationals) for pt in points]
    return True


def candidate_points(part, levels, lo_pad, hi_pad, query_lo, query_hi) -> list[Point]:
    """The turnpike interval map's candidate points."""
    pts: list[Point] = []

    def _push(pt: Point):
        pt = _clear_of(pt, (query_lo, query_hi))
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
    pts = _sorted_disjoint(pts)
    rationals = [p for p in pts if isinstance(p, Fraction)]
    return [_clear_of(p, rationals) for p in pts]


def use_frozen_separation(patch) -> None:
    """Route every caller of ``separate_points`` to its earlier form: the
    step separates its local points with ``_sorted_disjoint`` alone."""
    patch.setattr(exactarith, "separate_points", disjoined_roots)
    patch.setattr(partition, "separate_points", _sorted_disjoint)
    patch.setattr(partition, "_add_point", add_point)
    patch.setattr(turnpike, "_candidate_points", candidate_points)


# -- the root tests before Descartes bisection --------------------------------------


def count_roots_open(p, lo: Fraction, hi: Fraction) -> int:
    if p.is_zero:
        raise exactarith.ZeroPolynomialError("root counting on the zero polynomial")
    if lo >= hi:
        return 0
    bound = exactarith.descartes_bound(p.ints, lo, hi)
    if bound <= 1:
        return bound
    s = exactarith._squarefree_off_ends(p, lo, hi)
    if len(s) <= 1:
        return 0
    chain = exactarith.sturm_chain(s)
    return exactarith._variations(chain, lo) - exactarith._variations(chain, hi)


def polynomial_vanishes_at(p, root: IsolatedRoot) -> bool:
    if p.is_zero:
        return True
    if exactarith.descartes_bound(p.ints, root.lo, root.hi) == 0:
        return False
    g = exactarith.poly_gcd(p, root.defining)
    if g.degree <= 0:
        return False
    return count_roots_open(g, root.lo, root.hi) > 0


def same_root(a: IsolatedRoot, b: IsolatedRoot) -> bool:
    if max(a.lo, b.lo) >= min(a.hi, b.hi):
        return False
    g = exactarith.poly_gcd(a.defining, b.defining)
    if g.degree <= 0:
        return False
    while True:
        lo = max(a.lo, b.lo)
        hi = min(a.hi, b.hi)
        if lo >= hi:
            return False
        if count_roots_open(g, lo, hi) > 0 and (
            count_roots_open(a.defining, lo, hi) == 1
            and count_roots_open(b.defining, lo, hi) == 1
        ):
            return True
        a = a.refined((a.hi - a.lo) / 4)
        b = b.refined((b.hi - b.lo) / 4)
