"""The turnpike interval map: candidate brackets are refined until their
closed hulls hold neither query end nor any rational candidate, and one walk
over the points of [lo, hi] emits the spans.

The earlier implementation, which refined a bracket only until a query end
left its open interval, is kept below as the reference: on queries whose
ends are not bracket ends both must give equal maps.  Queries that end
exactly on a bracket end are where the reference went wrong, and the
property tests below hold the map to [lo, hi] and to `turnpike_integer`
there."""

import random
from fractions import Fraction as F

import pytest

from conftest import mdpgen, random_mdp
from frozen_separation import _sorted_disjoint
from exactmdp import docio
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.exactarith import (
    IsolatedRoot,
    Point,
    point_position,
    point_sign,
    points_equal,
    simplest_fraction_between,
)
from exactmdp.partition import (
    PartitionReport,
    PiecewiseValue,
    canonical_partition,
    classify,
    symbolic_value_iteration,
)
from exactmdp.turnpike import (
    TurnpikeIntervalMap,
    TurnpikeSpan,
    _interval_map,
    turnpike_integer,
    turnpike_intervals,
)

# the benchmark's random-partition family
PARTITION_FAMILY = [(s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2)]


# -- reference: the map built from open-interval exclusion ---------------------


def reference_candidate_points(
    part: PartitionReport,
    levels: list[PiecewiseValue],
    lo_pad: F,
    hi_pad: F,
    query_lo: F,
    query_hi: F,
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


def reference_interval_map(
    mdp, lo: F, hi: F, n_cap: int, pad: F,
    part: PartitionReport, levels: list[PiecewiseValue],
) -> TurnpikeIntervalMap:
    lo_pad = max(F(0), lo - pad)
    hi_pad = min(hi + pad, (hi + 1) / 2)
    pts = reference_candidate_points(part, levels, lo_pad, hi_pad, lo, hi)

    bounds: list[Point] = [lo_pad, *pts, hi_pad]
    gap_values: list[int | None] = []
    gap_inside: list[bool] = []
    for i in range(len(bounds) - 1):
        left_edge = point_position(bounds[i])[1]
        right_edge = point_position(bounds[i + 1])[0]
        if not left_edge < right_edge:
            gap_values.append(None)
            gap_inside.append(False)
            continue
        inside = right_edge > lo and left_edge < hi
        if inside:
            mid = (max(left_edge, lo) + min(right_edge, hi)) / 2
        else:
            mid = (left_edge + right_edge) / 2
        gap_values.append(turnpike_integer(mdp, mid, part).n_value)
        gap_inside.append(inside)
    point_values: dict[F, int] = {}
    for pt in pts:
        if isinstance(pt, F):
            point_values[pt] = turnpike_integer(mdp, pt, part).n_value
    relevant = [
        g for g, inside in zip(gap_values, gap_inside) if inside and g is not None
    ]
    for j, pt in enumerate(pts):
        if isinstance(pt, F) and pt in (lo, hi):
            for idx in (j, j + 1):
                if gap_values[idx] is not None and not gap_inside[idx]:
                    relevant.append(gap_values[idx])
    max_seen = max(relevant + list(point_values.values()), default=1)
    partial = max_seen >= n_cap

    d_minus, d_plus = [], []
    for i, pt in enumerate(pts):
        if not isinstance(pt, F) or not (lo <= pt <= hi):
            continue
        n_at = point_values[pt]
        if pt != 0 and gap_values[i] is not None and gap_values[i] != n_at:
            d_minus.append(pt)
        if gap_values[i + 1] is not None and gap_values[i + 1] != n_at:
            d_plus.append(pt)
    d_hat = [p for p in d_minus if p in d_plus]
    d_all = sorted(set(d_minus) | set(d_plus))

    pieces: list[tuple[Point, Point, bool, bool, int | None]] = []
    inner = [
        pt
        for pt in pts
        if point_position(pt)[1] >= lo and point_position(pt)[0] <= hi
    ]

    def _gap_value_after(pos: F) -> int:
        for i in range(len(bounds) - 1):
            right = point_position(bounds[i + 1])[0]
            if pos < right and gap_values[i] is not None:
                return gap_values[i]
        return next(g for g in reversed(gap_values) if g is not None)

    cursor: Point = lo
    cursor_closed = True
    for pt in inner:
        if not (isinstance(pt, F) and pt == lo):
            pieces.append(
                (cursor, pt, cursor_closed, False, _gap_value_after(point_position(cursor)[1]))
            )
        val = point_values.get(pt) if isinstance(pt, F) else None
        pieces.append((pt, pt, True, True, val))
        cursor, cursor_closed = pt, False
    if not (inner and isinstance(inner[-1], F) and inner[-1] == hi):
        pieces.append(
            (cursor, hi, cursor_closed, True, _gap_value_after(point_position(cursor)[1]))
        )

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


def assert_same_maps(mdp, intervals, n_cap):
    part = canonical_partition(mdp)
    levels = symbolic_value_iteration(mdp, n_cap - 1)
    for lo, hi in intervals:
        pad = (hi - lo) / 8
        got = _interval_map(mdp, lo, hi, n_cap, pad, part, levels)
        assert got == reference_interval_map(mdp, lo, hi, n_cap, pad, part, levels), (lo, hi)


# -- the map equals the reference away from bracket ends -----------------------


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_same_map_on_the_corpus(example_id):
    assert_same_maps(build_example(example_id).mdp, [(F(1, 100), F(9, 10))], 16)


@pytest.mark.parametrize("states, actions, index", PARTITION_FAMILY)
def test_same_map_on_the_benchmark_partition_family(states, actions, index):
    mdp = docio.mdp_from_document(mdpgen.random_document(states, actions, 8, index))
    assert_same_maps(mdp, [(F(1, 100), F(9, 10))], 10)


@pytest.mark.parametrize("block", range(10))
def test_same_map_on_random_models(block):
    for seed in range(15 * block, 15 * block + 15):
        rng = random.Random(seed)
        mdp = random_mdp(rng, max_states=3, max_actions=3)
        intervals = []
        for _ in range(3):
            lo, hi = sorted(rng.sample(range(100), 2))
            intervals.append((F(lo, 100), F(hi, 100)))
        assert_same_maps(mdp, intervals, 10)


# -- queries that end on a bracket end -----------------------------------------


def assert_map_inside_query(mdp, tmap, lo, hi):
    """Every span end and indeterminate point lies in [lo, hi], each span
    runs forward, and when the map is not partial each span's N is the one
    `turnpike_integer` gives inside it."""
    ends = [p for s in tmap.spans for p in (s.lo, s.hi)] + list(tmap.indeterminate)
    for p in ends:
        assert point_sign(p, lo) >= 0 and point_sign(p, hi) <= 0, (p, lo, hi)
    for s in tmap.spans:
        left, right = point_position(s.lo)[1], point_position(s.hi)[0]
        if s.lo == s.hi:
            assert isinstance(s.lo, F) and s.lo_closed and s.hi_closed
            inside = s.lo
        else:
            assert left < right, s
            inside = simplest_fraction_between(left, right)
        if not tmap.partial:
            assert turnpike_integer(mdp, inside).n_value == s.n_value, (s, inside)


def bracket_end_queries(part):
    """Queries [e - 1/16, e] and [e, e + 1/16], clipped to [0, 1), at each
    end e of every irrational irregular point's bracket, refined 0-2 times."""
    for ip in part.irregular_points:
        br = ip.point
        if not isinstance(br, IsolatedRoot):
            continue
        for _ in range(3):
            for e in (br.lo, br.hi):
                if e > 0:
                    yield max(F(0), e - F(1, 16)), e
                if e + F(1, 16) < 1:
                    yield e, e + F(1, 16)
            br = br.refined((br.hi - br.lo) / 2)


def test_query_ending_on_a_bracket_end_samples_inside_the_query():
    # the break's bracket is (465391/524288, 29087/32768); the span right of
    # the root used to take its N from a sample beyond hi
    mdp = random_mdp(random.Random(6), max_states=3, max_actions=2)
    lo, hi = F(432623, 524288), F(29087, 32768)
    tmap = turnpike_intervals(mdp, lo, hi, n_cap=12)
    assert_map_inside_query(mdp, tmap, lo, hi)


@pytest.mark.parametrize("actions, seeds", [(2, range(300)), (3, range(100))])
def test_bracket_end_queries_stay_in_the_query(actions, seeds):
    n_cap, checked = 12, 0
    for seed in seeds:
        mdp = random_mdp(random.Random(seed), max_states=3, max_actions=actions)
        part = canonical_partition(mdp)
        queries = list(bracket_end_queries(part))
        if not queries:
            continue
        levels = symbolic_value_iteration(mdp, n_cap - 1)
        for lo, hi in queries:
            # what turnpike_intervals(mdp, lo, hi, n_cap) computes
            tmap = _interval_map(mdp, lo, hi, n_cap, (hi - lo) / 8, part, levels)
            assert_map_inside_query(mdp, tmap, lo, hi)
            checked += 1
    assert checked > 0
