"""Symbolic value iteration's step as it was before it ran on raw integer
Q numerators, frozen as a reference.

Each Q value was a normalised ``Polynomial`` (``_q_polynomials``), a pair
difference was ``_diff``, the two polynomials cross-scaled to the lcm of
their denominators, and the argmax at a rational compared
``_scaled_values``, each Q value's homogenized integer value times one
common positive factor.  Every pair difference that was not identically
zero went to ``isolate_roots``, with no root-exclusion test in front.

The helpers the step shares with ``partition`` (``_settle_inside``,
``_rational_inside``, ``_tie_set``, ``isolate_roots``, ``separate_points``,
the point tests) are read through the module, so a test that patches one
of them in ``partition`` patches it here too.  ``symbolic_value_iteration``
reads ``partition._step_piecewise`` on every horizon, so patching that
attribute with ``_step_piecewise`` below runs the whole iteration on the
frozen step.
"""

import math
from fractions import Fraction
from typing import Sequence

from exactmdp import partition as P
from exactmdp.bellman import ActionSets, _argmax
from exactmdp.exactarith import Point, Polynomial, _homogeneous_value, _poly, _sub_ints
from exactmdp.limits import CapExceededError, piece_cap
from exactmdp.mdp import Mdp


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


def _step_piecewise(mdp: Mdp, pw: P.PiecewiseValue) -> P.PiecewiseValue:
    bounds: list[Point] = pw.bounds()
    cut_records: list[tuple[str, object]] = []  # ('bound', idx) | ('local', point)
    pieces: list[tuple[Polynomial, ...]] = []
    isets: list[ActionSets] = []
    psets: list[ActionSets] = []

    for idx, pvec in enumerate(pw.pieces):
        qs = _q_polynomials(mdp, pvec)
        hull_lo = P.point_position(bounds[idx])[0]
        hull_hi = P.point_position(bounds[idx + 1])[1]
        # Each pair (i, a, b) whose difference is identically zero, or
        # vanishes at the left bound, or at a raw point: the tie sets at the
        # left bound and at the local cuts are read off these records.
        zero: set[tuple[int, int, int]] = set()
        at_left: set[tuple[int, int, int]] = set()
        raw: list[Point] = []
        raw_pairs: list[set[tuple[int, int, int]]] = []
        for i in range(mdp.m):
            for a in range(mdp.action_count(i)):
                for b in range(a + 1, mdp.action_count(i)):
                    d = _diff(qs[i][a], qs[i][b])
                    if d.is_zero:
                        zero.add((i, a, b))
                        continue
                    for pt, _ in P.isolate_roots(d, hull_lo, hull_hi):
                        if P.points_equal(pt, bounds[idx]):
                            at_left.add((i, a, b))
                            continue
                        if P.points_equal(pt, bounds[idx + 1]):
                            continue
                        seen = next(
                            (j for j, q in enumerate(raw) if P.points_equal(pt, q)), None
                        )
                        if seen is None:
                            raw.append(pt)
                            raw_pairs.append({(i, a, b)})
                        else:
                            raw_pairs[seen].add((i, a, b))
        local: list[tuple[Point, set]] = []
        for pt, pairs in P.separate_points(raw, raw_pairs):
            settled = P._settle_inside(pt, bounds, idx)
            if settled is not None:
                local.append((settled, zero | pairs))
        local.sort(key=lambda item: P.point_position(item[0]))

        # Point set at the boundary shared with the previous piece; the two
        # sides agree in value there, so the current q's may be used.  A
        # root of a pair difference at an irrational boundary lies inside
        # the open hull, so isolation has found it.
        if idx > 0:
            boundary = bounds[idx]
            if isinstance(boundary, Fraction):
                pset = tuple(_poly_eval_argmax(q, boundary) for q in qs)
            else:
                mid_right = P._rational_inside(
                    boundary, local[0][0] if local else bounds[idx + 1]
                )
                ties = zero | at_left
                pset = tuple(
                    P._tie_set(i, len(q), _first_argmax(q, mid_right), ties)
                    for i, q in enumerate(qs)
                )
            cut_records.append(("bound", idx))
            psets.append(pset)

        sub_bounds = [bounds[idx], *(pt for pt, _ in local), bounds[idx + 1]]
        for s in range(len(sub_bounds) - 1):
            mid = P._rational_inside(sub_bounds[s], sub_bounds[s + 1])
            best = [_first_argmax(q, mid) for q in qs]
            piece_polys = tuple(q[k] for q, k in zip(qs, best))
            pieces.append(piece_polys)
            isets.append(
                tuple(
                    frozenset(k for k, p in enumerate(q) if p == best_poly)
                    for q, best_poly in zip(qs, piece_polys)
                )
            )
            if s > 0:
                cut, ties = local[s - 1]
                if isinstance(cut, Fraction):
                    pset = tuple(_poly_eval_argmax(q, cut) for q in qs)
                else:
                    pset = tuple(
                        P._tie_set(i, len(q), k, ties)
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
    return P.PiecewiseValue(
        horizon=pw.horizon + 1,
        cuts=tuple(merged_cuts),
        pieces=tuple(merged_pieces),
        interval_sets=tuple(merged_isets),
        point_sets=tuple(merged_psets),
        zero_sets=_argmax(mdp.integer_table.rewards)[1],  # at 0, Q is the reward
    )


def use_frozen_step(patch) -> None:
    """Run symbolic value iteration on the frozen step."""
    patch.setattr(P, "_step_piecewise", _step_piecewise)
