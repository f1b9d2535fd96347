"""Descartes' rule decides root counts, and symbolic value iteration reads
its tie sets off its own pair isolation.

The sign-variation count of ``descartes_bound`` exceeds the number of roots
in (lo, hi), counted with multiplicity, by an even number, so a count of 1
is exactly one simple root, and ``isolate_roots`` bisects on those counts:
it and ``count_roots_open`` build no Sturm chain.  ``_step_piecewise``
records, for each pair of actions on a piece, whether its difference is
zero, vanishes at the left bound, or produced a local point, and takes the
tie set at an irrational cut or bound from those records instead of one
vanishing test per action.  ``RationalFunction`` negation takes no gcd,
subtraction normalises once, and ``_optimal_at_root`` tests the optimal
rule's advantage numerators.

The references below are the earlier forms: Sturm-only counting and
isolation, the vanishing and same-root tests of ``frozen_separation``, the
step that tested each action at a bracket (``reference_step``), the
conserving test on reduced ``RationalFunction`` differences of switched
rules, and negation and subtraction through the reducing constructor.  Every partition, level,
isolation, count, vanishing answer and same-root answer must be equal.
"""

import random
from fractions import Fraction as F

import pytest

from conftest import mdpgen, random_mdp
import frozen_separation
import frozen_step as FS
from frozen_separation import _disjoin, _sorted_disjoint
from test_irrational_points import irrational_break_mdp
from exactmdp import docio, partition, polyarith
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.mdp import DecisionRule, Mdp, enumerate_decision_rules
from exactmdp.partition import (
    PiecewiseValue,
    canonical_partition,
    symbolic_value_iteration,
)
from exactmdp.polyarith import (
    IsolatedRoot,
    Polynomial,
    RationalFunction,
    ZeroPolynomialError,
    isolate_roots,
    value_rational_function,
)

HORIZON = 9
PARTITION_FAMILY = [(s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2)]
RANDOM_SEEDS = range(150)


# -- references: the earlier forms ----------------------------------------------


def reference_count_roots_open(p, lo, hi):
    """Distinct roots in (lo, hi) from a Sturm chain, with no screen."""
    if p.is_zero:
        raise ZeroPolynomialError("root counting on the zero polynomial")
    if lo >= hi:
        return 0
    s = polyarith._squarefree_off_ends(p, lo, hi)
    if len(s) <= 1:
        return 0
    chain = polyarith.sturm_chain(s)
    return polyarith._variations(chain, lo) - polyarith._variations(chain, hi)


def reference_isolate_roots(p, lo=F(0), hi=F(1)):
    """Sturm bisection on the square-free part, with no screen; each
    multiplicity computed."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if p.degree == 0 or lo >= hi:
        return []
    s_ints = polyarith._squarefree_off_ends(p, lo, hi)
    if len(s_ints) <= 1:
        return []
    found = []
    stack = [(lo, hi, polyarith._poly(s_ints))]
    while stack:
        a, b, q = stack.pop()
        count = reference_count_roots_open(q, a, b)
        if count == 0:
            continue
        if count == 1:
            found.append(polyarith._identify_rational(q, a, b))
            continue
        mid = (a + b) / 2
        if polyarith._sign_at(q.ints, mid) == 0:
            found.append(mid)
            q = q.divmod(Polynomial([-mid, 1]))[0]
            if q.degree <= 0:
                continue
        stack.append((a, mid, q))
        stack.append((mid, b, q))
    p_gcd = polyarith.poly_gcd(p, p.derivative())
    mults = [
        polyarith.root_multiplicity(p, root)
        if isinstance(root, F)
        else polyarith._irrational_multiplicity(p_gcd, root)
        for root in found
    ]
    pairs = sorted(zip(found, mults), key=lambda rm: polyarith.point_position(rm[0]))
    return list(zip(_disjoin([r for r, _ in pairs]), (m for _, m in pairs)))


def reference_argmax_at_bracket(qs, qmax, pt):
    return frozenset(
        k
        for k, q in enumerate(qs)
        if (d := FS._diff(q, qmax)).is_zero
        or polyarith.polynomial_vanishes_at(d, pt)
    )


def reference_step(mdp, pw):
    """The step that tests each action's difference to the best at every
    irrational cut and bound, on the Q polynomials, pair differences and
    argmax of the frozen step in ``frozen_step``."""
    P = partition
    bounds = pw.bounds()
    cut_records, pieces, isets, psets = [], [], [], []
    zero_sets = None
    for idx, pvec in enumerate(pw.pieces):
        qs = FS._q_polynomials(mdp, pvec)
        if idx == 0:
            zero_sets = tuple(FS._poly_eval_argmax(q, F(0)) for q in qs)
        hull_lo = P.point_position(bounds[idx])[0]
        hull_hi = P.point_position(bounds[idx + 1])[1]
        raw = []
        for i in range(mdp.m):
            for a in range(mdp.action_count(i)):
                for b in range(a + 1, mdp.action_count(i)):
                    d = FS._diff(qs[i][a], qs[i][b])
                    if d.is_zero:
                        continue
                    for pt, _ in P.isolate_roots(d, hull_lo, hull_hi):
                        if P.points_equal(pt, bounds[idx]) or P.points_equal(
                            pt, bounds[idx + 1]
                        ):
                            continue
                        if not any(P.points_equal(pt, seen) for seen in raw):
                            raw.append(pt)
        local = []
        for pt in _sorted_disjoint(raw):
            settled = P._settle_inside(pt, bounds, idx)
            if settled is not None:
                local.append(settled)
        local.sort(key=P.point_position)
        if idx > 0:
            boundary = bounds[idx]
            if isinstance(boundary, F):
                pset = tuple(FS._poly_eval_argmax(q, boundary) for q in qs)
            else:
                mid_right = P._rational_inside(boundary, local[0] if local else bounds[idx + 1])
                pset = tuple(
                    reference_argmax_at_bracket(q, q[FS._first_argmax(q, mid_right)], boundary)
                    for q in qs
                )
            cut_records.append(idx)  # read after the loop: bounds refine in place
            psets.append(pset)
        sub_bounds = [bounds[idx], *local, bounds[idx + 1]]
        for s in range(len(sub_bounds) - 1):
            mid = P._rational_inside(sub_bounds[s], sub_bounds[s + 1])
            polys = tuple(q[FS._first_argmax(q, mid)] for q in qs)
            pieces.append(polys)
            isets.append(
                tuple(frozenset(k for k, p in enumerate(q) if p == b) for q, b in zip(qs, polys))
            )
            if s > 0:
                cut = sub_bounds[s]
                if isinstance(cut, F):
                    pset = tuple(FS._poly_eval_argmax(q, cut) for q in qs)
                else:
                    pset = tuple(
                        reference_argmax_at_bracket(q, b, cut) for q, b in zip(qs, polys)
                    )
                cut_records.append(cut)
                psets.append(pset)
    cut_records = [bounds[c] if isinstance(c, int) else c for c in cut_records]
    cuts, out_pieces, out_isets, out_psets = [], [pieces[0]], [isets[0]], []
    for i, cut in enumerate(cut_records):
        if out_pieces[-1] == pieces[i + 1] and out_isets[-1] == isets[i + 1] == psets[i]:
            continue
        cuts.append(cut)
        out_psets.append(psets[i])
        out_pieces.append(pieces[i + 1])
        out_isets.append(isets[i + 1])
    return PiecewiseValue(
        pw.horizon + 1, tuple(cuts), tuple(out_pieces), tuple(out_isets), tuple(out_psets),
        zero_sets,
    )


def reference_optimal_at_root(mdp):
    """``_optimal_at_root`` for mdp by single-state switches of the optimal
    rule, each compared on reduced ``RationalFunction`` differences.  The
    rule is the smallest optimal one on the left gap, so its action at each
    state is the first whose advantage numerator is identically zero."""

    def optimal_at_root(advantages, pt):
        rule = DecisionRule(tuple(row.index([]) for row in advantages))

        def conserving(s, a):
            switched = DecisionRule(rule.choices[:s] + (a,) + rule.choices[s + 1 :])
            diffs = (
                v - w
                for v, w in zip(
                    value_rational_function(mdp, rule), value_rational_function(mdp, switched)
                )
            )
            return all(
                d.is_zero or polyarith.polynomial_vanishes_at(d.num, pt) for d in diffs
            )

        return tuple(
            frozenset(a for a in range(mdp.action_count(s)) if conserving(s, a))
            for s in range(mdp.m)
        )

    return optimal_at_root


def use_references(patch, mdp):
    patch.setattr(polyarith, "count_roots_open", reference_count_roots_open)
    patch.setattr(polyarith, "isolate_roots", reference_isolate_roots)
    patch.setattr(partition, "isolate_roots", reference_isolate_roots)
    patch.setattr(polyarith, "same_root", frozen_separation.same_root)
    for owner in (polyarith, partition):
        patch.setattr(owner, "polynomial_vanishes_at", frozen_separation.polynomial_vanishes_at)
    patch.setattr(partition, "_step_piecewise", reference_step)
    patch.setattr(partition, "_optimal_at_root", reference_optimal_at_root(mdp))
    patch.setattr(RationalFunction, "__neg__", lambda f: RationalFunction(-f.num, f.den))
    patch.setattr(RationalFunction, "__sub__", lambda f, g: f + (-g))


# -- the models ---------------------------------------------------------------------


def family_mdp(states, actions, index):
    return docio.mdp_from_document(mdpgen.random_document(states, actions, 8, index))


def watched(mdp, x):
    """mdp with, for each action k of state x, a clone z_k of x that has only
    action k, and a watcher w_k that moves to x or to z_k at no reward.

    Where x's first-step optimal action switches from k at a cut of V_n(x),
    the watcher's two Q values at horizon n + 1 agree up to the cut and
    part after it: their difference is zero on the piece to the left and
    has a root at the left bound of the piece to the right, so w_k ties
    there by the left-bound record alone."""
    m, acts = mdp.m, mdp.action_count(x)
    size = m + 2 * acts
    pad = (F(0),) * (size - m)

    def to(j):
        return tuple(F(int(i == j)) for i in range(size))

    return Mdp(
        mdp.states + tuple(f"z{k}" for k in range(acts)) + tuple(f"w{k}" for k in range(acts)),
        mdp.actions + tuple((mdp.actions[x][k],) for k in range(acts)) + (("x", "z"),) * acts,
        tuple(tuple(row + pad for row in rows) for rows in mdp.transitions)
        + tuple((mdp.transitions[x][k] + pad,) for k in range(acts))
        + tuple((to(x), to(m + k)) for k in range(acts)),
        mdp.rewards
        + tuple((mdp.rewards[x][k],) for k in range(acts))
        + ((F(0), F(0)),) * acts,
        mdp.terminal + (mdp.terminal[x],) * acts + (F(0),) * acts,
    )


def model(model_id):
    kind, _, key = model_id.partition("-")
    if kind == "corpus":
        return build_example(key).mdp
    if kind == "family":
        return family_mdp(*PARTITION_FAMILY[int(key)])
    if kind == "watched":
        return watched(irrational_break_mdp(), 0)
    return random_mdp(random.Random(int(key)), max_states=4, max_actions=3)


MODEL_IDS = (
    [f"corpus-{e}" for e in EXAMPLE_IDS]
    + [f"family-{i}" for i in range(len(PARTITION_FAMILY))]
    + ["watched-irrational"]
    + [f"random-{seed}" for seed in RANDOM_SEEDS]
)


def recorder(patch, owners, name, calls):
    original = getattr(polyarith, name)

    def recording(*args):
        calls[args] = None
        return original(*args)

    for owner in owners:
        patch.setattr(owner, name, recording)


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_equal_to_references(monkeypatch, model_id):
    mdp = model(model_id)
    isolations, counts, vanishing, pairs = {}, {}, {}, {}
    with monkeypatch.context() as patch:
        recorder(patch, (polyarith, partition), "isolate_roots", isolations)
        recorder(patch, (polyarith,), "count_roots_open", counts)
        recorder(patch, (polyarith, partition), "polynomial_vanishes_at", vanishing)
        recorder(patch, (polyarith,), "same_root", pairs)
        part = canonical_partition(mdp)
        levels = symbolic_value_iteration(mdp, HORIZON)
    got = [isolate_roots(*args) for args in isolations]
    got_counts = [polyarith.count_roots_open(*args) for args in counts]
    assert [polyarith.polynomial_vanishes_at(*args) for args in vanishing] == [
        frozen_separation.polynomial_vanishes_at(*args) for args in vanishing
    ]
    assert [polyarith.same_root(*args) for args in pairs] == [
        frozen_separation.same_root(*args) for args in pairs
    ]
    with monkeypatch.context() as patch:
        use_references(patch, mdp)
        # equality covers every bracket and defining polynomial
        assert canonical_partition(mdp) == part
        assert symbolic_value_iteration(mdp, HORIZON) == levels
        assert got == [reference_isolate_roots(*args) for args in isolations]
        assert got_counts == [reference_count_roots_open(*args) for args in counts]
        assert got_counts == [frozen_separation.count_roots_open(*args) for args in counts]


def test_watcher_ties_at_an_irrational_left_bound():
    # x1's first-step optimal action switches from stay to leave at
    # 1/sqrt(2) at horizon 3 (1 + a + a^2 against a + 3a^2), so at horizon
    # 4 the stay watcher w0 ties at that bound: x1 and z0 pay alike up to
    # 1/sqrt(2) and part after it
    mdp = watched(irrational_break_mdp(), 0)
    level = symbolic_value_iteration(mdp, 4)[4]
    w0 = mdp.states.index("w0")
    (i,) = [
        i
        for i, cut in enumerate(level.cuts)
        if isinstance(cut, IsolatedRoot) and cut.lo < F(7071, 10000) < cut.hi
    ]
    assert level.interval_sets[i][w0] == frozenset({0, 1})
    assert level.interval_sets[i + 1][w0] == frozenset({0})
    assert level.point_sets[i][w0] == frozenset({0, 1})


def test_models_exercise_the_records():
    # what the comparisons need to mean anything: irrational cuts whose tie
    # sets hold more than one action, and irrational irregular points
    ties = points = 0
    for model_id in MODEL_IDS:
        mdp = model(model_id)
        for level in symbolic_value_iteration(mdp, HORIZON)[1:]:
            for cut, sets in zip(level.cuts, level.point_sets):
                ties += isinstance(cut, IsolatedRoot) and any(len(s) > 1 for s in sets)
        points += sum(
            isinstance(ip.point, IsolatedRoot)
            for ip in canonical_partition(mdp).irregular_points
        )
    assert ties >= 20 and points >= 5


# -- isolation and counting on chosen polynomials ---------------------------------


def product(*roots):
    p = Polynomial.constant(1)
    for r in roots:
        p = p * Polynomial([-r, 1])
    return p


@pytest.mark.parametrize(
    "p, lo, hi",
    [
        (product(F(1, 3)), F(0), F(1)),  # one rational root
        (Polynomial([-1, 0, 2]), F(0), F(1)),  # sqrt(1/2)
        (Polynomial([-1, 0, 2]) * product(F(1, 9)), F(1, 5), F(1)),
        (product(F(1, 2), F(1, 2)), F(0), F(1)),  # a double root: count 2
        (product(F(1, 3), F(2, 3)), F(0), F(1)),
        (Polynomial([26, -100, 100]), F(0), F(1)),  # no real root, count 2
        (product(F(0), F(1, 4), F(1)), F(0), F(1)),  # roots on both ends
        (product(F(1, 4)) * Polynomial([-1, 0, 3]), F(1, 4), F(1)),
    ],
)
def test_isolation_and_counts_equal_sturm(p, lo, hi):
    assert isolate_roots(p, lo, hi) == reference_isolate_roots(p, lo, hi)
    assert polyarith.count_roots_open(p, lo, hi) == reference_count_roots_open(p, lo, hi)


def test_random_polynomials_equal_sturm():
    rng = random.Random(18)
    decided = 0
    for _ in range(400):
        roots = [F(rng.randint(-2, 12), rng.randint(1, 10)) for _ in range(rng.randint(0, 3))]
        p = product(*roots) * Polynomial(
            [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.choice([-2, 1, 3])]
        )
        lo, hi = sorted(F(rng.randint(0, 20), 20) for _ in range(2))
        if lo == hi:
            continue
        assert isolate_roots(p, lo, hi) == reference_isolate_roots(p, lo, hi)
        got = polyarith.count_roots_open(p, lo, hi)
        assert got == reference_count_roots_open(p, lo, hi)
        decided += polyarith.descartes_bound(p.ints, lo, hi) == 1
    assert decided > 50


# -- counts that pin the shortcuts ---------------------------------------------------


def counter(monkeypatch, owner, name):
    original = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_one_variation_builds_no_sturm_chain(monkeypatch):
    chains = counter(monkeypatch, polyarith, "sturm_chain")
    assert isolate_roots(Polynomial([-1, 0, 2]))[0][1] == 1
    assert polyarith.count_roots_open(product(F(1, 3)), F(0), F(1)) == 1
    # two variations go to Descartes bisection, not to a Sturm chain
    assert len(isolate_roots(product(F(1, 3), F(2, 3)))) == 2
    assert chains == []


def test_benchmark_family_builds_no_sturm_chain(monkeypatch):
    chains = counter(monkeypatch, polyarith, "sturm_chain")
    for states, actions, index in PARTITION_FAMILY:
        mdp = family_mdp(states, actions, index)
        canonical_partition(mdp)
        symbolic_value_iteration(mdp, HORIZON)
    assert chains == []


def test_step_makes_no_vanishing_tests(monkeypatch):
    tests = counter(monkeypatch, partition, "polynomial_vanishes_at")
    cuts = [
        cut
        for states, actions, index in PARTITION_FAMILY
        for level in symbolic_value_iteration(family_mdp(states, actions, index), HORIZON)
        for cut in level.cuts
    ]
    assert sum(isinstance(c, IsolatedRoot) for c in cuts) >= 5
    assert tests == []


def test_negation_takes_no_gcd(monkeypatch):
    mdp = build_example("ex2").mdp
    fs = [f for rule in enumerate_decision_rules(mdp)[:4] for f in value_rational_function(mdp, rule)]
    want = [RationalFunction(-f.num, f.den) for f in fs]
    gcds = counter(monkeypatch, polyarith, "poly_gcd")
    got = [-f for f in fs]
    assert gcds == []
    assert got == want


def test_difference_equals_sum_of_negation():
    mdp = build_example("ex4").mdp
    fs = [f for rule in enumerate_decision_rules(mdp) for f in value_rational_function(mdp, rule)]
    for f in fs[:6]:
        for g in fs[:6]:
            diff = f - g
            assert diff == f + RationalFunction(-g.num, g.den)
            assert diff(F(2, 7)) == f(F(2, 7)) - g(F(2, 7))
