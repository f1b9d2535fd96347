"""Break-free gaps certified from the optimal rule's advantages, and value
functions solved on demand.

For each gap of its refinement loop, ``canonical_partition`` first takes
π*, the smallest rule optimal at the gap's sample point, and the advantage
numerators L·Δ·A(s, a) of every state and action over π*'s values N / Δ.
When Descartes' rule finds none of the nonzero numerators with a root on
the gap's hull, no advantage changes sign or vanishes there, so D is
constant on the gap and the per-class search is skipped.  The reference is
the same function with that certificate switched off, which runs the class
path on every gap: the reports must be equal, brackets and ``defining``
included.  ``PartitionReport.value_functions`` is a mapping over every rule
that solves a rule on first lookup.  ``count_roots_open`` counts the pieces
and midpoint hits of Descartes bisection without identifying a root.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F
from unittest import mock

import pytest

from conftest import family_mdp, random_mdp
from test_decided_roots import product, reference_count_roots_open
import frozen_values
from exactmdp import cli, docio, partition, polyarith
from exactmdp.bellman import evaluate_deterministic, optimal_set, smallest_rule
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.limits import CapExceededError
from exactmdp.mdp import DecisionRule, enumerate_decision_rules
from exactmdp.partition import _advantage_numerators, canonical_partition
from exactmdp.polyarith import (
    Polynomial,
    _homogeneous_value,
    _value_solve,
    count_roots_open,
    isolate_roots,
    value_rational_function,
)


@contextmanager
def certificate_off():
    with mock.patch.object(partition, "_break_free", lambda advantages, lo, hi: False):
        yield


def family_40(seed):
    rng = random.Random(7000 + seed)
    mdp = random_mdp(rng, max_states=4, max_actions=3, max_den=4)
    while mdp.m < 2:
        mdp = random_mdp(rng, max_states=4, max_actions=3, max_den=4)
    return mdp


def differential_models():
    """(id, mdp) for the corpus, the 40-seed family of ``test_root_screen``,
    200 seeded 4×3 models and two benchmark-generator models."""
    for example_id in EXAMPLE_IDS:
        yield example_id, build_example(example_id).mdp
    for seed in range(40):
        yield f"family-{seed}", family_40(seed)
    for seed in range(200):
        yield f"random-{seed}", random_mdp(random.Random(seed), 4, 3)
    for states, actions, index in ((4, 4, 2), (5, 4, 0)):
        yield f"doc-{states}x{actions}-{index}", family_mdp(states, actions, index)


def uncertified(mdp):
    with certificate_off():
        return canonical_partition(mdp)


# -- the certificate against the class path -----------------------------------------


@pytest.mark.parametrize("chunk", range(4))
def test_certified_partition_equals_class_path(chunk):
    models = list(differential_models())
    for model_id, mdp in models[chunk::4]:
        # equality covers every bracket, defining polynomial and value function
        assert canonical_partition(mdp) == uncertified(mdp), model_id


def test_a_certificate_blind_to_the_last_state_fails():
    # the pinned mutation: a certificate that ignores the last state's
    # advantages clears gaps where D changes, and the reports differ
    original = partition._break_free

    def blind(advantages, lo, hi):
        return original(advantages[:-1], lo, hi)

    failed = []
    for model_id, mdp in differential_models():
        want = uncertified(mdp)
        with mock.patch.object(partition, "_break_free", blind):
            try:
                got = canonical_partition(mdp)
            except AssertionError:
                failed.append(model_id)
                continue
        if got != want:
            failed.append(model_id)
    assert len(failed) >= 10


def test_benchmark_documents_are_mostly_break_free():
    # what makes the certificate pay: on these documents the first gap,
    # (0, 1), is usually final
    cleared = 0
    for states, actions in ((3, 2), (4, 2), (3, 3)):
        for index in range(2):
            mdp = family_mdp(states, actions, index)
            best = smallest_rule(optimal_set(mdp, F(1, 2)).d_alpha_sets)
            vfun = partition._ValueFunctions(mdp)
            cleared += partition._break_free(vfun.advantages(best), F(0), F(1))
    assert cleared >= 4


# -- advantage numerators ------------------------------------------------------------


def exact_advantage(mdp, values, s, a, alpha):
    row = mdp.transitions[s][a]
    return mdp.rewards[s][a] + alpha * sum(p * v for p, v in zip(row, values)) - values[s]


def sign(x):
    return (x > 0) - (x < 0)


@pytest.mark.parametrize("seed", range(30))
def test_advantage_numerator_signs_equal_exact_advantages(seed):
    rng = random.Random(2100 + seed)
    mdp = random_mdp(rng, max_states=4, max_actions=3, max_den=6)
    rules = enumerate_decision_rules(mdp)
    for rule in rng.sample(rules, min(3, len(rules))):
        nums, det = _value_solve(mdp, rule)
        advantages = _advantage_numerators(mdp, nums, det)
        for _ in range(4):
            alpha = F(rng.randint(0, 99), 100)
            values = evaluate_deterministic(mdp, rule, alpha).values
            for s in range(mdp.m):
                for a in range(mdp.action_count(s)):
                    got = _homogeneous_value(
                        advantages[s][a], alpha.numerator, alpha.denominator
                    )
                    assert sign(got) == sign(exact_advantage(mdp, values, s, a, alpha))
        # the rule's own actions have advantage zero everywhere
        assert all(advantages[s][a] == [] for s, a in enumerate(rule.choices))


def test_value_solve_determinant_is_positive_at_zero():
    for example_id in EXAMPLE_IDS:
        mdp = build_example(example_id).mdp
        scale = mdp.integer_table.scale
        for rule in enumerate_decision_rules(mdp):
            _, det = _value_solve(mdp, rule)
            assert det[0] == scale**mdp.m


# -- value functions on demand -------------------------------------------------------


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_value_functions_cover_every_rule_in_order(example_id):
    mdp = build_example(example_id).mdp
    vf = canonical_partition(mdp).value_functions
    rules = enumerate_decision_rules(mdp)
    assert len(vf) == len(rules)
    assert list(vf) == rules
    assert dict(vf) == {rule: _value_solve(mdp, rule) for rule in rules}
    assert {rule: frozen_values.reduced_values(mdp.m, *vf[rule]) for rule in rules} == {
        rule: value_rational_function(mdp, rule) for rule in rules
    }


def test_value_functions_reject_foreign_rules():
    mdp = build_example("ex1").mdp
    vf = canonical_partition(mdp).value_functions
    first = enumerate_decision_rules(mdp)[0]
    outside = DecisionRule((mdp.action_count(0),) + first.choices[1:])
    short = DecisionRule(first.choices[:-1])
    for key in (outside, short, first.choices, "rule"):
        assert key not in vf
        with pytest.raises(KeyError):
            vf[key]
    assert first in vf


def test_break_free_partition_solves_only_what_it_reads(monkeypatch):
    solves = []
    original = partition._value_solve

    def counting(mdp, rule):
        solves.append(rule)
        return original(mdp, rule)

    monkeypatch.setattr(partition, "_value_solve", counting)
    mdp = family_mdp(5, 4, 0)  # 1,024 rules and no break
    part = canonical_partition(mdp)
    assert part.irregular_points == ()
    assert len(part.intervals) == 1
    assert len(solves) <= len(part.intervals)
    read = set()
    best = smallest_rule(part.intervals[0].d_set)
    for rule in (best, DecisionRule((1, 2, 3, 0, 1))):
        part.value_functions[rule]
        read.add(rule)
    part.optimal_at(mdp, F(1, 3))
    assert len(solves) <= len(part.intervals) + len(read)
    assert len(set(solves)) == len(solves)


def test_partition_keeps_the_enumeration_cap(monkeypatch, capsys, tmp_path):
    mdp = family_mdp(5, 4, 0)
    monkeypatch.setenv("EXACTMDP_ENUMERATION_CAP", "1000")
    with pytest.raises(CapExceededError) as info:
        canonical_partition(mdp)
    cap = info.value
    assert (cap.cap_name, cap.needed, cap.cap) == ("enumeration", 1024, 1000)
    path = tmp_path / "model.json"
    path.write_text(docio.dumps_document(docio.document_from_mdp(mdp)))
    assert cli.main(["partition", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cap exceeded: enumeration cap exceeded: need 1024, cap is 1000\n"


# -- root counts without isolation ---------------------------------------------------


def seeded_counts(rng):
    """(p, lo, hi) with rational roots at the ends and at dyadic midpoints
    of (lo, hi), irrational pairs, repeated roots and none at all."""
    den = rng.choice([1, 2, 4, 8, 16, 3, 10])
    lo, hi = sorted(rng.sample(range(den + 1), 2))
    lo, hi = F(lo, den), F(hi, den)
    mids = [lo + (hi - lo) * F(k, 8) for k in range(1, 8)]
    roots = rng.sample([lo, hi] + mids, rng.randint(0, 3))
    roots += [F(rng.randint(-4, 12), rng.randint(1, 9)) for _ in range(rng.randint(0, 2))]
    p = product(*roots) if roots else Polynomial.constant(rng.choice([1, -3]))
    for _ in range(rng.randint(0, 2)):  # (x - c)^2 - s with irrational roots
        c = F(rng.randint(0, 8), 8)
        s = F(rng.choice([2, 3, 5, 7]), rng.choice([64, 100, 1000]))
        p = p * Polynomial([c * c - s, -2 * c, 1])
    if rng.random() < 0.3:
        p = p * product(rng.choice(roots or [F(1, 2)]))  # a double root
    return p, lo, hi


def test_counts_equal_isolation_and_sturm_on_seeded_polynomials():
    rng = random.Random(2121)
    bisected = 0
    for _ in range(600):
        p, lo, hi = seeded_counts(rng)
        got = count_roots_open(p, lo, hi)
        assert got == len(isolate_roots(p, lo, hi)) == reference_count_roots_open(p, lo, hi)
        bisected += polyarith.descartes_bound(p.ints, lo, hi) > 1
    assert bisected > 100


def test_counting_identifies_no_root(monkeypatch):
    def no_identification(*args):
        raise AssertionError("a count identified a root")

    monkeypatch.setattr(polyarith, "_identify_rational", no_identification)
    monkeypatch.setattr(polyarith, "separate_points", no_identification)
    # two rational roots, one at the midpoint 1/2, and sqrt(1/2)
    p = product(F(1, 2), F(1, 3)) * Polynomial([-1, 0, 2])
    assert count_roots_open(p, F(0), F(1)) == 3
    assert count_roots_open(product(F(1, 3), F(2, 3)), F(0), F(1)) == 2
    assert count_roots_open(product(F(0), F(1)), F(0), F(1)) == 0
