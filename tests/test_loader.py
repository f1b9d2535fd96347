"""The document loader against straightforward references.

``docio.mdp_from_document`` parses each distinct rational string once and
builds the model's tables directly, ``mdp.validate`` checks entries and row
sums on the integer table, and ``mdp.spreads`` takes one max and one min
per vector.  Each reference below is the plain Fraction form of the same
step: parse every payload, compare every entry with 0 and 1, sum every row
and take |x| entry by entry.  Model, report and spreads must be equal on
every input, invalid models included.
"""

import copy
import random
from fractions import Fraction as F

import pytest

from conftest import random_mdp
from exactmdp import docio
from exactmdp.corpus import build_example
from exactmdp.mdp import Mdp, Spreads, ValidationReport, Violation, spreads, validate


def reference_validate(mdp: Mdp) -> ValidationReport:
    violations = []
    seen_states = set()
    for s in mdp.states:
        if s in seen_states:
            violations.append(Violation("duplicate-state", state=s))
        seen_states.add(s)
    for i, s in enumerate(mdp.states):
        if mdp.action_count(i) == 0:
            violations.append(Violation("empty-action-set", state=s))
        seen_actions = set()
        for k, a in enumerate(mdp.actions[i]):
            if a in seen_actions:
                violations.append(Violation("duplicate-action", state=s, action=a))
            seen_actions.add(a)
            row = mdp.transitions[i][k]
            for p in row:
                if p < 0 or p > 1:
                    violations.append(
                        Violation("probability-out-of-range", state=s, action=a, detail=str(p))
                    )
                    break
            total = sum(row, F(0))
            if total != 1:
                violations.append(
                    Violation("row-sum-not-one", state=s, action=a, detail=str(total))
                )
    return ValidationReport(ok=not violations, violations=tuple(violations))


def reference_spreads(mdp: Mdp) -> Spreads:
    all_rewards = [r for row in mdp.rewards for r in row]
    r1 = max(abs(r) for r in all_rewards)
    r2 = max(abs(t) for t in mdp.terminal)
    f1 = (max(all_rewards) + min(all_rewards)) / 2
    f2 = (max(mdp.terminal) + min(mdp.terminal)) / 2
    r1_star, r2_star = r1 - abs(f1), r2 - abs(f2)
    return Spreads(r1, r2, max(r1, r2), f1, f2, r1_star, r2_star, max(r1_star, r2_star))


def reference_model(doc: dict) -> Mdp:
    """The model of a well-formed document, every payload parsed on its own."""
    parse = docio.parse_rational_string
    states = tuple(doc["states"])
    actions = tuple(tuple(doc["actions"][s]) for s in states)
    keys = [[f"{s}/{a}" for a in acts] for s, acts in zip(states, actions)]
    return Mdp(
        states,
        actions,
        tuple(tuple(tuple(map(parse, doc["transitions"][k])) for k in ks) for ks in keys),
        tuple(tuple(parse(doc["rewards"][k]) for k in ks) for ks in keys),
        tuple(map(parse, doc["terminal"])),
    )


def broken_mdp(rng: random.Random) -> Mdp:
    """A random model with some of the rules broken: entries below 0 or
    above 1, rows that do not sum to 1, repeated state or action names and
    states without actions."""
    base = random_mdp(rng, max_states=4, max_actions=3)
    m = base.m
    states = list(base.states)
    if m > 1 and rng.random() < 0.3:
        states[rng.randrange(1, m)] = states[0]
    actions, transitions, rewards = [], [], []
    for i in range(m):
        acts = list(base.actions[i])
        rows = [list(row) for row in base.transitions[i]]
        rews = list(base.rewards[i])
        if rng.random() < 0.1:
            acts, rows, rews = [], [], []
        elif len(acts) > 1 and rng.random() < 0.3:
            acts[-1] = acts[0]
        for row in rows:
            kind = rng.randrange(4)
            j = rng.randrange(m)
            if kind == 1:  # mass moved so one entry leaves [0, 1]; the sum stays 1
                shift = F(rng.randint(1, 6), rng.randint(1, 4))
                k = rng.randrange(m)
                row[j] += shift
                row[k] -= shift
            elif kind == 2:  # one entry changed: the row no longer sums to 1
                row[j] += F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 6))
            elif kind == 3:  # scaled: every entry may leave the range
                row[:] = [p * F(rng.randint(-3, 3), rng.randint(1, 3)) for p in row]
        actions.append(tuple(acts))
        transitions.append(tuple(tuple(row) for row in rows))
        rewards.append(tuple(rews))
    return Mdp(tuple(states), tuple(actions), tuple(transitions), tuple(rewards), base.terminal)


@pytest.mark.parametrize("seed", range(300))
def test_validate_matches_the_fraction_reference(seed):
    mdp = broken_mdp(random.Random(seed))
    assert validate(mdp) == reference_validate(mdp)


def test_the_fuzzed_models_break_every_rule():
    codes = {
        v.code for seed in range(300) for v in validate(broken_mdp(random.Random(seed))).violations
    }
    assert codes == {
        "duplicate-state",
        "duplicate-action",
        "empty-action-set",
        "probability-out-of-range",
        "row-sum-not-one",
    }
    details = {
        v.detail
        for seed in range(300)
        for v in validate(broken_mdp(random.Random(seed))).violations
        if v.code == "probability-out-of-range"
    }
    assert any(d.startswith("-") for d in details) and any(F(d) > 1 for d in details)


@pytest.mark.parametrize("seed", range(100))
def test_spreads_match_the_fraction_reference(seed):
    rng = random.Random(seed)
    lo = rng.choice([-3, -1, 0, 1])
    mdp = random_mdp(rng, reward_lo=lo, reward_hi=lo + rng.choice([0, 1, 4]))
    assert spreads(mdp) == reference_spreads(mdp)


@pytest.mark.parametrize("seed", range(40))
def test_loaded_model_matches_one_parse_per_payload(seed):
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_den=rng.choice([1, 2, 8]))
    doc = docio.document_from_mdp(mdp)
    loaded = docio.mdp_from_document(doc)
    assert loaded == reference_model(doc) == mdp
    assert validate(loaded) == reference_validate(loaded)


@pytest.mark.parametrize("eid", ["ex1", "ex4", "remark-variant"])
def test_corpus_documents_load_as_before(eid):
    doc = docio.document_from_mdp(build_example(eid).mdp)
    assert docio.mdp_from_document(doc) == reference_model(doc)


def test_json_integers_and_strings_share_no_parse():
    # "1", 1 and true in one document: the string and the integer read as
    # the same rational, and the boolean still fails where it stands
    doc = {
        "format_version": 1,
        "states": ["x", "y"],
        "actions": {"x": ["a", "b"], "y": ["a"]},
        "transitions": {"x/a": ["1", 0], "x/b": [0, 1], "y/a": ["0", "1"]},
        "rewards": {"x/a": 1, "x/b": "1", "y/a": "1"},
        "terminal": ["1", 1],
    }
    mdp = docio.mdp_from_document(doc)
    assert mdp == reference_model(doc)
    assert mdp.transitions == (((F(1), F(0)), (F(0), F(1))), ((F(0), F(1)),))
    assert mdp.rewards == ((F(1), F(1)), (F(1),)) and mdp.terminal == (F(1), F(1))
    bad = copy.deepcopy(doc)
    bad["transitions"]["x/b"] = [0, True]
    with pytest.raises(docio.DocumentError) as err:
        docio.mdp_from_document(bad)
    assert str(err.value) == "bad rational value True at transitions[x/b][1]"
    bad = copy.deepcopy(doc)
    bad["terminal"] = ["1", True]
    with pytest.raises(docio.DocumentError) as err:
        docio.mdp_from_document(bad)
    assert str(err.value) == "bad rational value True at terminal[1]"


def test_a_repeated_bad_string_fails_at_its_first_place():
    doc = {
        "format_version": 1,
        "states": ["x"],
        "actions": {"x": ["a", "b"]},
        "transitions": {"x/a": ["1"], "x/b": ["1"]},
        "rewards": {"x/a": "1/0", "x/b": "1/0"},
        "terminal": ["0"],
    }
    with pytest.raises(docio.DocumentError, match=r"at rewards\[x/a\]"):
        docio.mdp_from_document(doc)
