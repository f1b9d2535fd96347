"""The document loader against straightforward references.

``docio.mdp_from_document`` parses each distinct rational string once and
builds the model's tables directly, ``mdp.validate`` checks entries and row
sums on the integer table, and ``mdp.spreads`` takes one max and one min
per vector.  Each reference below is the plain Fraction form of the same
step: parse every payload, compare every entry with 0 and 1, sum every row
and take |x| entry by entry.  Model, report and spreads must be equal on
every input, invalid models included.

The loader walks a document once, parses each distinct payload once and
builds the rows by lookup; ``build_integer_table`` scales each distinct
entry once.  ``frozen_loader`` keeps both as they were when they went entry
by entry: the loader must raise the same ``DocumentError`` text on every
malformed document (a key that names pairs of two states is the one new
error), and give the same model and table on every well-formed one.
"""

import copy
import random
from fractions import Fraction as F

import pytest

import frozen_loader
from conftest import mdpgen, random_mdp
from exactmdp import docio
from exactmdp import mdp as mdp_module
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.mdp import (
    Mdp,
    Spreads,
    ValidationReport,
    Violation,
    build_integer_table,
    spreads,
    validate,
)


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


def load_outcome(loader, doc):
    """The model a loader makes of doc, or the text of its DocumentError."""
    try:
        return loader(copy.deepcopy(doc))
    except docio.DocumentError as exc:
        return f"DocumentError: {exc}"


def assert_loads_as_the_oracle(doc):
    got = load_outcome(docio.mdp_from_document, doc)
    assert got == load_outcome(frozen_loader.mdp_from_document, doc)
    if isinstance(got, Mdp):
        assert build_integer_table(got) == frozen_loader.build_integer_table(got)
        assert validate(got) == reference_validate(got)
    return got


def small_document() -> dict:
    return {
        "format_version": 1,
        "states": ["x", "y"],
        "actions": {"x": ["a", "b"], "y": ["a"]},
        "transitions": {"x/a": ["1/2", "1/2"], "x/b": ["0", "1"], "y/a": ["1", "0"]},
        "rewards": {"x/a": "1", "x/b": "-1/3", "y/a": "0"},
        "terminal": ["0", "1"],
    }


DELETE = object()


def edited(*edits) -> dict:
    """small_document with each (path, value) set, or deleted when value is
    DELETE."""
    doc = small_document()
    for path, value in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


MALFORMED = {
    "json-int-then-bool": edited((("transitions", "x/b"), [0, 1]), (("terminal",), [1, True])),
    "json-bool-first-in-row": edited((("transitions", "x/a"), [True, "1/2"]),),
    "json-false-after-zero": edited((("transitions", "x/b"), [0, False]),),
    "json-float-in-reward": edited((("rewards", "x/b"), 0.5),),
    "none-in-terminal": edited((("terminal",), ["0", None]),),
    "unhashable-entry": edited((("transitions", "x/b"), [["0"], "1"]),),
    "unhashable-reward": edited((("rewards", "x/a"), {"p": "1"}),),
    "unhashable-terminal": edited((("terminal",), [[], "1"]),),
    "bad-string-first-in-row": edited((("transitions", "x/a"), ["1/0", "1/2"]),),
    "bad-string-first-in-reward": edited((("rewards", "x/a"), "one"),),
    "structural-after-bad-payload": edited(
        (("rewards", "x/a"), "1.5"), (("transitions", "y/a"), ["1"])
    ),
    "structural-after-bad-row": edited(
        (("transitions", "x/a"), ["1/2", " "]), (("actions", "y"), "a")
    ),
    "bad-payload-after-structural": edited(
        (("transitions", "x/b"), ["0"]), (("transitions", "y/a"), ["1/0", "0"])
    ),
    "repeated-bad-string": edited((("rewards", "x/b"), "1_0"), (("terminal",), ["1_0", "0"])),
    "short-row": edited((("transitions", "y/a"), ["1"]),),
    "long-row": edited((("transitions", "x/b"), ["0", "1", "0"]),),
    "missing-transitions-key": edited((("transitions", "x/b"), DELETE),),
    "missing-rewards-key": edited((("rewards", "y/a"), DELETE),),
    "missing-actions-state": edited((("actions", "y"), DELETE),),
    "missing-terminal": edited((("terminal",), DELETE),),
    "short-terminal": edited((("terminal",), ["0"]),),
    "row-not-a-list": edited((("transitions", "x/a"), "1/2"),),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_raise_the_oracles_error(name):
    assert load_outcome(frozen_loader.mdp_from_document, MALFORMED[name]).startswith(
        "DocumentError"
    )
    assert_loads_as_the_oracle(MALFORMED[name])


def test_a_bool_after_an_equal_json_integer_still_fails_where_it_stands():
    got = load_outcome(docio.mdp_from_document, MALFORMED["json-int-then-bool"])
    assert got == "DocumentError: bad rational value True at terminal[1]"
    got = load_outcome(docio.mdp_from_document, MALFORMED["json-false-after-zero"])
    assert got == "DocumentError: bad rational value False at transitions[x/b][1]"


def _add_fault(doc: dict, rng: random.Random, m: int, key: str, kind: int) -> None:
    if kind == 0:
        doc["transitions"][key][rng.randrange(m)] = rng.choice(FUZZ_PAYLOADS)
    elif kind == 1:
        doc["rewards"][key] = rng.choice(FUZZ_PAYLOADS)
    elif kind == 2:
        doc["terminal"][rng.randrange(m)] = rng.choice(FUZZ_PAYLOADS)
    elif kind == 3:  # a short or a long row
        row = doc["transitions"][key]
        row.pop() if rng.random() < 0.5 else row.append("0")
    elif kind == 4:  # a missing key
        field = rng.choice(["transitions", "rewards", "actions"])
        doc[field].pop(key.split("/")[0] if field == "actions" else key, None)
    elif kind == 5:  # a value of the wrong JSON type
        field = rng.choice(["transitions", "actions"])
        doc[field][key.split("/")[0] if field == "actions" else key] = "1"
    elif kind == 6:
        doc["terminal"] = doc["terminal"][: rng.randrange(m)]
    else:
        field = rng.choice(["states", "format_version", "rewards"])
        doc[field] = rng.choice(FUZZ_PAYLOADS)


FUZZ_PAYLOADS = [
    0, 1, 2, -1, True, False, None, 0.5, [], ["1"], {}, {"p": 1},
    "1/0", "x", "", " ", "1.5", "0x1", "1_0", "1/2", "0", "1", " 1 ", "-2/4",
]


def fuzzed_document(rng: random.Random) -> dict:
    """A random benchmark-shaped document with one to three faults: bad or
    non-string payloads, wrong lengths, missing keys and wrong types."""
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    doc = mdpgen.random_document(m, n, 4, rng.randrange(1000))
    keys = list(doc["transitions"])
    for _ in range(rng.randint(1, 3)):
        key, kind = rng.choice(keys), rng.randrange(8)
        try:
            _add_fault(doc, rng, m, key, kind)
        except (AttributeError, IndexError, KeyError, TypeError):
            pass  # an earlier fault took the target away
    return doc


@pytest.mark.parametrize("block", range(10))
def test_fuzzed_documents_load_as_the_oracle(block):
    for seed in range(block * 60, block * 60 + 60):
        assert_loads_as_the_oracle(fuzzed_document(random.Random(seed)))


def test_the_fuzz_meets_every_kind_of_fault():
    outcomes = [
        load_outcome(docio.mdp_from_document, fuzzed_document(random.Random(seed)))
        for seed in range(600)
    ]
    errors = {e for e in outcomes if isinstance(e, str)}
    for part in [
        "bad rational value True",
        "bad rational value None",
        "bad rational value []",
        "bad rational value 0.5",
        "bad rational '1/0'",
        "bad rational 'x'",
        "entries, expected",
        "missing transitions",
        "missing rewards",
        "missing from actions",
        "must be a list, not str",
        "terminal vector length mismatch",
        "unsupported format_version",
    ]:
        assert any(part in e for e in errors), part
    # some faults are only JSON integers or other good payloads: those
    # documents load, through the entry-by-entry walk when a payload is an int
    assert sum(isinstance(o, Mdp) for o in outcomes) >= 10


def differential_families():
    for eid in EXAMPLE_IDS:
        yield f"corpus-{eid}", docio.document_from_mdp(build_example(eid).mdp)
    for shape in [(3, 2), (4, 2), (3, 3), (12, 4)]:
        for seed in range(3):
            yield f"random-{shape}-{seed}", mdpgen.random_document(*shape, 8, seed)


@pytest.mark.parametrize("name, doc", list(differential_families()))
def test_well_formed_families_load_as_the_oracle(name, doc):
    assert isinstance(assert_loads_as_the_oracle(doc), Mdp)
    text = docio.dumps_document(doc)
    assert isinstance(assert_loads_as_the_oracle(docio.loads_document(text)), Mdp)


@pytest.mark.parametrize("seed", range(300))
def test_tables_of_fuzzed_models_match_the_oracle(seed):
    # built in code and loaded from its document, valid or not
    mdp = broken_mdp(random.Random(seed))
    assert build_integer_table(mdp) == frozen_loader.build_integer_table(mdp)
    assert_loads_as_the_oracle(docio.document_from_mdp(mdp))


@pytest.mark.parametrize("seed", range(40))
def test_tables_of_random_models_match_the_oracle(seed):
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_den=rng.choice([1, 2, 8]))
    assert build_integer_table(mdp) == frozen_loader.build_integer_table(mdp)
    assert build_integer_table(mdp.with_terminal([0] * mdp.m)) == build_integer_table(mdp)
    assert_loads_as_the_oracle(docio.document_from_mdp(mdp))


def test_equal_entries_that_are_distinct_objects_scale_alike():
    # two Fractions of one value, and an int among Fractions
    mdp = Mdp(
        ("x", "y"),
        (("a", "b"), ("a",)),
        ((((F(1, 2), F(1, 2))), (F(0), 1)), ((F(2, 4), F(1, 2)),)),
        ((F(1, 3), 2), (F(-1, 3),)),
        (F(0), F(0)),
    )
    assert build_integer_table(mdp) == frozen_loader.build_integer_table(mdp)
    assert build_integer_table(mdp).rows[0][1] == ((1, 6),)


def test_a_well_formed_document_is_read_in_one_walk(monkeypatch):
    doc = mdpgen.random_document(12, 4, 8, 0)
    payloads = [
        *(p for row in doc["transitions"].values() for p in row),
        *doc["rewards"].values(),
        *doc["terminal"],
    ]
    calls = {"walk": [], "parse": [], "table": 0}
    walk, parse = docio._walk, docio.parse_rational_string
    table = mdp_module.build_integer_table

    def counted_walk(*args):
        calls["walk"].append(args[1:])
        return walk(*args)

    def counted_parse(*args):
        calls["parse"].append(args)
        return parse(*args)

    def counted_table(mdp):
        calls["table"] += 1
        return table(mdp)

    monkeypatch.setattr(docio, "_walk", counted_walk)
    monkeypatch.setattr(docio, "parse_rational_string", counted_parse)
    monkeypatch.setattr(mdp_module, "build_integer_table", counted_table)
    mdp = docio.mdp_from_document(doc)
    assert validate(mdp).ok and validate(mdp).ok
    assert calls["walk"] == [()]  # no second, entry-by-entry walk
    assert sorted(args[0] for args in calls["parse"]) == sorted(set(payloads))
    assert len(set(payloads)) == 34 and len(payloads) == 636
    assert calls["table"] == 1
