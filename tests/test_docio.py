"""The document reader: exact round trips, and exit code 2 on every
malformed document.

A document is JSON; each field must have its JSON type.  A boolean is not a
rational, a string is not a list of names or of rationals, and a number is
not a transition row.  `cli.main` turns each `DocumentError` into exit 2,
so a fuzzed document may only ever give exit 0 (it is a valid model, or
`validate` reports its violations) or 2.
"""

import contextlib
import copy
import io
import json
import random
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_mdp
from exactmdp import cli, docio
from exactmdp.mdp import Mdp, validate

VALID = {
    "format_version": 1,
    "states": ["s"],
    "actions": {"s": ["a"]},
    "transitions": {"s/a": ["1"]},
    "rewards": {"s/a": "1"},
    "terminal": ["0"],
}


def run_cli(args: list[str], doc) -> int:
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            return cli.main([args[0], str(path), *args[1:]])


def with_field(path: tuple, value) -> dict:
    doc = copy.deepcopy(VALID)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "path, value",
    [
        (("rewards", "s/a"), True),
        (("transitions", "s/a"), [True]),
        (("terminal",), [False]),
        (("actions", "s"), "a"),
        (("transitions", "s/a"), "1"),
        (("terminal",), "0"),
        (("transitions", "s/a"), 5),
        (("states",), "s"),
        (("states",), [["s"]]),
        (("states",), []),
        (("actions",), ["s"]),
        (("transitions",), "s/a"),
        (("rewards",), ["1"]),
        (("format_version",), True),
        (("rewards", "s/a"), None),
    ],
)
def test_wrong_json_types_are_rejected(path, value):
    doc = with_field(path, value)
    with pytest.raises(docio.DocumentError):
        docio.mdp_from_document(doc)
    assert run_cli(["solve", "--alpha", "1/2"], doc) == 2
    assert run_cli(["validate"], doc) == 2


# int() alone takes underscores, inner spaces and non-ASCII digits
NOT_ASCII_INTEGERS = ["1_000", "１/２", "1_0/3", "1 / 2", "1/ 2", "٣", "1/٢", "²"]


@pytest.mark.parametrize("raw", NOT_ASCII_INTEGERS)
def test_rational_strings_need_ascii_integer_parts(raw):
    with pytest.raises(docio.DocumentError, match="bad rational"):
        docio.parse_rational_string(raw, "rewards['s/a']")
    assert run_cli(["solve", "--alpha", "1/2"], with_field(("rewards", "s/a"), raw)) == 2


@pytest.mark.parametrize(
    "raw, value", [("+3", 3), ("-1/2", F(-1, 2)), (" 1/2 ", F(1, 2)), ("007", 7)]
)
def test_signed_and_padded_rationals_still_parse(raw, value):
    assert docio.parse_rational_string(raw) == value


def test_valid_reference_document_solves():
    assert run_cli(["solve", "--alpha", "1/2"], VALID) == 0


def test_integer_literal_past_the_digit_limit_is_a_document_error():
    with pytest.raises(docio.DocumentError):
        docio.loads_document('{"format_version": ' + "1" * 5000 + "}")


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_round_trip(seed):
    mdp = random_mdp(random.Random(seed), max_states=4, max_actions=3, max_den=12)
    doc = docio.document_from_mdp(mdp)
    assert docio.mdp_from_document(doc) == mdp
    text = docio.dumps_document(doc)
    assert docio.mdp_from_document(docio.loads_document(text)) == mdp


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.text(max_size=4)
    | st.sampled_from(["0", "1", "1/2", "-1/3", "1/0", "s0", "a0", "s0/a0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def paths_of(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths_of(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from paths_of(value, prefix + (i,))


@st.composite
def mutated_documents(draw):
    seed = draw(st.integers(0, 10**6))
    mdp = random_mdp(random.Random(seed), max_states=3, max_actions=2, max_den=4)
    doc = docio.document_from_mdp(mdp)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths_of(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(json_values)
        else:
            del parent[path[-1]]
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@given(mutated_documents())
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_fuzzed_documents_exit_0_or_2(text):
    assert run_cli(["validate"], text) in (0, 2)
    assert run_cli(["solve", "--alpha", "1/2"], text) in (0, 2)


# states x and x/a with actions a/b and b: both pairs read "x/a/b"
AMBIGUOUS = {
    "format_version": 1,
    "states": ["x", "x/a"],
    "actions": {"x": ["a/b"], "x/a": ["b"]},
    "transitions": {"x/a/b": ["1", "0"]},
    "rewards": {"x/a/b": "1"},
    "terminal": ["0", "0"],
}


def test_a_key_that_names_pairs_of_two_states_is_rejected():
    with pytest.raises(docio.DocumentError) as err:
        docio.mdp_from_document(copy.deepcopy(AMBIGUOUS))
    assert str(err.value) == "key 'x/a/b' names pairs of states 'x' and 'x/a'"
    # a model with such names has no document either
    mdp = Mdp(
        ("x", "x/a"),
        (("a/b",), ("b",)),
        (((F(1), F(0)),), ((F(0), F(1)),)),
        ((F(1),), (F(2),)),
        (F(0), F(0)),
    )
    with pytest.raises(ValueError, match="names pairs of states 'x' and 'x/a'"):
        docio.document_from_mdp(mdp)


def test_repeated_names_stay_validate_violations():
    # a repeated state or action gives one key to pairs of one state name
    doc = {
        "format_version": 1,
        "states": ["x", "x"],
        "actions": {"x": ["a", "a"]},
        "transitions": {"x/a": ["1/2", "1/2"]},
        "rewards": {"x/a": "1"},
        "terminal": ["0", "0"],
    }
    codes = [v.code for v in validate(docio.mdp_from_document(doc)).violations]
    assert codes == ["duplicate-state", "duplicate-action", "duplicate-action"]
    assert run_cli(["validate"], doc) == 0
    assert run_cli(["solve", "--alpha", "1/2"], doc) == 2
