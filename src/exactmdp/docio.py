"""Canonical JSON document format for MDPs.

All numeric payloads are exact rational strings ("p/q" or an integer
string); JSON float literals are rejected at parse time so no rounding can
sneak into an analysis.  Every field must also have its JSON type: a
boolean is not a rational, and a string is never read as a list of names or
values.  Each violation raises ``DocumentError``.  ``mdp_from_document``
parses each distinct rational string once per document and checks the
format only; the model rules are ``mdp.validate``'s.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .limits import parse_int
from .mdp import Mdp

FORMAT_VERSION = 1


class DocumentError(ValueError):
    pass


def _reject_float(text: str):
    raise DocumentError(
        f"float literal {text!r} is not accepted; use rational strings like \"1/2\""
    )


def parse_rational_string(raw, where: str = "") -> Fraction:
    """Parse "p/q" or integer payloads, each part ASCII [+-]?[0-9]+ once
    the string is stripped; floats, decimals and booleans are rejected."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    if isinstance(raw, str):
        text = raw.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            try:
                return Fraction(parse_int(num), parse_int(den))
            except (ValueError, ZeroDivisionError) as exc:
                raise DocumentError(f"bad rational {raw!r} at {where}: {exc}")
        try:
            return Fraction(parse_int(text))
        except ValueError:
            raise DocumentError(
                f"bad rational {raw!r} at {where}; expected \"p/q\" or an integer"
            )
    raise DocumentError(f"bad rational value {raw!r} at {where}")


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def loads_document(text: str) -> dict:
    try:
        return json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: line {exc.lineno}, column {exc.colno}")
    except ValueError as exc:  # e.g. an integer literal past the digit limit
        raise DocumentError(f"not valid JSON: {exc}")
    except RecursionError:
        raise DocumentError("not valid JSON: nested too deeply")


def _typed(value, kind: type, where: str):
    """value itself when it is a JSON value of the given kind (list, dict or
    str), so that a string is never iterated where a list is expected."""
    if not isinstance(value, kind):
        names = {list: "a list", dict: "an object", str: "a string"}
        raise DocumentError(f"{where} must be {names[kind]}, not {type(value).__name__}")
    return value


def _names(value, where: str) -> list[str]:
    return [
        _typed(v, str, f"{where}[{i}]")
        for i, v in enumerate(_typed(value, list, where))
    ]


def mdp_from_document(doc: dict) -> Mdp:
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {version!r}")
    for key in ("states", "actions", "transitions", "rewards", "terminal"):
        if key not in doc:
            raise DocumentError(f"missing field {key!r}")
    states = tuple(_names(doc["states"], "states"))
    if not states:
        raise DocumentError("states must not be empty")
    doc_actions = _typed(doc["actions"], dict, "actions")
    doc_transitions = _typed(doc["transitions"], dict, "transitions")
    doc_rewards = _typed(doc["rewards"], dict, "rewards")
    parsed: dict[str, Fraction] = {}  # keyed by JSON string only

    def parse(raw, where: str, *index) -> Fraction:
        if type(raw) is not str:  # a JSON number or boolean
            return parse_rational_string(raw, where.format(*index))
        if raw not in parsed:
            parsed[raw] = parse_rational_string(raw, where.format(*index))
        return parsed[raw]

    actions, transitions, rewards = [], [], []
    for s in states:
        if s not in doc_actions:
            raise DocumentError(f"state {s!r} missing from actions")
        acts = tuple(_names(doc_actions[s], f"actions[{s!r}]"))
        rows, rews = [], []
        for a in acts:
            key = f"{s}/{a}"
            if key not in doc_transitions:
                raise DocumentError(f"missing transitions[{key!r}]")
            if key not in doc_rewards:
                raise DocumentError(f"missing rewards[{key!r}]")
            row = _typed(doc_transitions[key], list, f"transitions[{key!r}]")
            if len(row) != len(states):
                raise DocumentError(
                    f"transitions[{key!r}] has {len(row)} entries, expected {len(states)}"
                )
            rows.append(
                tuple(parse(p, "transitions[{}][{}]", key, j) for j, p in enumerate(row))
            )
            rews.append(parse(doc_rewards[key], "rewards[{}]", key))
        actions.append(acts)
        transitions.append(tuple(rows))
        rewards.append(tuple(rews))
    terminal = _typed(doc["terminal"], list, "terminal")
    if len(terminal) != len(states):
        raise DocumentError("terminal vector length mismatch")
    terminal = tuple(parse(t, "terminal[{}]", i) for i, t in enumerate(terminal))
    return Mdp(states, tuple(actions), tuple(transitions), tuple(rewards), terminal)


def document_from_mdp(mdp: Mdp) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "states": list(mdp.states),
        "actions": {s: list(mdp.actions[i]) for i, s in enumerate(mdp.states)},
        "transitions": {},
        "rewards": {},
        "terminal": [format_rational(t) for t in mdp.terminal],
    }
    for i, s in enumerate(mdp.states):
        for k, a in enumerate(mdp.actions[i]):
            key = f"{s}/{a}"
            doc["transitions"][key] = [
                format_rational(p) for p in mdp.transitions[i][k]
            ]
            doc["rewards"][key] = format_rational(mdp.rewards[i][k])
    return doc


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
