"""Canonical JSON document format for MDPs.

All numeric payloads are exact rational strings ("p/q" or an integer
string); JSON float literals are rejected at parse time so no rounding can
sneak into an analysis.  Every field must also have its JSON type (a
boolean is not a rational, a string is never a list of names or values),
and a "state/action" key names pairs of one state only.  Each violation
raises ``DocumentError``; the model rules are ``mdp.validate``'s.
``mdp_from_document`` parses each distinct rational string once and builds
every row by lookup; only a faulty document is walked again, entry by
entry, for its first fault in document order.
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


def _pair_key(owners: dict[str, str], s: str, a: str) -> str:
    """The key of (s, a); an error when it also names another state's pair."""
    key = f"{s}/{a}"
    if owners.setdefault(key, s) != s:
        raise DocumentError(f"key {key!r} names pairs of states {owners[key]!r} and {s!r}")
    return key


def _walk(doc: dict, parse=None) -> tuple:
    """The model's fields, the format checked in document order; payloads
    stay raw unless each is to be parsed where it stands."""
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
    owners: dict[str, str] = {}
    actions, transitions, rewards = [], [], []
    for s in states:
        if s not in doc_actions:
            raise DocumentError(f"state {s!r} missing from actions")
        acts = tuple(_names(doc_actions[s], f"actions[{s!r}]"))
        rows, rews = [], []
        for a in acts:
            key = _pair_key(owners, s, a)
            if key not in doc_transitions:
                raise DocumentError(f"missing transitions[{key!r}]")
            if key not in doc_rewards:
                raise DocumentError(f"missing rewards[{key!r}]")
            row = _typed(doc_transitions[key], list, f"transitions[{key!r}]")
            if len(row) != len(states):
                raise DocumentError(
                    f"transitions[{key!r}] has {len(row)} entries, expected {len(states)}"
                )
            if parse:
                row = tuple(parse(p, f"transitions[{key}][{j}]") for j, p in enumerate(row))
            rows.append(row)
            reward = doc_rewards[key]
            rews.append(parse(reward, f"rewards[{key}]") if parse else reward)
        actions.append(acts)
        transitions.append(rows)
        rewards.append(rews)
    terminal = _typed(doc["terminal"], list, "terminal")
    if len(terminal) != len(states):
        raise DocumentError("terminal vector length mismatch")
    if parse:
        terminal = [parse(t, f"terminal[{i}]") for i, t in enumerate(terminal)]
    return states, tuple(actions), transitions, rewards, terminal


def mdp_from_document(doc: dict) -> Mdp:
    """The document's model: each distinct payload parsed once, rows built by
    lookup.  A fault, or a payload that is not a string, sends the document
    through a walk that parses each payload where it stands."""
    try:
        states, actions, transitions, rewards, terminal = _walk(doc)
        payloads = set(terminal).union(*rewards, *(r for rows in transitions for r in rows))
        get = {r: parse_rational_string(r) for r in payloads if type(r) is str}.__getitem__
        transitions = [[tuple(map(get, row)) for row in rows] for rows in transitions]
        rewards, terminal = [tuple(map(get, r)) for r in rewards], tuple(map(get, terminal))
    except (DocumentError, KeyError, TypeError):  # KeyError: a payload not a string
        states, actions, transitions, rewards, terminal = _walk(doc, parse_rational_string)
    rows, rewards = tuple(map(tuple, transitions)), tuple(map(tuple, rewards))
    return Mdp(states, actions, rows, rewards, tuple(terminal))


def document_from_mdp(mdp: Mdp) -> dict:
    """The model's document; a ValueError when two states' pairs share a key."""
    doc = {
        "format_version": FORMAT_VERSION,
        "states": list(mdp.states),
        "actions": {s: list(mdp.actions[i]) for i, s in enumerate(mdp.states)},
        "transitions": {},
        "rewards": {},
        "terminal": [format_rational(t) for t in mdp.terminal],
    }
    owners: dict[str, str] = {}
    for i, s in enumerate(mdp.states):
        for k, a in enumerate(mdp.actions[i]):
            key = _pair_key(owners, s, a)
            doc["transitions"][key] = [
                format_rational(p) for p in mdp.transitions[i][k]
            ]
            doc["rewards"][key] = format_rational(mdp.rewards[i][k])
    return doc


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
