"""The document loader and the integer table as they were before loading
went by distinct payloads, frozen as references.

``mdp_from_document`` walked the document once, in document order, and
parsed each payload where it stood through a closure that remembered the
strings it had already parsed; the first fault it met, structural or in a
payload, was the one it raised.  ``build_integer_table`` read every entry's
denominator for L and scaled every entry on its own.  The loader's helpers
(``_names``, ``_typed``, ``parse_rational_string``) are read through
``docio``, so their messages are the ones the live loader uses.
"""

import math
from fractions import Fraction

from exactmdp.docio import FORMAT_VERSION, DocumentError, _names, _typed, parse_rational_string
from exactmdp.mdp import IntegerTable, Mdp


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


def build_integer_table(mdp: Mdp) -> IntegerTable:
    scale = math.lcm(
        *(r.denominator for row in mdp.rewards for r in row),
        *(x.denominator for acts in mdp.transitions for row in acts for x in row),
    )

    def scaled(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    rewards = tuple(tuple(map(scaled, row)) for row in mdp.rewards)
    rows = tuple(
        tuple(tuple((j, scaled(x)) for j, x in enumerate(row) if x) for row in acts)
        for acts in mdp.transitions
    )
    return IntegerTable(scale, rewards, rows)
