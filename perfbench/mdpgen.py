"""Fixed-shape random MDP documents for the benchmark (stdlib only).

Every state gets exactly ``actions`` actions, so an instance always has
``actions ** states`` decision rules.  Probabilities, rewards and terminal
values are exact rationals with denominators at most ``max_den``, written as
the rational strings of the exactmdp document format.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _rational_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _reward(rng: random.Random, max_den: int) -> str:
    den = rng.randint(1, max_den)
    return _rational_text(Fraction(rng.randint(-2 * den, 2 * den), den))


def _probability_row(rng: random.Random, states: int, max_den: int) -> list[str]:
    den = rng.randint(1, max_den)
    weights = [0] * states
    for _ in range(den):
        weights[rng.randrange(states)] += 1
    return [_rational_text(Fraction(w, den)) for w in weights]


def random_document(states: int, actions: int, max_den: int, seed: int) -> dict:
    """The MDP document of one (shape, max_den, seed) instance.

    The generator is seeded with a string, which Python hashes with SHA-512,
    so the same arguments give the same document in every process.
    """
    if states < 1 or actions < 1 or max_den < 1:
        raise ValueError("states, actions and max_den must be positive")
    rng = random.Random(f"{states}x{actions}/{max_den}/{seed}")
    names = [f"s{i}" for i in range(states)]
    acts = [f"a{k}" for k in range(actions)]
    doc = {
        "format_version": 1,
        "states": names,
        "actions": {s: list(acts) for s in names},
        "transitions": {},
        "rewards": {},
    }
    for s in names:
        for a in acts:
            doc["transitions"][f"{s}/{a}"] = _probability_row(rng, states, max_den)
            doc["rewards"][f"{s}/{a}"] = _reward(rng, max_den)
    doc["terminal"] = [_reward(rng, max_den) for _ in names]
    return doc


def rename(doc: dict, rng: random.Random) -> dict:
    """The same MDP with states and actions renamed to random names of a
    fixed length.

    Orders are kept, so every analysis does the same work as on ``doc``
    while the document bytes and the CLI output change.
    """
    def names(old: list[str], prefix: str) -> dict[str, str]:
        drawn = rng.sample(range(10_000), len(old))
        return {o: f"{prefix}{n:04d}" for o, n in zip(old, drawn)}

    states = names(doc["states"], "q")
    actions = {s: names(acts, "u") for s, acts in doc["actions"].items()}

    def pair(key: str) -> str:
        s, a = key.split("/")
        return f"{states[s]}/{actions[s][a]}"

    return {
        "format_version": doc["format_version"],
        "states": [states[s] for s in doc["states"]],
        "actions": {states[s]: list(names.values()) for s, names in actions.items()},
        "transitions": {pair(k): row for k, row in doc["transitions"].items()},
        "rewards": {pair(k): r for k, r in doc["rewards"].items()},
        "terminal": doc["terminal"],
    }
