"""Built-in example MDPs.

``exactmdp corpus --id <id>`` prints each one as a document; the tests pin
what is known about them.  All examples are deterministic.  Transition
arrows are encoded as one-hot probability rows; action a1/a2 at a state mean
the first/second outgoing arrow in the construction order, so rule indices
match the usual phi_1, phi_2, ... labeling (lexicographic in per-state
action indices).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .mdp import Mdp

EXAMPLE_IDS = ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "remark-variant")


@dataclass(frozen=True)
class ExampleFixture:
    id: str
    mdp: Mdp


class UnknownExampleError(ValueError):
    pass


def _det(states, arrows, terminal):
    """Build a deterministic MDP from {state: [(action, target, reward)]}."""
    idx = {s: i for i, s in enumerate(states)}
    actions = tuple(tuple(a for a, _, _ in arrows[s]) for s in states)
    transitions = tuple(
        tuple(
            tuple(
                Fraction(1 if idx[target] == j else 0) for j in range(len(states))
            )
            for _, target, _ in arrows[s]
        )
        for s in states
    )
    rewards = tuple(
        tuple(Fraction(r) for _, _, r in arrows[s]) for s in states
    )
    return Mdp(
        tuple(states), actions, transitions, rewards, tuple(Fraction(t) for t in terminal)
    )


def _ex1() -> ExampleFixture:
    states = ["x1", "x2"]
    arrows = {
        "x1": [("a1", "x1", 0), ("a2", "x2", 0)],
        "x2": [("a1", "x1", 0), ("a2", "x2", 1)],
    }
    return ExampleFixture("ex1", _det(states, arrows, [2, 0]))


def _ex2() -> ExampleFixture:
    states = ["x1", "x2", "x3", "y1", "y2"]
    arrows = {
        "x1": [("a1", "x2", Fraction(1, 4)), ("a2", "y1", 0)],
        "x2": [("a1", "x3", 0)],
        "x3": [("a1", "x3", 1)],
        "y1": [("a1", "y2", 1)],
        "y2": [("a1", "y2", 0)],
    }
    return ExampleFixture("ex2", _det(states, arrows, [0, 0, 0, 0, 0]))


def _ex3(m: int) -> ExampleFixture:
    if m < 2:
        raise ValueError("the chain example needs at least two states")
    states = [f"x{i}" for i in range(1, m + 1)]
    arrows = {"x1": [("a1", "x1", 0), ("a2", "x2", 0)]}
    for i in range(2, m):
        arrows[f"x{i}"] = [("a1", f"x{i + 1}", 0)]
    arrows[f"x{m}"] = [("a1", f"x{m}", 1)]
    return ExampleFixture("ex3", _det(states, arrows, [0] * m))


def _ex4() -> ExampleFixture:
    states = ["x1", "x2", "x3", "x4", "x5"]
    arrows = {
        "x1": [("a1", "x2", 1), ("a2", "x4", Fraction(26, 27))],
        "x2": [("a1", "x3", 0)],
        "x3": [("a1", "x2", 1)],
        "x4": [("a1", "x5", Fraction(2, 9))],
        "x5": [("a1", "x5", Fraction(14, 27))],
    }
    terminal = [1, Fraction(1, 3), 1, Fraction(11, 27), Fraction(19, 27)]
    return ExampleFixture("ex4", _det(states, arrows, terminal))


def _ex5() -> ExampleFixture:
    states = ["x1", "x2"]
    arrows = {
        "x1": [("a1", "x1", 1), ("a2", "x2", 2)],
        "x2": [("a1", "x2", Fraction(1, 2))],
    }
    return ExampleFixture("ex5", _det(states, arrows, [1, Fraction(-1, 2)]))


def _ex6() -> ExampleFixture:
    states = ["x1", "x2", "x3"]
    arrows = {
        "x1": [("a1", "x2", -1), ("a2", "x3", 1)],
        "x2": [("a1", "x2", 1)],
        "x3": [("a1", "x3", -1)],
    }
    return ExampleFixture("ex6", _det(states, arrows, [0, 0, 0]))


def _remark_variant() -> ExampleFixture:
    # Same tangency phenomenon as ex4 but with zero terminal rewards: the
    # value difference at x1 is (1-2a)^3 / ((1+a)(1-a^3)), so the one-sided
    # rules keep equal value-function derivatives at the break while the
    # out-of-phase loops through x1 preserve the joint first-step optimality
    # there at every large horizon.
    states = ["x1", "x2", "x3", "x4"]
    arrows = {
        "x1": [("a1", "x2", 27), ("a2", "x3", 26)],
        "x2": [("a1", "x1", 0)],
        "x3": [("a1", "x4", 7)],
        "x4": [("a1", "x1", 8)],
    }
    return ExampleFixture("remark-variant", _det(states, arrows, [0, 0, 0, 0]))


def build_example(example_id: str, m: int | None = None) -> ExampleFixture:
    """Construct one of the bundled example MDPs.

    The chain example ("ex3") is parameterized by its state count m.
    """
    if example_id == "ex1":
        return _ex1()
    if example_id == "ex2":
        return _ex2()
    if example_id == "ex3":
        return _ex3(4 if m is None else m)
    if example_id == "ex4":
        return _ex4()
    if example_id == "ex5":
        return _ex5()
    if example_id == "ex6":
        return _ex6()
    if example_id == "remark-variant":
        return _remark_variant()
    raise UnknownExampleError(f"unknown example id {example_id!r}")
