"""Work pins for one `boundedness_verdict` at each rational irregular point
of the corpus.  Condition A builds at most one pushforward kernel and calls
no `compute_G`; condition B forms no transition product (`_mat_mul`), since
its derivative table extends tail vectors instead."""

from fractions import Fraction as F

import pytest

from exactmdp import conditions, equivalence
from exactmdp.corpus import build_example

CORPUS_POINTS = [
    ("ex4", F(1, 2)),
    ("ex5", F(2, 3)),
    ("ex6", F(1, 2)),
    ("remark-variant", F(1, 2)),
]


def counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("example_id, point", CORPUS_POINTS)
def test_verdict_work(monkeypatch, example_id, point):
    mdp = build_example(example_id).mdp
    want = conditions.boundedness_verdict(mdp, point)
    calls = {}
    counting(monkeypatch, equivalence, "compute_G", calls)
    counting(monkeypatch, conditions, "_mat_mul", calls)
    counting(monkeypatch, conditions, "same_pushforwards", calls)
    assert conditions.boundedness_verdict(mdp, point) == want
    assert calls.get("compute_G", 0) == 0
    assert calls.get("_mat_mul", 0) == 0
    assert calls.get("same_pushforwards", 0) <= 1
