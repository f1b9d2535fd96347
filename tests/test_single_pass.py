"""Each analysis computes its shared inputs once: a boundedness verdict
makes one canonical partition, one value-iteration trace and one policy
filtration; ``small-discount`` one filtration; and a turnpike cover one
partition and one symbolic value iteration however many pieces remain."""

import importlib
import sys
from fractions import Fraction as F

from exactmdp import cli, docio
from exactmdp.conditions import boundedness_verdict
from exactmdp.corpus import build_example
from exactmdp.turnpike import turnpike_cover


def count_calls(monkeypatch, module, name):
    """Record the calls of exactmdp.<module>.<name> under every name that any
    exactmdp module binds it to, so calls through ``from .x import f`` count."""
    original = getattr(importlib.import_module(f"exactmdp.{module}"), name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "exactmdp" or key.startswith("exactmdp."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_boundedness_verdict_computes_each_input_once(monkeypatch):
    mdp = build_example("ex4").mdp
    calls = {
        name: count_calls(monkeypatch, module, name)
        for module, name in (
            ("partition", "canonical_partition"),
            ("bellman", "value_iteration"),
            ("smalldiscount", "policy_filtration"),
        )
    }
    report = boundedness_verdict(mdp, F(1, 2))
    assert report.a_left.condition == "A-" and report.a_right.condition == "A+"
    assert {name: len(c) for name, c in calls.items()} == {
        "canonical_partition": 1,
        "value_iteration": 1,
        "policy_filtration": 1,
    }


def test_small_discount_command_filters_once(monkeypatch, capsys, tmp_path):
    path = tmp_path / "model.json"
    mdp = build_example("ex5").mdp
    path.write_text(docio.dumps_document(docio.document_from_mdp(mdp)))
    calls = count_calls(monkeypatch, "smalldiscount", "policy_filtration")
    assert cli.main(["small-discount", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cover_maps_every_piece_from_one_partition(monkeypatch):
    mdp = build_example("ex4").mdp
    partitions = count_calls(monkeypatch, "partition", "canonical_partition")
    levels = count_calls(monkeypatch, "partition", "symbolic_value_iteration")
    cov = turnpike_cover(mdp, F(1, 4), F(3, 4), F(1, 10), n_cap=16)
    # the break at 1/2 is excised, so at least the two sides of it remain
    assert len(cov.pieces) >= 2
    assert (len(partitions), len(levels)) == (1, 1)
