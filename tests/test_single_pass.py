"""Each analysis computes its shared inputs once: a boundedness verdict
makes one canonical partition, one value-iteration trace and one policy
filtration; ``small-discount`` one filtration; a turnpike cover one
partition and one symbolic value iteration however many pieces remain; and
every model scales its data to integers and measures its spreads once,
however many discounts it is solved at.  Reading a document parses each
distinct rational string once.  Once an analysis holds the canonical
partition, D and V* come off it: no policy iteration runs outside the
partition itself, and each discount is read off once; the partition itself
solves each discount once, even when a midpoint comes back as a partition
point."""

import importlib
import sys
from fractions import Fraction as F

import pytest

from conftest import mdpgen
from exactmdp import cli, docio, partition, turnpike
from exactmdp.conditions import boundedness_verdict
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.smalldiscount import small_discount_checks
from exactmdp.turnpike import turnpike_integer
from exactmdp.turnpikemap import turnpike_cover


def rebind(monkeypatch, original, replacement):
    """Replace ``original`` under every name that any exactmdp module binds
    it to, so calls through ``from .x import f`` see the replacement."""
    for key, mod in list(sys.modules.items()):
        if key == "exactmdp" or key.startswith("exactmdp."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


def count_calls(monkeypatch, module, name, when=lambda: True):
    """Record the calls of exactmdp.<module>.<name> made while ``when()``
    holds."""
    original = getattr(importlib.import_module(f"exactmdp.{module}"), name)
    calls = []

    def counting(*args, **kwargs):
        if when():
            calls.append(args)
        return original(*args, **kwargs)

    rebind(monkeypatch, original, counting)
    return calls


def outside_partition(monkeypatch):
    """A ``when`` for count_calls: true outside every canonical_partition."""
    original = partition.canonical_partition
    depth = [0]

    def tracked(*args, **kwargs):
        depth[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth[0] -= 1

    rebind(monkeypatch, original, tracked)
    return lambda: depth[0] == 0


def count_read_offs(monkeypatch):
    """The discounts ``PartitionReport.optimal_at`` is called at."""
    original = partition.PartitionReport.optimal_at
    alphas = []

    def counting(self, mdp, alpha):
        alphas.append(alpha)
        return original(self, mdp, alpha)

    monkeypatch.setattr(partition.PartitionReport, "optimal_at", counting)
    return alphas


def test_boundedness_verdict_computes_each_input_once(monkeypatch):
    mdp = build_example("ex4").mdp
    calls = {
        name: count_calls(monkeypatch, module, name)
        for module, name in (
            ("partition", "canonical_partition"),
            # every value-iteration trace, value_iteration's included, steps
            # through value_iteration_steps
            ("bellman", "value_iteration_steps"),
            ("smalldiscount", "policy_filtration"),
        )
    }
    report = boundedness_verdict(mdp, F(1, 2))
    assert report.a_left.condition == "A-" and report.a_right.condition == "A+"
    assert {name: len(c) for name, c in calls.items()} == {
        "canonical_partition": 1,
        "value_iteration_steps": 1,
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


@pytest.mark.parametrize(
    "analysis",
    [small_discount_checks, lambda mdp: boundedness_verdict(mdp, F(2, 3))],
    ids=["small_discount_checks", "boundedness_verdict"],
)
def test_each_model_builds_its_table_and_spreads_once(monkeypatch, analysis):
    mdp = build_example("ex5").mdp
    calls = {
        name: count_calls(monkeypatch, "mdp", name)
        for name in ("build_integer_table", "spreads")
    }
    analysis(mdp)
    for name, seen in calls.items():
        models = [args[0] for args in seen]
        assert any(model is mdp for model in models), name
        # the calls hold their models, so no id is reused
        assert len({id(model) for model in models}) == len(models), name


def test_terminal_copy_builds_its_own_equal_table(monkeypatch):
    mdp = build_example("ex5").mdp
    copy = mdp.with_terminal([F(0)] * mdp.m)
    calls = count_calls(monkeypatch, "mdp", "build_integer_table")
    table = mdp.integer_table
    assert copy.integer_table == table and copy.integer_table is not table
    assert mdp.integer_table is table
    assert len(calls) == 2 and calls[0][0] is mdp and calls[1][0] is copy


@pytest.mark.parametrize("command", ["solve", "turnpike"])
def test_pointwise_commands_read_the_document_once(monkeypatch, capsys, tmp_path, command):
    doc = mdpgen.random_document(12, 4, 8, 0)
    path = tmp_path / "r12x4.json"
    path.write_text(docio.dumps_document(doc))
    payloads = [
        *(p for row in doc["transitions"].values() for p in row),
        *doc["rewards"].values(),
        *doc["terminal"],
    ]
    tables = count_calls(monkeypatch, "mdp", "build_integer_table")
    parses = count_calls(monkeypatch, "docio", "parse_rational_string")
    assert cli.main([command, str(path), "--alpha", "9/10"]) == 0
    capsys.readouterr()
    assert len(tables) == 1
    assert sorted(args[0] for args in parses) == sorted(set(payloads))


def test_sweep_runs_policy_iteration_only_inside_the_partition(
    monkeypatch, capsys, tmp_path
):
    path = tmp_path / "ex4.json"
    path.write_text(docio.dumps_document(docio.document_from_mdp(build_example("ex4").mdp)))
    outside = count_calls(
        monkeypatch, "bellman", "optimal_set", outside_partition(monkeypatch)
    )
    every = count_calls(monkeypatch, "bellman", "optimal_set")
    argv = ["sweep", str(path), "--interval", "1/100,9/10", "--steps", "20"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 21
    assert every and outside == []


def test_small_discount_checks_solve_each_discount_once(monkeypatch):
    mdp = build_example("ex5").mdp
    outside = count_calls(
        monkeypatch, "bellman", "optimal_set", outside_partition(monkeypatch)
    )
    calls = count_calls(monkeypatch, "turnpike", "turnpike_integer")
    read_offs = count_read_offs(monkeypatch)
    checks = small_discount_checks(mdp)
    assert checks.all_passed
    turnpikes = [args[1] for args in calls]
    # the zero-regular grid repeats the turnpike grid, and 0 both set checks
    assert F(0) in turnpikes and len(turnpikes) > 20
    assert len(turnpikes) == len(set(turnpikes))
    assert sorted(read_offs) == sorted(turnpikes)
    assert outside == []


def test_boundedness_verdict_solves_the_point_once(monkeypatch):
    mdp = build_example("ex4").mdp
    alpha_star = F(1, 2)
    outside = count_calls(
        monkeypatch, "bellman", "optimal_set", outside_partition(monkeypatch)
    )
    read_offs = count_read_offs(monkeypatch)
    report = boundedness_verdict(mdp, alpha_star)
    assert report.a_left.method == "certificate"  # which reads V*(1/2)
    assert report.samples_left and report.samples_right
    assert outside == []
    assert read_offs.count(alpha_star) == 1


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_partition_solves_each_discount_once(monkeypatch, example_id):
    calls = count_calls(monkeypatch, "bellman", "optimal_set")
    report = partition.canonical_partition(build_example(example_id).mdp)
    alphas = [args[1] for args in calls]
    assert F(0) in alphas
    assert len(alphas) == len(set(alphas)), sorted(alphas)
    if example_id in ("ex4", "ex6", "remark-variant"):
        # 1/2 is the first midpoint and the break point
        assert report.irregular_points[-1].point == F(1, 2)
        assert sorted(alphas) == [F(0), F(1, 4), F(1, 2), F(3, 4)]


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_turnpike_reads_its_gap_off_the_certifying_q_pass(monkeypatch, example_id):
    """One integer Q pass certifies D and V*, whether read off the partition
    or found by policy iteration, and the gap comes from that same pass: the
    only other passes are value-iteration steps (and, without a partition,
    one per policy round)."""
    mdp = build_example(example_id).mdp
    part = partition.canonical_partition(mdp)
    passes = count_calls(monkeypatch, "bellman", "_q_nums")
    solves = count_calls(monkeypatch, "bellman", "_policy_value")
    for alpha in (F(1, 10), F(1, 3), F(3, 4), F(9, 10)):
        passes.clear()
        res = turnpike_integer(mdp, alpha, part)
        assert len(passes) == 1 + res.horizons_checked, alpha
        passes.clear()
        solves.clear()
        res = turnpike_integer(mdp, alpha)
        warm = turnpike._WARM_HORIZONS
        steps = warm + max(0, res.horizons_checked - warm)
        assert len(passes) == len(solves) + steps, alpha
