"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps the
exactmdp functions that ``perfbench/spans.py`` names in ``TARGETS``, and its
hooks read some of their arguments by position and name.  A refactor of
``src/`` that renames or moves one of them breaks only that run; these tests
catch it here.  They read ``perfbench/`` and change nothing in it."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import mdpgen
from exactmdp import bellman, cli, docio, partition, turnpikemap
from exactmdp.corpus import build_example

ROOT = Path(__file__).resolve().parents[1]

# Resolve each target as Tracer.install does, in a process that imports the
# package afresh from this checkout's src/, and print the ones that fail.
RESOLVE = """
import importlib, json, sys
failed = []
for module, attr in json.loads(sys.argv[1]):
    try:
        owner = importlib.import_module("exactmdp." + module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            getattr(owner, cls_name).__dict__[attr]
        else:
            getattr(owner, attr)
    except (ImportError, AttributeError, KeyError) as exc:
        failed.append([module, attr, repr(exc)])
print(json.dumps(failed))
"""


def span_targets():
    """TARGETS of perfbench/spans.py, run from its source so no bytecode
    cache is written next to it."""
    path = ROOT / "perfbench" / "spans.py"
    namespace: dict = {}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_span_target_resolves_in_a_fresh_import():
    pairs = [[module, attr] for module, attr, *_ in span_targets()]
    assert pairs
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-B", "-c", RESOLVE, json.dumps(pairs)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        cwd=ROOT,
    ).stdout
    assert json.loads(out) == []


def test_hooked_parameters_keep_their_names_and_positions():
    # the hooks read canonical_partition's mdp, symbolic_value_iteration's
    # n_max and value_iteration's n_max as (args[i] or kwargs[name])
    for fn, names in (
        (partition.canonical_partition, ["mdp"]),
        (partition.symbolic_value_iteration, ["mdp", "n_max"]),
        (bellman.value_iteration, ["mdp", "alpha", "n_max"]),
    ):
        assert list(inspect.signature(fn).parameters)[: len(names)] == names, fn


# After pointwise commands only, the deferred layers are still unexecuted in
# sys.modules; install the tracer of perfbench/spans.py (run from its source)
# and count the calls of one traced command.
TRACE_AFTER_POINTWISE = """
import contextlib, io, json, sys, types
from exactmdp import cli
spans_path, document, traced = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv
run("solve", document, "--alpha", "9/10")
run("turnpike", document, "--alpha", "9/10")
for name in ("partition", "polyarith", "turnpikemap"):
    assert type(sys.modules["exactmdp." + name]) is not types.ModuleType, name
spans: dict = {}
with open(spans_path, encoding="utf-8") as fh:
    exec(compile(fh.read(), spans_path, "exec"), spans)
tracer = spans["Tracer"]()
tracer.install()
try:
    run(traced[0], document, *traced[1:])
finally:
    tracer.uninstall()
print(json.dumps({name: stat[0] for name, stat in tracer.stats.items()}))
"""


def traced_calls(tmp_path, doc: dict, traced: list[str]) -> dict:
    """Calls per span name of the command ``traced`` on the document, traced
    after only pointwise commands have run."""
    document = tmp_path / "doc.json"
    document.write_text(docio.dumps_document(doc))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-B", "-c", TRACE_AFTER_POINTWISE,
         str(ROOT / "perfbench" / "spans.py"), str(document), json.dumps(traced)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_tracer_installs_after_pointwise_commands(tmp_path):
    doc = docio.document_from_mdp(build_example("ex4").mdp)
    calls = traced_calls(tmp_path, doc, ["turnpike", "--interval", "1/100,2/5"])
    assert calls["partition.canonical_partition"] == 1
    assert calls["turnpike.turnpike_intervals"] == 1


def test_polynomial_kernels_are_traced_where_they_are_called(tmp_path):
    # the tracer reads these targets through exactarith, which serves them
    # from polyarith; the wrappers must land in polyarith's globals, where
    # the root isolation inside it looks them up.  The partition of the
    # benchmark's r3x3-0 takes gcds.
    doc = mdpgen.random_document(3, 3, 8, 0)
    calls = traced_calls(tmp_path, doc, ["partition"])
    assert calls["exactarith.isolate_roots"] > 0
    assert calls["exactarith.poly_gcd"] > 0


def test_interval_map_samples_are_traced_in_the_deferred_module(tmp_path, monkeypatch, capsys):
    # the interval map lives in turnpikemap, which the pointwise commands
    # leave unexecuted; its turnpike_integer binding must still be wrapped,
    # so the traced count equals the samples an untraced run makes
    doc = docio.document_from_mdp(build_example("ex4").mdp)
    words = ["turnpike", "--interval", "1/100,2/5"]
    calls = traced_calls(tmp_path, doc, words)
    original, samples = turnpikemap.turnpike_integer, []

    def recording(mdp, alpha, part=None):
        samples.append(alpha)
        return original(mdp, alpha, part)

    monkeypatch.setattr(turnpikemap, "turnpike_integer", recording)
    assert cli.main([words[0], str(tmp_path / "doc.json"), *words[1:]]) == 0
    capsys.readouterr()
    assert len(samples) > 1
    assert calls["turnpike.turnpike_integer"] == len(samples)
