"""Each layer is loaded on first use.

``import exactmdp`` runs no analysis module.  ``conditions``, ``corpus``,
``equivalence``, ``partition`` and ``smalldiscount`` sit in ``sys.modules``
unexecuted (``importlib.util.LazyLoader``) until something reads them, and
the public names are served through the package's ``__getattr__``.  Which
module has run is per interpreter, so every check here starts a fresh one
that imports the package from this checkout's ``src/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from exactmdp import docio
from exactmdp.corpus import build_example

ROOT = Path(__file__).resolve().parents[1]
DEFERRED = ("conditions", "corpus", "equivalence", "partition", "smalldiscount")
SUBMODULES = (
    "bellman", "cli", "conditions", "corpus", "docio", "equivalence",
    "exactarith", "limits", "mdp", "partition", "smalldiscount", "turnpike",
)

# the names the package exported when it imported every module, by module
EXPORTED = {
    "bellman": [
        "OptSets", "ValueVector", "VIStep", "apply_policy_operator",
        "evaluate_deterministic", "evaluate_markov", "optimal_set",
        "rolling_horizon_policy", "value_iteration",
    ],
    "conditions": [
        "BoundednessReport", "ConditionVerdict", "NotIrregularError",
        "boundedness_verdict", "check_condition_A", "check_condition_B",
        "derivative_difference",
    ],
    "corpus": ["EXAMPLE_IDS", "ExampleFixture", "build_example"],
    "equivalence": ["GValue", "compute_G", "pushforwards_equal", "values_equal_all_discounts"],
    "exactarith": [
        "IsolatedRoot", "Polynomial", "RationalFunction", "isolate_roots",
        "sign_on_interval", "solve_linear", "value_rational_function",
    ],
    "limits": ["CapExceededError"],
    "mdp": [
        "DecisionRule", "MarkovPrefix", "Mdp", "Spreads", "ValidationReport",
        "balance", "enumerate_decision_rules", "spreads", "validate",
    ],
    "partition": [
        "FirstStepClassification", "IrregularPoint", "PartitionInterval",
        "PartitionReport", "PiecewiseValue", "canonical_partition",
        "first_step_classify", "symbolic_value_iteration",
    ],
    "smalldiscount": [
        "FiltrationReport", "SmallDiscountChecks", "policy_filtration",
        "small_discount_checks", "small_discount_constants",
    ],
    "turnpike": [
        "CoverResult", "TurnpikeIntervalMap", "TurnpikeResult",
        "certificate_audit", "suboptimality_gap", "turnpike_cover",
        "turnpike_integer", "turnpike_intervals",
    ],
}

# Run CLI commands in order (their output discarded) and print, for each
# deferred layer, whether it has executed.
RUN_COMMANDS = """
import contextlib, io, json, sys, types
from exactmdp import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
deferred = json.loads(sys.argv[2])
print(json.dumps({
    name: type(sys.modules["exactmdp." + name]) is types.ModuleType
    for name in deferred
}))
"""

RESOLVE_NAMES = """
import importlib, json, sys
import exactmdp
exported = json.loads(sys.argv[1])
names = [n for ns in exported.values() for n in ns]
assert sorted(exactmdp.__all__) == sorted(names), exactmdp.__all__
listed = dir(exactmdp)
for module, ns in exported.items():
    home = importlib.import_module("exactmdp." + module)
    for name in ns:
        assert getattr(exactmdp, name) is getattr(home, name), name
        assert name in listed, name
"""

RESOLVE_SUBMODULES = """
import json, sys, types
import exactmdp
for name in json.loads(sys.argv[1]):
    module = getattr(exactmdp, name)
    assert isinstance(module, types.ModuleType), name
    assert module is sys.modules["exactmdp." + name], name
    assert name in dir(exactmdp), name
try:
    exactmdp.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""


def python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-B", *args], capture_output=True, text=True, env=env, cwd=ROOT
    )


@pytest.fixture(scope="module")
def document(tmp_path_factory) -> str:
    """ex4 as a document file: a break point at 1/2, near which N grows past
    the default cap, so interval maps here stay below 2/5."""
    path = tmp_path_factory.mktemp("lazy") / "ex4.json"
    path.write_text(docio.dumps_document(docio.document_from_mdp(build_example("ex4").mdp)))
    return str(path)


def executed_after(commands: list[list[str]]) -> set[str]:
    done = python("-c", RUN_COMMANDS, json.dumps(commands), json.dumps(DEFERRED))
    assert done.returncode == 0, done.stderr
    return {name for name, ran in json.loads(done.stdout).items() if ran}


# (command words after the file, deferred layers it executes)
COMMANDS = [
    (["validate"], set()),
    (["solve", "--alpha", "1/2"], set()),
    (["turnpike", "--alpha", "3/4"], set()),
    (["turnpike", "--interval", "1/100,2/5"], {"partition"}),
    (["partition"], {"partition"}),
    (["sweep", "--interval", "1/100,9/10", "--steps", "3"], {"partition"}),
    (["small-discount"], {"partition", "smalldiscount"}),
    (["conditions", "--point", "1/2"], {"conditions", "equivalence", "partition", "smalldiscount"}),
]


@pytest.mark.parametrize(
    "words, layers", COMMANDS, ids=[" ".join(words[:2]) for words, _ in COMMANDS]
)
def test_each_command_executes_only_its_layers(document, words, layers):
    assert executed_after([[words[0], document, *words[1:]]]) == layers


def test_corpus_command_executes_only_corpus():
    assert executed_after([["corpus", "--id", "ex1"]]) == {"corpus"}


def test_import_registers_the_deferred_layers_unexecuted():
    check = (
        "import sys, types, exactmdp\n"
        "for name in " + repr(DEFERRED) + ":\n"
        "    module = sys.modules['exactmdp.' + name]\n"
        "    assert type(module) is not types.ModuleType, name\n"
        "    assert vars(exactmdp)[name] is module, name\n"
        "assert 'exactmdp.cli' not in sys.modules\n"
    )
    done = python("-c", check)
    assert done.returncode == 0, done.stderr


def test_every_exported_name_resolves_to_its_defining_object():
    assert sum(map(len, EXPORTED.values())) == 61
    done = python("-c", RESOLVE_NAMES, json.dumps(EXPORTED))
    assert done.returncode == 0, done.stderr


def test_every_submodule_resolves_as_a_package_attribute():
    done = python("-c", RESOLVE_SUBMODULES, json.dumps(SUBMODULES))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "words", [["solve", "--alpha", "1/2"], ["turnpike", "--interval", "1/100,2/5"]]
)
def test_module_entry_point_runs_with_warnings_as_errors(document, words):
    done = python("-W", "error", "-m", "exactmdp.cli", words[0], document, *words[1:])
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    json.loads(done.stdout)
