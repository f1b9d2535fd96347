"""Each layer is loaded on first use.

``import exactmdp`` runs no analysis module.  ``conditions``, ``corpus``,
``equivalence``, ``partition``, ``polyarith``, ``smalldiscount`` and
``turnpikemap`` sit in ``sys.modules`` unexecuted
(``importlib.util.LazyLoader``) until something reads them, and the public
names are served through the package's ``__getattr__``.  ``exactarith``
keeps the exact linear solve and serves every other name it used to define
from ``polyarith``.  Which module has run is per interpreter, so every
check here starts a fresh one that imports the package from this
checkout's ``src/``.
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
DEFERRED = (
    "conditions", "corpus", "equivalence", "partition", "polyarith", "smalldiscount",
    "turnpikemap",
)
SUBMODULES = (
    "bellman", "cli", "conditions", "corpus", "docio", "equivalence",
    "exactarith", "limits", "mdp", "partition", "polyarith", "smalldiscount",
    "turnpike", "turnpikemap",
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
    "equivalence": ["pushforwards_equal", "values_equal_all_discounts"],
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
        "TurnpikeResult", "certificate_audit", "suboptimality_gap",
        "turnpike_integer", "turnpike_intervals",
    ],
    "turnpikemap": ["CoverResult", "TurnpikeIntervalMap", "turnpike_cover"],
}

# every name exactarith defined before polyarith was split off: the exact
# linear solve, which stays, and the rest, which moved to polyarith
EXACTARITH_KEPT = ["SingularMatrixError", "_bareiss_forward", "bareiss_solve", "solve_linear"]
EXACTARITH_MOVED = [
    "ZeroPolynomialError", "PoleInIntervalError", "Polynomial", "_store",
    "_poly", "_signed_content", "_primitive_ints", "_derivative_ints",
    "_mul_ints", "_sub_ints", "_pseudo_rem", "_exact_div_ints", "_gcd_ints",
    "_homogeneous_value", "_value_at_power_of_two", "_balanced_digits",
    "_sign_at", "_taylor_shift", "descartes_bound", "_excludes_roots",
    "poly_gcd", "squarefree_part", "root_multiplicity", "_positive_part",
    "SturmChain", "sturm_chain", "_variations", "_squarefree_off_ends",
    "count_roots_open", "_sign_above_root", "_bisect",
    "simplest_fraction_between", "IsolatedRoot", "Point", "point_position",
    "point_sign", "points_equal", "clear_of", "separate_points", "_hi_of",
    "_lo_of", "insert_point", "_identify_rational", "isolate_roots",
    "_descartes_bisection", "_irrational_multiplicity",
    "polynomial_vanishes_at", "same_root", "RationalFunction", "SignResult",
    "sign_on_interval", "poly_det", "RuleValues", "_value_solve",
    "value_rational_function", "values_at", "value_difference", "value_slopes",
]

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

RESOLVE_EXACTARITH = """
import json, sys, types
from exactmdp import exactarith
kept, moved = json.loads(sys.argv[1]), json.loads(sys.argv[2])
polyarith = sys.modules["exactmdp.polyarith"]
for name in kept:
    assert getattr(exactarith, name) is vars(exactarith)[name], name
# importing exactarith and reading its own names runs no polyarith
assert type(polyarith) is not types.ModuleType
for name in moved:
    assert name not in vars(exactarith), name
    value = vars(polyarith)[name]
    assert getattr(exactarith, name) is value, name
    if isinstance(value, (type, types.FunctionType)):  # not a type alias
        assert value.__module__ == polyarith.__name__, name
"""

# assigning a moved name on exactarith would patch nothing, so it raises
ASSIGN_MOVED = """
import json, sys
from exactmdp import exactarith, polyarith
for name in json.loads(sys.argv[1]):
    try:
        setattr(exactarith, name, None)
    except AttributeError as exc:
        assert "exactmdp.polyarith" in str(exc), exc
    else:
        raise AssertionError(name + " was set on exactarith")
    assert getattr(exactarith, name) is getattr(polyarith, name) is not None, name
exactarith.bareiss_solve = exactarith.bareiss_solve  # its own names stay settable
exactarith.not_defined_anywhere = 1
try:
    exactarith.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
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
    (["turnpike", "--interval", "1/100,2/5"], {"partition", "polyarith", "turnpikemap"}),
    (["partition"], {"partition", "polyarith"}),
    (["sweep", "--interval", "1/100,9/10", "--steps", "3"], {"partition", "polyarith"}),
    (["small-discount"], {"partition", "polyarith", "smalldiscount"}),
    (
        ["conditions", "--point", "1/2"],
        {"conditions", "equivalence", "partition", "polyarith", "smalldiscount"},
    ),
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
    assert sum(map(len, EXPORTED.values())) == 59
    done = python("-c", RESOLVE_NAMES, json.dumps(EXPORTED))
    assert done.returncode == 0, done.stderr


def test_pointwise_commands_in_turn_leave_polyarith_unexecuted(document):
    words = [["validate"], ["solve", "--alpha", "1/2"], ["turnpike", "--alpha", "3/4"]]
    assert executed_after([[w[0], document, *w[1:]] for w in words]) == set()


RESOLVE_TURNPIKEMAP = """
import sys
import exactmdp
turnpikemap = sys.modules["exactmdp.turnpikemap"]
for name in ("TurnpikeIntervalMap", "CoverResult", "turnpike_cover"):
    value = getattr(exactmdp, name)
    assert value is vars(turnpikemap)[name], name
    assert value.__module__ == "exactmdp.turnpikemap", name
    # turnpike keeps no forwarding of the names that moved out of it
    assert not hasattr(sys.modules["exactmdp.turnpike"], name), name
"""


def test_interval_map_and_cover_names_resolve_to_turnpikemap():
    done = python("-c", RESOLVE_TURNPIKEMAP)
    assert done.returncode == 0, done.stderr


def test_every_name_exactarith_defined_resolves_through_it():
    assert len(EXACTARITH_KEPT) + len(EXACTARITH_MOVED) == 62
    done = python(
        "-c", RESOLVE_EXACTARITH, json.dumps(EXACTARITH_KEPT), json.dumps(EXACTARITH_MOVED)
    )
    assert done.returncode == 0, done.stderr


def test_assigning_a_moved_name_on_exactarith_raises():
    done = python("-c", ASSIGN_MOVED, json.dumps(EXACTARITH_MOVED))
    assert done.returncode == 0, done.stderr


def test_every_submodule_resolves_as_a_package_attribute():
    done = python("-c", RESOLVE_SUBMODULES, json.dumps(SUBMODULES))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "words",
    [
        ["solve", "--alpha", "1/2"],
        ["turnpike", "--interval", "1/100,2/5"],
        ["partition"],
    ],
)
def test_module_entry_point_runs_with_warnings_as_errors(document, words):
    done = python("-W", "error", "-m", "exactmdp.cli", words[0], document, *words[1:])
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    json.loads(done.stdout)
