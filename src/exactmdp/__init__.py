"""Exact-arithmetic analysis of discounted finite MDPs.

The package computes, with no floating point anywhere: optimal values and
optimal-policy sets at exact rational discount factors, the canonical
partition of the discount interval with break/touching classification, the
turnpike horizon of value iteration together with a soundness certificate,
small-discount bounds, and boundedness conditions for the turnpike function
near break points.

Each layer is loaded on first use.  ``import exactmdp`` runs no analysis
module: every public name below is served from its defining module when it
is first read (PEP 562), and the seven layers that pointwise work never
runs, ``conditions``, ``corpus``, ``equivalence``, ``partition``,
``polyarith``, ``smalldiscount`` and ``turnpikemap``, are put in
``sys.modules`` by ``importlib.util.LazyLoader`` and execute on their first
attribute read.  So the command line's ``validate``, ``solve`` and
``turnpike --alpha`` load only ``docio``, ``mdp``, ``limits``,
``exactarith`` (the exact linear solve), ``bellman`` and ``turnpike`` (N,
K and the certificate audit); ``partition`` and ``sweep`` add
``partition`` and ``polyarith`` (the polynomial, root and point kernel);
``turnpike --interval`` adds those two and ``turnpikemap`` (the interval
map and the cover); ``small-discount`` adds ``smalldiscount``,
``partition`` and ``polyarith``; ``conditions`` adds ``conditions``,
``equivalence``, ``partition``, ``polyarith`` and ``smalldiscount``;
``corpus`` adds ``corpus``.  ``exactarith`` still serves every name of
``polyarith``, loading it on that first read.  On Python 3.10 and 3.11
``LazyLoader`` is not thread-safe: import the package, and first read each
deferred layer, from one thread.
"""

import importlib
import importlib.machinery
import importlib.util
import sys

__version__ = "0.1.0"

# every public name, by the module that defines it
_EXPORTS = {
    "bellman": (
        "OptSets",
        "ValueVector",
        "VIStep",
        "apply_policy_operator",
        "evaluate_deterministic",
        "evaluate_markov",
        "optimal_set",
        "rolling_horizon_policy",
        "value_iteration",
    ),
    "conditions": (
        "BoundednessReport",
        "ConditionVerdict",
        "NotIrregularError",
        "boundedness_verdict",
        "check_condition_A",
        "check_condition_B",
        "derivative_difference",
    ),
    "corpus": ("EXAMPLE_IDS", "ExampleFixture", "build_example"),
    "equivalence": ("pushforwards_equal", "values_equal_all_discounts"),
    "exactarith": ("solve_linear",),
    "limits": ("CapExceededError",),
    "mdp": (
        "DecisionRule",
        "MarkovPrefix",
        "Mdp",
        "Spreads",
        "ValidationReport",
        "balance",
        "enumerate_decision_rules",
        "spreads",
        "validate",
    ),
    "partition": (
        "FirstStepClassification",
        "IrregularPoint",
        "PartitionInterval",
        "PartitionReport",
        "PiecewiseValue",
        "canonical_partition",
        "first_step_classify",
        "symbolic_value_iteration",
    ),
    "polyarith": (
        "IsolatedRoot",
        "Polynomial",
        "RationalFunction",
        "isolate_roots",
        "sign_on_interval",
        "value_rational_function",
    ),
    "smalldiscount": (
        "FiltrationReport",
        "SmallDiscountChecks",
        "policy_filtration",
        "small_discount_checks",
        "small_discount_constants",
    ),
    "turnpike": (
        "TurnpikeResult",
        "certificate_audit",
        "suboptimality_gap",
        "turnpike_integer",
        "turnpike_intervals",
    ),
    "turnpikemap": ("CoverResult", "TurnpikeIntervalMap", "turnpike_cover"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

# Registered, not run: an ``import`` of one of these reads its ``__spec__``,
# which runs it, so modules that load first import them inside functions.
# ``cli`` is not registered: ``python -m exactmdp.cli`` would run it twice.
_DEFERRED = (
    "conditions", "corpus", "equivalence", "partition", "polyarith", "smalldiscount", "turnpikemap",
)
_SUBMODULES = frozenset((*_EXPORTS, "cli", "docio"))


def _register(name: str):
    """The submodule ``name`` in ``sys.modules``, to run on first use."""
    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:  # a reload keeps the modules it has
        spec = importlib.machinery.PathFinder.find_spec(fullname, __path__)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return sys.modules[fullname]


for _name in _DEFERRED:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *__all__})
