"""Exact-arithmetic analysis of discounted finite MDPs.

The package computes, with no floating point anywhere: optimal values and
optimal-policy sets at exact rational discount factors, the canonical
partition of the discount interval with break/touching classification, the
turnpike horizon of value iteration together with a soundness certificate,
small-discount bounds, and boundedness conditions for the turnpike function
near break points.
"""

from .bellman import (
    OptSets,
    ValueVector,
    VIStep,
    apply_policy_operator,
    evaluate_deterministic,
    evaluate_markov,
    optimal_set,
    rolling_horizon_policy,
    value_iteration,
)
from .conditions import (
    BoundednessReport,
    ConditionVerdict,
    NotIrregularError,
    boundedness_verdict,
    check_condition_A,
    check_condition_B,
    derivative_difference,
)
from .corpus import EXAMPLE_IDS, ExampleFixture, build_example
from .equivalence import GValue, compute_G, pushforwards_equal, values_equal_all_discounts
from .exactarith import (
    IsolatedRoot,
    Polynomial,
    RationalFunction,
    isolate_roots,
    sign_on_interval,
    solve_linear,
    value_rational_function,
)
from .limits import CapExceededError
from .mdp import (
    DecisionRule,
    MarkovPrefix,
    Mdp,
    Spreads,
    ValidationReport,
    balance,
    enumerate_decision_rules,
    spreads,
    validate,
)
from .partition import (
    FirstStepClassification,
    IrregularPoint,
    PartitionInterval,
    PartitionReport,
    PiecewiseValue,
    canonical_partition,
    first_step_classify,
    symbolic_value_iteration,
)
from .smalldiscount import (
    FiltrationReport,
    SmallDiscountChecks,
    policy_filtration,
    small_discount_checks,
    small_discount_constants,
)
from .turnpike import (
    CoverResult,
    TurnpikeIntervalMap,
    TurnpikeResult,
    certificate_audit,
    suboptimality_gap,
    turnpike_cover,
    turnpike_integer,
    turnpike_intervals,
)

__version__ = "0.1.0"
