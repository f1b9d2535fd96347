"""`boundedness_verdict` checks condition B on both sides from one
derivative table.

Both sides draw their continuation prefixes from the same D(alpha*), so
`conditions._condition_b_verdicts` builds `_derivative_levels` once and lets
each side settle at its own first conclusive K.  Every verdict must equal the
one-sided `check_condition_B`, and the prefix cap must stop the table at the
same level as the side that needs it.
"""

import random
from fractions import Fraction as F

import pytest

from conftest import random_mdp
from exactmdp import conditions
from exactmdp.conditions import (
    _condition_b_verdicts,
    _require_irregular,
    boundedness_verdict,
    check_condition_B,
)
from exactmdp.bellman import rules_from_action_sets
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.limits import CapExceededError
from exactmdp.partition import canonical_partition

K_RANGE = range(0, 6)


def touching_mdp():
    # 2/5 is a break+touching point: |D(2/5-)| = 2, |D(2/5)| = 4,
    # |D(2/5+)| = 1, and B- settles at K = 3 while B+ is still open at K = 5
    return random_mdp(
        random.Random(826), max_states=3, max_actions=2, max_den=2,
        reward_lo=0, reward_hi=2,
    )


def one_sided(mdp, point, k_range):
    return {
        side: check_condition_B(mdp, point, side, k_range=k_range)
        for side in ("minus", "plus")
    }


def test_sides_settle_at_their_own_horizon():
    mdp = touching_mdp()
    point = _require_irregular(mdp, F(2, 5))
    both = _condition_b_verdicts(mdp, F(2, 5), ("minus", "plus"), K_RANGE, point)
    assert both == one_sided(mdp, F(2, 5), K_RANGE)
    assert both["minus"].holds is True and both["minus"].horizon_used == 3
    assert both["plus"].holds is None and both["plus"].horizon_used == 5


def test_verdict_builds_one_table(monkeypatch):
    mdp = touching_mdp()
    built = []
    levels = conditions._derivative_levels

    def counting(*args):
        built.append(args)
        return levels(*args)

    monkeypatch.setattr(conditions, "_derivative_levels", counting)
    report = boundedness_verdict(mdp, F(2, 5), k_range_b=K_RANGE)
    assert len(built) == 1
    monkeypatch.setattr(conditions, "_derivative_levels", levels)
    want = one_sided(mdp, F(2, 5), K_RANGE)
    assert (report.b_left, report.b_right) == (want["minus"], want["plus"])


def test_cap_stops_the_side_still_open(monkeypatch):
    mdp = touching_mdp()
    _, d_at, _ = canonical_partition(mdp).sets_around(F(2, 5))
    n = len(rules_from_action_sets(d_at))
    # level 3 (n^4 prefixes) settles B-; level 4 is needed by B+ only
    monkeypatch.setenv("EXACTMDP_PREFIX_CAP", str(n**4))
    assert check_condition_B(mdp, F(2, 5), "minus", k_range=K_RANGE).horizon_used == 3
    for call in (
        lambda: check_condition_B(mdp, F(2, 5), "plus", k_range=K_RANGE),
        lambda: _condition_b_verdicts(
            mdp, F(2, 5), ("minus", "plus"), K_RANGE, _require_irregular(mdp, F(2, 5))
        ),
    ):
        with pytest.raises(CapExceededError) as info:
            call()
        assert info.value.needed == n**5


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_corpus_verdicts_match_one_sided(example_id):
    mdp = build_example(example_id).mdp
    for ip in canonical_partition(mdp).irregular_points:
        if isinstance(ip.point, F) and 0 < ip.point < 1:
            report = boundedness_verdict(mdp, ip.point)
            want = one_sided(mdp, ip.point, range(0, 13))
            assert (report.b_left, report.b_right) == (want["minus"], want["plus"])


# -- the horizon range is read once -------------------------------------------------


@pytest.mark.parametrize("example_id, alpha", [("ex5", F(2, 3)), ("ex6", F(1, 2))])
def test_empty_horizon_range_leaves_open_sides_inconclusive(example_id, alpha):
    # both sides settle at some K in range(0, 13); with no K to try they
    # stay open, which is inconclusive, not a ValueError from max()
    mdp = build_example(example_id).mdp
    report = boundedness_verdict(mdp, alpha, k_range_b=[])
    for side, got in (("minus", report.b_left), ("plus", report.b_right)):
        assert check_condition_B(mdp, alpha, side, k_range=[]) == got
        assert got.holds is None and got.horizon_used is None
        assert got.method == "finite-horizon-threshold"
        assert check_condition_B(mdp, alpha, side).holds is True


@pytest.mark.parametrize("example_id, alpha", [("ex5", F(2, 3)), ("ex6", F(1, 2)), ("ex4", F(1, 2))])
def test_horizon_range_may_be_an_iterator(example_id, alpha):
    mdp = build_example(example_id).mdp
    for k_range in (range(0, 3), range(0, 13)):
        for side in ("minus", "plus"):
            want = check_condition_B(mdp, alpha, side, k_range=k_range)
            assert check_condition_B(mdp, alpha, side, k_range=iter(k_range)) == want
        want = boundedness_verdict(mdp, alpha, k_range_b=k_range)
        assert boundedness_verdict(mdp, alpha, k_range_b=iter(k_range)) == want


def test_empty_horizon_range_keeps_tangency():
    # ex4 at 1/2 is decided by tangency before any horizon is tried
    mdp = build_example("ex4").mdp
    for side in ("minus", "plus"):
        verdict = check_condition_B(mdp, F(1, 2), side, k_range=[])
        assert verdict == check_condition_B(mdp, F(1, 2), side)
        assert verdict.method == "tangency" and verdict.holds is False
