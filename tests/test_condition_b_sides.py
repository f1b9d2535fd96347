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
    boundedness_verdict,
    check_condition_B,
)
from exactmdp.bellman import rules_from_action_sets
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.limits import CapExceededError
from exactmdp.partition import canonical_partition, one_sided_optimal_sets

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
    both = _condition_b_verdicts(mdp, F(2, 5), ("minus", "plus"), K_RANGE, None)
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
    _, d_at, _ = one_sided_optimal_sets(mdp, F(2, 5))
    n = len(rules_from_action_sets(d_at))
    # level 3 (n^4 prefixes) settles B-; level 4 is needed by B+ only
    monkeypatch.setenv("EXACTMDP_PREFIX_CAP", str(n**4))
    assert check_condition_B(mdp, F(2, 5), "minus", k_range=K_RANGE).horizon_used == 3
    for call in (
        lambda: check_condition_B(mdp, F(2, 5), "plus", k_range=K_RANGE),
        lambda: _condition_b_verdicts(mdp, F(2, 5), ("minus", "plus"), K_RANGE, None),
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
