"""End-to-end behavior when the optimal policy switches at an irrational
discount factor: the point must travel through the whole pipeline as an
isolating bracket, never as a float or a rounded rational."""

import contextlib
import hashlib
import io
from fractions import Fraction as F

import pytest

from exactmdp import cli, docio
from exactmdp.bellman import rules_from_action_sets
from exactmdp.corpus import build_example
from exactmdp.mdp import DecisionRule, Mdp
from exactmdp.partition import canonical_partition
from exactmdp.polyarith import IsolatedRoot, Polynomial, polynomial_vanishes_at
from exactmdp.turnpike import turnpike_integer, turnpike_intervals


def phi(*c):
    return DecisionRule(tuple(c))


def irrational_break_mdp() -> Mdp:
    """Two rules crossing at 1/sqrt(3): staying at the first state earns 1
    per step; leaving enters a 2-cycle paying 1 and 3, so the value
    difference at the first state is (1 - 3a^2) / ((1-a)(1-a^2))."""
    return Mdp(
        ("x1", "y1", "y2"),
        (("stay", "leave"), ("a",), ("a",)),
        (
            ((F(1), F(0), F(0)), (F(0), F(1), F(0))),
            ((F(0), F(0), F(1)),),
            ((F(0), F(1), F(0)),),
        ),
        ((F(1), F(0)), (F(1),), (F(3),)),
        (F(0), F(0), F(0)),
    )


class TestIrrationalBreakPoint:
    def test_partition_reports_a_bracket(self):
        part = canonical_partition(irrational_break_mdp())
        assert len(part.irregular_points) == 1
        ip = part.irregular_points[0]
        # a bracket is always an irrational root
        assert isinstance(ip.point, IsolatedRoot)
        # the defining polynomial vanishes exactly at 1/sqrt(3)
        defining = ip.point.defining
        assert polynomial_vanishes_at(Polynomial([-1, 0, 3]), ip.point)
        assert F(5, 10) < ip.point.lo < ip.point.hi < F(7, 10)
        assert ip.kind == "break"
        assert rules_from_action_sets(ip.d_left) == [phi(0, 0, 0)]
        assert rules_from_action_sets(ip.d_right) == [phi(1, 0, 0)]
        assert rules_from_action_sets(ip.d_at) == [phi(0, 0, 0), phi(1, 0, 0)]

    def test_interval_lookup_around_the_bracket(self):
        mdp = irrational_break_mdp()
        part = canonical_partition(mdp)
        # 1/sqrt(3) = 0.5773...; both probes are inside the default bracket
        # width, so side resolution must refine exactly
        sides = part.sets_around(F(577, 1000))
        dm, da, dp = map(rules_from_action_sets, sides)
        assert dm == da == dp == [phi(0, 0, 0)]
        sides = part.sets_around(F(578, 1000))
        dm, da, dp = map(rules_from_action_sets, sides)
        assert dm == da == dp == [phi(1, 0, 0)]

    def test_blackwell_point_is_the_bracket(self):
        part = canonical_partition(irrational_break_mdp())
        assert isinstance(part.blackwell_point, IsolatedRoot)

    def test_turnpike_map_left_of_the_bracket_is_clean(self):
        mdp = irrational_break_mdp()
        tmap = turnpike_intervals(mdp, F(3, 10), F(11, 20), n_cap=8)
        assert not tmap.partial
        assert tmap.indeterminate == ()
        assert len(tmap.spans) == 1
        assert tmap.spans[0].n_value == 1

    def test_turnpike_map_across_the_bracket_flags_partial(self):
        # N blows up approaching the irrational break from the right
        # (1 left of it; 13, 17, 21, ... just right of it), so candidate
        # completeness cannot be certified at a finite horizon cap: the map
        # must come back flagged partial with the bracket listed as an
        # indeterminate point, never silently trusted
        mdp = irrational_break_mdp()
        assert turnpike_integer(mdp, F(5773, 10000)).n_value == 1
        assert turnpike_integer(mdp, F(5774, 10000)).n_value == 17
        tmap = turnpike_intervals(mdp, F(3, 10), F(8, 10), n_cap=12)
        assert tmap.partial
        assert any(isinstance(p, IsolatedRoot) for p in tmap.indeterminate)
        assert tmap.d_all == ()

    def test_terminal_and_balance_invariance_with_bracket(self):
        from exactmdp.mdp import balance

        mdp = irrational_break_mdp()
        part = canonical_partition(mdp)
        shifted = mdp.with_terminal([F(5), F(-1), F(2)])
        part2 = canonical_partition(shifted)
        balanced, _ = balance(mdp)
        part3 = canonical_partition(balanced)
        for other in (part2, part3):
            assert len(other.irregular_points) == 1
            a = part.irregular_points[0].point
            b = other.irregular_points[0].point
            from exactmdp.polyarith import same_root

            assert same_root(a, b)
            assert other.irregular_points[0].d_at == part.irregular_points[0].d_at


# Exit code and sha256 of stdout of the CLI on irrational_break_mdp(), whose
# partition prints the bracket (9/16, 19/32) with defining [-1, 0, 3]; the
# turnpike map stops at its horizon cap (exit 3) with brackets of growing
# degree right of 1/sqrt(3).  [1/2, 9/16] ends on the bracket's lower end
# and lies wholly left of the root: one span [1/2, 9/16] with N = 1, no
# indeterminate point, exit 0.
IRRATIONAL_PINS = (
    ("partition", 0, "108d3506765f4dec6bf699573494a56e6a44e8ed085bfde6797c442a1953fdda"),
    ("turnpike --interval 1/100,9/10", 3, "3115d5796c5b8f7c2eb95b19c694f2468fe6b5e8f1a04a5dbd965ffa69558ca3"),
    ("turnpike --interval 1/2,9/16", 0, "e91dac11b5a53ffc6dfd7c8becfeb10b138f6983ca822a64630a2e075edb0033"),
)


@pytest.mark.parametrize("command,code,sha", IRRATIONAL_PINS, ids=[p[0] for p in IRRATIONAL_PINS])
def test_cli_bytes_at_an_irrational_point(tmp_path, command, code, sha):
    path = tmp_path / "irrational.json"
    path.write_text(docio.dumps_document(docio.document_from_mdp(irrational_break_mdp())))
    name, *options = command.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.main([name, str(path), *options])
    assert (got, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()) == (code, sha)
