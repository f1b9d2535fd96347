from fractions import Fraction as F

import pytest

from exactmdp.bellman import optimal_set, rules_from_action_sets
from exactmdp.corpus import build_example
from exactmdp.mdp import DecisionRule, Mdp, balance, enumerate_decision_rules
from exactmdp.partition import (
    canonical_partition,
    first_step_classify,
    point_position,
    symbolic_value_iteration,
)

from conftest import random_mdp, random_rational


def phi(*c):
    return DecisionRule(tuple(c))


def single_rule_mdp():
    return Mdp(
        ("s0", "s1"),
        (("a",), ("a",)),
        (((F(1, 2), F(1, 2)),), ((F(0), F(1)),)),
        ((F(1),), (F(0),)),
        (F(0), F(0)),
    )


class TestCanonicalPartition:
    def test_single_rule_no_irregular_points(self):
        part = canonical_partition(single_rule_mdp())
        assert part.irregular_points == ()
        assert len(part.intervals) == 1
        assert part.blackwell_point == F(0)

    def test_example_tangency_break(self):
        part = canonical_partition(build_example("ex4").mdp)
        assert len(part.irregular_points) == 1
        ip = part.irregular_points[0]
        assert ip.point == F(1, 2)
        assert ip.kind == "break"  # non-touching
        assert rules_from_action_sets(ip.d_left) == [phi(0, 0, 0, 0, 0)]
        assert rules_from_action_sets(ip.d_right) == [phi(1, 0, 0, 0, 0)]
        assert rules_from_action_sets(ip.d_at) == [phi(0, 0, 0, 0, 0), phi(1, 0, 0, 0, 0)]

    def test_example_no_irregular_points(self):
        part = canonical_partition(build_example("ex2").mdp)
        assert part.irregular_points == ()
        assert rules_from_action_sets(part.intervals[0].d_set) == [phi(0, 0, 0, 0, 0)]

    def test_example_touching_at_zero(self):
        part = canonical_partition(build_example("ex1").mdp)
        assert [ip.kind for ip in part.irregular_points] == ["touching"]
        assert part.irregular_points[0].point == F(0)
        assert part.blackwell_point == F(0)

    def test_blackwell_is_largest_irregular_point(self):
        part = canonical_partition(build_example("ex5").mdp)
        assert part.blackwell_point == F(2, 3)

    def test_consistency_with_pointwise_optimal_sets(self, rng):
        for _ in range(3):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            part = canonical_partition(mdp)
            for k in range(1, 26):
                alpha = F(k, 26)
                d_direct = rules_from_action_sets(optimal_set(mdp, alpha).d_alpha_sets)
                _, d_at, _ = part.sets_around(alpha)
                assert d_direct == rules_from_action_sets(d_at)

    def test_upper_hemicontinuity_at_irregular_points(self, rng):
        mdps = [build_example(ex).mdp for ex in ("ex1", "ex4", "ex5", "ex6")]
        mdps += [random_mdp(rng, max_states=3, max_actions=2) for _ in range(3)]
        for mdp in mdps:
            part = canonical_partition(mdp)
            for ip in part.irregular_points:
                assert (
                    set(rules_from_action_sets(ip.d_left)) | set(rules_from_action_sets(ip.d_right))
                ) <= set(rules_from_action_sets(ip.d_at))

    def test_terminal_rewards_do_not_matter(self, rng):
        for _ in range(3):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            other = mdp.with_terminal(
                [random_rational(rng, 6, -3, 3) for _ in range(mdp.m)]
            )
            a = canonical_partition(mdp)
            b = canonical_partition(other)
            assert _partition_signature(a) == _partition_signature(b)

    def test_balancing_does_not_matter(self, rng):
        for _ in range(3):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            balanced, _ = balance(mdp)
            assert _partition_signature(canonical_partition(mdp)) == (
                _partition_signature(canonical_partition(balanced))
            )

    def test_every_irregular_point_is_a_difference_root(self):
        from exactmdp.polyarith import polynomial_vanishes_at, value_rational_function

        for ex in ("ex4", "ex5", "ex6"):
            mdp = build_example(ex).mdp
            part = canonical_partition(mdp)
            rules = enumerate_decision_rules(mdp)
            vf = {r: value_rational_function(mdp, r) for r in rules}
            for ip in part.irregular_points:
                if not isinstance(ip.point, F):
                    continue
                hit = False
                for i, r1 in enumerate(rules):
                    for r2 in rules[i + 1 :]:
                        for x in range(mdp.m):
                            d = vf[r1][x] - vf[r2][x]
                            if not d.is_zero and d.num(ip.point) == 0:
                                hit = True
                assert hit


def _partition_signature(part):
    def pt_key(p):
        return p if isinstance(p, F) else ("bracket", p.defining.coeffs)

    return (
        tuple((pt_key(ip.point), ip.kind, ip.d_at, ip.d_left, ip.d_right) for ip in part.irregular_points),
        tuple((pt_key(iv.lo), pt_key(iv.hi), iv.d_set) for iv in part.intervals),
    )


class TestOneSided:
    def test_regular_interior_point(self):
        mdp = build_example("ex4").mdp
        sides = canonical_partition(mdp).sets_around(F(1, 4))
        dm, da, dp = map(rules_from_action_sets, sides)
        assert dm == da == dp == [phi(0, 0, 0, 0, 0)]

    def test_example_break_point(self):
        mdp = build_example("ex4").mdp
        sides = canonical_partition(mdp).sets_around(F(1, 2))
        dm, da, dp = map(rules_from_action_sets, sides)
        assert dm == [phi(0, 0, 0, 0, 0)]
        assert dp == [phi(1, 0, 0, 0, 0)]
        assert da == dm + dp

    def test_zero_left_side_is_empty(self):
        mdp = build_example("ex6").mdp
        sides = canonical_partition(mdp).sets_around(F(0))
        dm, da, dp = map(rules_from_action_sets, sides)
        assert dm == []
        assert da == dp == [phi(1, 0, 0)]


class TestSymbolicValueIteration:
    @pytest.mark.parametrize("n_max", [-1, -2])
    def test_negative_horizon_raises(self, n_max):
        # it returned horizon 0 alone
        with pytest.raises(ValueError):
            symbolic_value_iteration(build_example("ex1").mdp, n_max)

    def test_horizon_zero_single_piece(self):
        mdp = build_example("ex1").mdp
        levels = symbolic_value_iteration(mdp, 0)
        assert levels[0].cuts == ()
        assert [p.coeffs for p in levels[0].pieces[0]] == [(F(2),), ()]

    def test_example_horizon_one_break(self):
        mdp = build_example("ex1").mdp
        pw = symbolic_value_iteration(mdp, 1)[1]
        assert pw.cuts == (F(1, 2),)
        # [2a, 1] on (0, 1/2); [2a, 2a] on (1/2, 1)
        assert [p.coeffs for p in pw.pieces[0]] == [(F(0), F(2)), (F(1),)]
        assert [p.coeffs for p in pw.pieces[1]] == [(F(0), F(2)), (F(0), F(2))]

    def test_pieces_agree_with_exact_vi_inside(self, rng):
        from exactmdp.bellman import value_iteration

        for _ in range(3):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            levels = symbolic_value_iteration(mdp, 4)
            for n in range(5):
                pw = levels[n]
                for k in range(1, 14):
                    alpha = F(k, 14)
                    idx = pw.piece_index_at(alpha)
                    if idx is None:
                        continue
                    expected = value_iteration(mdp, alpha, n)[n].value.values
                    got = tuple(p(alpha) for p in pw.pieces[idx])
                    assert got == expected

    def test_continuity_at_rational_cuts(self, rng):
        for _ in range(3):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            for pw in symbolic_value_iteration(mdp, 4)[1:]:
                bounds = pw.bounds()
                for i, cut in enumerate(pw.cuts):
                    if not isinstance(cut, F):
                        continue
                    left = tuple(p(cut) for p in pw.pieces[i])
                    right = tuple(p(cut) for p in pw.pieces[i + 1])
                    assert left == right

    def test_point_sets_contain_side_unions_at_all_cuts(self, rng):
        # first-step upper hemicontinuity: at every retained cut, including
        # irrational bracket cuts, the point set contains both side sets
        from exactmdp.corpus import build_example

        mdps = [build_example(ex).mdp for ex in ("ex1", "ex2", "ex4")]
        mdps += [random_mdp(rng, max_states=3, max_actions=2) for _ in range(3)]
        from test_irrational_points import irrational_break_mdp

        mdps.append(irrational_break_mdp())
        for mdp in mdps:
            for pw in symbolic_value_iteration(mdp, 6)[1:]:
                for i in range(len(pw.cuts)):
                    left = pw.interval_sets[i]
                    right = pw.interval_sets[i + 1]
                    at = pw.point_sets[i]
                    for l, r, a in zip(left, right, at):
                        assert (l | r) <= a

    def test_first_step_sets_match_exact_vi(self, rng):
        from exactmdp.bellman import value_iteration

        for _ in range(3):
            mdp = random_mdp(rng, max_states=3, max_actions=2)
            levels = symbolic_value_iteration(mdp, 3)
            for n in range(1, 4):
                pw = levels[n]
                for k in range(14):
                    alpha = F(k, 14)
                    _, at, _ = pw.sets_around(alpha)
                    exact = value_iteration(mdp, alpha, n)[n].first_step
                    assert at == exact


def side_by_side(mdp: Mdp) -> Mdp:
    """Two disjoint copies of a model: states x1.. and then y1.."""
    m, zeros = mdp.m, (F(0),) * mdp.m
    names = tuple(f"x{i + 1}" for i in range(m)) + tuple(f"y{i + 1}" for i in range(m))
    return Mdp(
        names,
        mdp.actions * 2,
        tuple(tuple(row + zeros for row in acts) for acts in mdp.transitions)
        + tuple(tuple(zeros + row for row in acts) for acts in mdp.transitions),
        mdp.rewards * 2,
        mdp.terminal * 2,
    )


def reward_tie_mdp() -> Mdp:
    """s0 has a (stay) and b (move to s1), both paying 1; s1 is absorbing
    at reward 0.  At 0 only rewards count, so a and b tie; just right of 0,
    staying earns more."""
    return Mdp(
        ("s0", "s1"),
        (("a", "b"), ("c",)),
        (((F(1), F(0)), (F(0), F(1))), ((F(0), F(1)),)),
        ((F(1), F(1)), (F(0),)),
        (F(0), F(0)),
    )


class TestFirstStepClassification:
    def test_zero_takes_the_reward_argmax(self):
        from exactmdp.bellman import value_iteration

        mdp = reward_tie_mdp()
        none = (frozenset(), frozenset())
        both = (frozenset({0, 1}), frozenset({0}))
        stay = (frozenset({0}), frozenset({0}))
        for n in (1, 2, 3):
            cls = first_step_classify(mdp, F(0), n)
            assert cls.at == value_iteration(mdp, F(0), n)[n].first_step == both
            assert cls.left == none
        # at horizon 1 the successor values are terminal zeros, so a and b
        # tie on a whole piece; from horizon 2 on, b is optimal at 0 only
        cls = first_step_classify(mdp, F(0), 1)
        assert (cls.kind, cls.right) == ("regular", both)
        cls = first_step_classify(mdp, F(0), 2)
        assert (cls.kind, cls.right) == ("touching", stay)
        # classified as the partition classifies 0
        (ip,) = canonical_partition(mdp).irregular_points
        assert (ip.point, ip.kind, ip.d_left, ip.d_at, ip.d_right) == (
            F(0), cls.kind, cls.left, cls.at, cls.right
        )

    @pytest.mark.parametrize("alpha", [F(-1, 2), F(1), F(3, 2)])
    def test_discount_outside_the_unit_interval_raises(self, alpha):
        mdp = build_example("ex4").mdp
        with pytest.raises(ValueError):
            first_step_classify(mdp, alpha, 3)
        with pytest.raises(ValueError):
            symbolic_value_iteration(mdp, 2)[2].sets_around(alpha)
        with pytest.raises(ValueError):
            canonical_partition(mdp).sets_around(alpha)

    def test_twin_model_uses_the_partition_definition(self):
        # one rule per side, but four rules optimal at 2/3: mixing the two
        # copies' choices gives rules optimal only at the point itself
        mdp = side_by_side(build_example("ex5").mdp)
        (ip,) = [p for p in canonical_partition(mdp).irregular_points if p.point]
        assert (ip.point, ip.kind) == (F(2, 3), "break+touching")
        sizes = [len(rules_from_action_sets(s)) for s in (ip.d_left, ip.d_at, ip.d_right)]
        assert sizes == [1, 4, 1]
        for n in (1, 2, 3):
            assert first_step_classify(mdp, F(2, 3), n).kind == "break+touching"

    def test_regular_point(self):
        mdp = build_example("ex2").mdp
        assert first_step_classify(mdp, F(1, 10), 2).kind == "regular"

    def test_example_break(self):
        mdp = build_example("ex1").mdp
        cls = first_step_classify(mdp, F(1, 2), 2)
        assert cls.kind == "break"
        left = rules_from_action_sets(cls.left)
        right = rules_from_action_sets(cls.right)
        assert left == [phi(1, 1)]
        assert right == [phi(0, 1), phi(1, 1)]
        assert set(left) & set(right) == {phi(1, 1)}

    def test_example_touching_horizon_three(self):
        # the horizon-3 first-step difference has a double zero at 1/2
        mdp = build_example("ex2").mdp
        cls = first_step_classify(mdp, F(1, 2), 3)
        assert cls.kind == "touching"
        assert rules_from_action_sets(cls.left) == [phi(0, 0, 0, 0, 0)]
        assert rules_from_action_sets(cls.right) == [phi(0, 0, 0, 0, 0)]
        assert rules_from_action_sets(cls.at) == [phi(0, 0, 0, 0, 0), phi(1, 0, 0, 0, 0)]

    def test_horizon3_difference_polynomial_pinned(self):
        # Bellman difference at horizon 3, first state: exactly (a - 1/2)^2,
        # with its double root at 1/2 (not elsewhere)
        mdp = build_example("ex2").mdp
        pw = symbolic_value_iteration(mdp, 2)[2]
        from exactmdp.polyarith import Polynomial, isolate_roots

        bounds = pw.bounds()
        for i, piece in enumerate(pw.pieces):
            # reconstruct both action polynomials at the first state
            q1 = Polynomial([mdp.rewards[0][0]]) + (
                piece[1] * mdp.transitions[0][0][1]
            ).shift_up(1)
            q2 = Polynomial([mdp.rewards[0][1]]) + (
                piece[3] * mdp.transitions[0][1][3]
            ).shift_up(1)
            d = q1 - q2
            assert d == Polynomial([F(1, 4), -1, 1])
        roots = isolate_roots(Polynomial([F(1, 4), -1, 1]), F(0), F(1))
        assert roots == [(F(1, 2), 2)]
