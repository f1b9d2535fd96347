"""Work pins for one `boundedness_verdict` at each rational irregular point
of the corpus.  Condition A builds at most one pushforward kernel and calls
no `compute_G`; no check reads a `Fraction` transition matrix or reward
vector (`Mdp.transition_matrix`, `Mdp.reward_vector`), since condition B's
derivative table extends tail vectors over the integer table and condition
A's kernel is built from it too, so no transition product is formed.
Condition A steps its value-iteration trace only as far as the certificate
search reads it, and out to A_HORIZON only for a definition window;
condition B's tangency search differentiates each rule of D(alpha*) at most
once."""

from fractions import Fraction as F

import pytest

from exactmdp import conditions, equivalence
from exactmdp.bellman import value_iteration
from exactmdp.corpus import build_example
from exactmdp.mdp import Mdp, count_rules
from exactmdp.partition import canonical_partition

CORPUS_POINTS = [
    ("ex4", F(1, 2)),
    ("ex5", F(2, 3)),
    ("ex6", F(1, 2)),
    ("remark-variant", F(1, 2)),
]


def counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("example_id, point", CORPUS_POINTS)
def test_verdict_work(monkeypatch, example_id, point):
    mdp = build_example(example_id).mdp
    want = conditions.boundedness_verdict(mdp, point)
    calls = {}
    counting(monkeypatch, equivalence, "compute_G", calls)
    counting(monkeypatch, Mdp, "transition_matrix", calls)
    counting(monkeypatch, Mdp, "reward_vector", calls)
    counting(monkeypatch, conditions, "same_pushforwards", calls)
    assert conditions.boundedness_verdict(mdp, point) == want
    assert calls.get("compute_G", 0) == 0
    assert calls.get("transition_matrix", 0) == 0
    assert calls.get("reward_vector", 0) == 0
    assert calls.get("same_pushforwards", 0) <= 1


# horizons of the trace stepped: the certificate horizon + 1, or the whole
# window 0..A_HORIZON where no certificate holds (ex6 1/2)
TRACE_STEPS = {"ex4": 1, "ex5": 1, "ex6": conditions.A_HORIZON + 1, "remark-variant": 6}


@pytest.mark.parametrize("example_id, point", CORPUS_POINTS)
def test_trace_is_stepped_only_as_far_as_it_is_read(monkeypatch, example_id, point):
    mdp = build_example(example_id).mdp
    want = conditions.boundedness_verdict(mdp, point)
    original, horizons = conditions.value_iteration_steps, []

    def counted(*args):
        for step in original(*args):
            horizons.append(step.horizon)
            yield step

    monkeypatch.setattr(conditions, "value_iteration_steps", counted)
    got = conditions.boundedness_verdict(mdp, point)
    assert got == want
    assert horizons == list(range(TRACE_STEPS[example_id]))
    if got.a_left.method == "certificate":
        assert len(horizons) == got.a_left.horizon_used + 1


@pytest.mark.parametrize("example_id, point", CORPUS_POINTS)
def test_tangency_search_differentiates_each_rule_once(monkeypatch, example_id, point):
    mdp = build_example(example_id).mdp
    want = conditions.boundedness_verdict(mdp, point)
    original, solves = conditions.value_slopes, []

    def counted(solve, alpha):
        solves.append(solve)
        return original(solve, alpha)

    monkeypatch.setattr(conditions, "value_slopes", counted)
    assert conditions.boundedness_verdict(mdp, point) == want
    d_at = canonical_partition(mdp).sets_around(point)[1]
    assert 0 < len(solves) <= count_rules(d_at)
    assert len({id(s) for s in solves}) == len(solves)


def with_twin_action(mdp: Mdp, point) -> Mdp:
    """mdp with an action that is optimal on both sides of point repeated,
    at its state, under a new name, so no one-sided optimal set is a
    singleton."""
    d_minus, _, d_plus = canonical_partition(mdp).sets_around(point)
    i, k = next((i, min(a & b)) for i, (a, b) in enumerate(zip(d_minus, d_plus)) if a & b)

    def twin(per_state, extra):
        return per_state[:i] + ((*per_state[i], extra),) + per_state[i + 1 :]

    return Mdp(
        mdp.states,
        twin(mdp.actions, "twin"),
        twin(mdp.transitions, mdp.transitions[i][k]),
        twin(mdp.rewards, mdp.rewards[i][k]),
        mdp.terminal,
    )


@pytest.mark.parametrize("example_id, point", CORPUS_POINTS)
def test_definition_window_reads_the_whole_trace(monkeypatch, example_id, point):
    mdp = with_twin_action(build_example(example_id).mdp, point)
    _, d_minus, _, d_plus, _ = conditions._require_irregular(mdp, point)
    assert count_rules(d_minus) > 1 and count_rules(d_plus) > 1
    trace = value_iteration(mdp, point, conditions.A_HORIZON)
    verdicts = conditions._condition_a_verdicts(
        mdp, point, conditions._require_irregular(mdp, point)
    )
    for side, d_side in (("minus", d_minus), ("plus", d_plus)):
        assert verdicts[side].method == "definition-window"
        assert verdicts[side].window == {
            step.horizon: all(a & b for a, b in zip(step.first_step, d_side))
            for step in trace[1:]
        }
