"""The certificate horizon K without one big-integer product per horizon.

K is the first k with 2·alpha^(k+1)·c < gap, that is a·p^k < b·q^k for the
integers a, b at alpha = p/q.  ``turnpike._first_power_below`` reads it off
log(a/b) / log1p((q - p)/p), bracketed under an explicit floating-point
error bound, and falls back on exact products only where the bracket holds
two candidates.  The reference is the loop as it was, frozen in
``frozen_turnpike``: one product per horizon for K.  Every
``TurnpikeResult`` must be equal, ``horizons_checked`` included.
"""

import json
import math
import random
from fractions import Fraction as F

import pytest

import frozen_turnpike
from conftest import family_mdp, mdpgen
from exactmdp import cli, docio, partition, turnpike
from exactmdp.bellman import optimal_set
from exactmdp.corpus import EXAMPLE_IDS, build_example
from exactmdp.turnpike import _first_power_below, turnpike_integer

PARTITION_FAMILY = [(s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2)]


# -- the K routine ------------------------------------------------------------------


def seeded_quadruple(rng):
    """(a, b, p, q) with 0 < p < q, often with p/q near 1, b from one digit
    to far beyond the float range, and K at most 10^4."""
    while True:
        q = rng.randint(2, 10 ** rng.randint(1, 9))
        kind = rng.randrange(3)
        if kind == 0:
            p = rng.randint(1, q - 1)
        elif kind == 1:  # near 1
            p = q - rng.randint(1, max(1, q // 10 ** rng.randint(2, 6)))
        else:  # at most 1/2
            p = rng.randint(1, q // 2)
        if p < 1:
            continue
        b = rng.randint(1, 10 ** rng.randint(1, 400))
        if rng.random() < 0.1:
            return rng.randint(0, b), b, p, q
        # a / b = e^x below (q/p)^(10^4)
        x = rng.uniform(0, min(700, (10**4 - 2) * math.log(q / p)))
        return int(b * F(math.exp(x))), b, p, q


@pytest.mark.parametrize("seed", range(10))
def test_matches_one_product_per_horizon(seed):
    rng = random.Random(f"first-power/{seed}")
    ks = []
    for _ in range(60):
        a, b, p, q = seeded_quadruple(rng)
        ks.append(frozen_turnpike.certificate_horizon(a, b, p, q))
        assert _first_power_below(a, b, p, q) == ks[-1], (a, b, p, q)
    # long horizons, where the loop would take one product each
    assert sum(k > 1000 for k in ks) > 10


@pytest.mark.parametrize("seed", range(5))
def test_exact_equalities_are_decided_exactly(seed):
    """a·p^j = b·q^j makes t = j an integer, which no floating-point
    bracket separates from its neighbours: K = j + 1 from exact products."""
    rng = random.Random(f"equal/{seed}")
    for _ in range(100):
        q = rng.randint(2, 10 ** rng.randint(1, 6))
        p = rng.randint(q // 2 + 1, q - 1) if q > 2 else 1
        j, c = rng.randint(0, 200), rng.randint(1, 10**9)
        a, b = c * q**j, c * p**j
        assert _first_power_below(a, b, p, q) == j + 1
        assert frozen_turnpike.certificate_horizon(a, b, p, q) == j + 1


@pytest.mark.parametrize("seed", range(3))
def test_exact_equalities_of_long_integers_near_1(seed):
    """The same with a and b of about a thousand digits and p/q within
    10^-4 of 1: log a and log b then carry absolute errors far above the
    relative slack on the quotient, and only the slack on the logarithms
    covers them."""
    rng = random.Random(f"long-equal/{seed}")
    for _ in range(100):
        q = rng.randint(10**5, 10**9)
        p = q - rng.randint(1, 10)
        j, c = rng.randint(1, 50), rng.randint(10**900, 10**1000)
        assert _first_power_below(c * q**j, c * p**j, p, q) == j + 1, (p, q, j)

def test_edges():
    assert _first_power_below(0, 5, 9, 10) == 0
    assert _first_power_below(4, 5, 9, 10) == 0
    assert _first_power_below(5, 5, 9, 10) == 1
    assert _first_power_below(5, 5, 1, 2) == 1
    assert _first_power_below(7, 5, 1, 3) == 1
    # alpha within 2^-1000 of 1 runs on exact products: q·p = (q - 1)·q
    q = 2**1100
    assert _first_power_below(q, q - 1, q - 1, q) == 2


# -- near 1, from the command line --------------------------------------------------


def run_turnpike(capsys, tmp_path, doc: dict, alpha: str) -> dict:
    path = tmp_path / "model.json"
    path.write_text(docio.dumps_document(doc))
    assert cli.main(["turnpike", str(path), "--alpha", alpha]) == 0
    return json.loads(capsys.readouterr().out)


def ex1_document() -> dict:
    return docio.document_from_mdp(build_example("ex1").mdp)


def test_ex1_at_9999_over_10000(capsys, tmp_path):
    out = run_turnpike(capsys, tmp_path, ex1_document(), "9999/10000")
    k = out["certificate_horizon"]
    assert (k, out["N"]) == (92101, 3)
    # K is the first k with 2·alpha^(k+1)·c < gap: checked exactly at K - 1 and K
    mdp, alpha, gap = build_example("ex1").mdp, F(9999, 10000), F(out["gap"])
    sp = mdp.reward_spreads
    c = sp.r1_star / (1 - alpha) + sp.r2_star
    p, q = alpha.numerator, alpha.denominator
    a, b = 2 * p * c.numerator * gap.denominator, gap.numerator * c.denominator * q
    p_k, q_k = p ** (k - 1), q ** (k - 1)
    assert a * p_k >= b * q_k
    assert a * p_k * p < b * q_k * q


def test_ex1_at_99999_over_100000(capsys, tmp_path):
    out = run_turnpike(capsys, tmp_path, ex1_document(), "99999/100000")
    assert (out["certificate_horizon"], out["N"]) == (1151289, 3)


def test_12x4_document_at_9999_over_10000(capsys, tmp_path):
    out = run_turnpike(capsys, tmp_path, mdpgen.random_document(12, 4, 8, 0), "9999/10000")
    assert (out["certificate_horizon"], out["N"]) == (155435, 5)


# -- every result against the frozen loop ------------------------------------------


def gap_samples(monkeypatch, mdp, lo=F(1, 100), hi=F(9, 10), n_cap=10):
    """The discounts ``turnpike_intervals`` evaluates N at: one per gap
    between candidate points, and the rational candidates."""
    seen = []
    original = turnpike.turnpike_integer

    def recording(m, alpha, part=None):
        seen.append(alpha)
        return original(m, alpha, part)

    with monkeypatch.context() as patch:
        patch.setattr(turnpike, "turnpike_integer", recording)
        turnpike.turnpike_intervals(mdp, lo, hi, n_cap)
    return seen


def sweep_grid(lo=F(1, 100), hi=F(9, 10), steps=20):
    return [lo + (hi - lo) * F(i, steps + 1) for i in range(1, steps + 1)]


def seeded_rationals(seed, count=12):
    rng = random.Random(f"alphas/{seed}")
    out = []
    for _ in range(count):
        q = rng.randint(2, 10 ** rng.randint(1, 30))
        out.append(F(rng.randint(1, q - 1), q))
    return out + [F(99, 100), F(999, 1000), F(0)]


def assert_same_at(mdp, alphas, part):
    for alpha in alphas:
        opt = part.optimal_at(mdp, alpha)
        assert turnpike._turnpike_at(mdp, opt) == frozen_turnpike.turnpike_at(mdp, opt), alpha


def models():
    yield from ((ex, build_example(ex).mdp) for ex in EXAMPLE_IDS)
    yield from ((f"r{s}x{a}-{i}", family_mdp(s, a, i)) for s, a, i in PARTITION_FAMILY)


@pytest.mark.parametrize("name,mdp", list(models()), ids=lambda x: x if isinstance(x, str) else "")
def test_results_match_at_gap_samples_grids_and_seeded_rationals(monkeypatch, name, mdp):
    part = partition.canonical_partition(mdp)
    samples = gap_samples(monkeypatch, mdp)
    assert samples
    assert_same_at(mdp, samples, part)
    assert_same_at(mdp, sweep_grid(), part)
    assert_same_at(mdp, seeded_rationals(name), part)


def test_gap_samples_carry_long_denominators(monkeypatch):
    """What the comparison above needs to mean anything: samples between
    irrational brackets, whose denominators run to 100 bits and more."""
    bits = [
        F(a).denominator.bit_length()
        for _, mdp in models()
        for a in gap_samples(monkeypatch, mdp)
    ]
    assert max(bits) >= 100


@pytest.mark.parametrize("states,actions,index", [(3, 3, 0), (4, 2, 1), (12, 4, 0), (12, 4, 1)])
def test_pointwise_results_match(monkeypatch, states, actions, index):
    """Without a partition: policy iteration from the warm start and the
    loop's reuse of its three steps, against the frozen loop given the same
    steps."""
    mdp = family_mdp(states, actions, index)
    alphas = [F(9, 10), F(19, 20), F(97, 100), *seeded_rationals(index, 4)]
    new = [turnpike_integer(mdp, a) for a in alphas]
    monkeypatch.setattr(turnpike, "_turnpike_at", frozen_turnpike.turnpike_at)
    assert new == [turnpike_integer(mdp, a) for a in alphas]


def test_failing_horizons_give_the_same_witness():
    """Where some horizon fails, N and the witness are the frozen loop's:
    K bounds the horizons the loop may run, so a wrong K would show here."""
    witnessed = 0
    for _, mdp in models():
        for alpha in (F(1, 2), F(3, 4), F(9, 10), F(97, 100)):
            opt = optimal_set(mdp, alpha)
            res = turnpike._turnpike_at(mdp, opt)
            assert res == frozen_turnpike.turnpike_at(mdp, opt)
            witnessed += res.witness is not None
    assert witnessed > 5
