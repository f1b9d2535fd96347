import importlib.util
import random
import signal
from fractions import Fraction
from pathlib import Path

import pytest

from exactmdp.mdp import Mdp

# perfbench/mdpgen.py, read (never edited) as the benchmark's random families
_spec = importlib.util.spec_from_file_location(
    "mdpgen", Path(__file__).resolve().parents[1] / "perfbench" / "mdpgen.py"
)
mdpgen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mdpgen)


def random_rational(rng: random.Random, max_den: int = 8, lo=0, hi=2) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_stochastic_row(rng: random.Random, m: int, max_den: int = 8):
    """Exact probability row: random integer weights over a random denominator."""
    den = rng.randint(1, max_den)
    weights = [0] * m
    for _ in range(den):
        weights[rng.randrange(m)] += 1
    return tuple(Fraction(w, den) for w in weights)


def random_mdp(
    rng: random.Random,
    max_states: int = 4,
    max_actions: int = 3,
    max_den: int = 8,
    reward_lo: int = -2,
    reward_hi: int = 2,
) -> Mdp:
    m = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(m))
    actions = tuple(
        tuple(f"a{k}" for k in range(rng.randint(1, max_actions))) for i in range(m)
    )
    transitions = tuple(
        tuple(random_stochastic_row(rng, m, max_den) for _ in acts)
        for acts in actions
    )
    rewards = tuple(
        tuple(
            random_rational(rng, max_den, reward_lo, reward_hi) for _ in acts
        )
        for acts in actions
    )
    terminal = tuple(random_rational(rng, max_den, reward_lo, reward_hi) for _ in states)
    return Mdp(states, actions, transitions, rewards, terminal)


@pytest.fixture
def rng():
    return random.Random(20240811)


# Every test finishes in under 10 s (``--durations``: the slowest takes about
# 6 s on 2 cores).  A test still running after this many seconds fails, so a
# loop that never ends cannot stall the run or use up the machine's memory;
# ``faulthandler_timeout`` in pyproject.toml dumps its stacks at 120 s first.
TEST_TIME_LIMIT_S = 300


def _over_time_limit(signum, frame):
    # pytest.fail raises a BaseException, which no `except Exception` in the
    # code under test can swallow
    pytest.fail(f"test ran longer than {TEST_TIME_LIMIT_S} s", pytrace=True)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    previous = signal.signal(signal.SIGALRM, _over_time_limit)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
