"""``turnpike._turnpike_at`` as it was before the certificate horizon K was
read off logarithms, frozen as a reference.

K was found with one big-integer product per horizon; the value-iteration
loop after it is the same.  Patching
``turnpike._turnpike_at`` with ``turnpike_at`` below runs
``turnpike_integer`` on the frozen loop, warm-start steps included.
"""

from typing import Sequence

from exactmdp import turnpike as T
from exactmdp.bellman import OptSets, _ints_of, _step, product_subset, smallest_rule


def certificate_horizon(a: int, b: int, p: int, q: int) -> int:
    """The first k >= 0 with a * p^k < b * q^k, one product per horizon."""
    k = 0
    while a >= b:
        k += 1
        a *= p
        b *= q
    return k


def turnpike_at(mdp, opt: OptSets, steps: Sequence = ()) -> T.TurnpikeResult:
    alpha = opt.v_alpha.alpha
    if alpha == 0:
        return T.TurnpikeResult(alpha, 1, 0, None, None, opt.d_alpha_sets)
    certified = opt.q_pass
    form, v_star, e = certified.form, certified.nums, certified.den
    try:
        gap = T._gap(certified)
    except T.AllRulesOptimalError:
        return T.TurnpikeResult(alpha, 1, 0, None, None, opt.d_alpha_sets)
    p, q = form.p, form.q
    g_num, g_den = gap.numerator, gap.denominator
    sp = mdp.reward_spreads
    c = sp.r1_star / (1 - alpha) + sp.r2_star
    k_cert = certificate_horizon(
        2 * p * c.numerator * g_den, g_num * c.denominator * q, p, q
    )
    nums, den = _ints_of(mdp.terminal)
    n_value, failed_sets = 1, None
    horizon = 0
    while horizon < k_cert:
        diff = [x * e - v * den for x, v in zip(nums, v_star)]
        if p * (max(diff) - min(diff)) * g_den < g_num * q * den * e:
            break
        if horizon < len(steps):
            (nums, den), sets = steps[horizon]
        else:
            (nums, den), sets = _step(form, nums, den)
        horizon += 1
        if not product_subset(sets, opt.d_alpha_sets):
            n_value, failed_sets = horizon + 1, sets
    witness = None
    if failed_sets is not None:
        bad = next(
            i for i, (f, d) in enumerate(zip(failed_sets, opt.d_alpha_sets)) if f - d
        )
        leaving = failed_sets[bad] - opt.d_alpha_sets[bad]
        witness = smallest_rule(failed_sets[:bad] + (leaving,) + failed_sets[bad + 1 :])
    return T.TurnpikeResult(
        alpha, n_value, k_cert, gap, witness, opt.d_alpha_sets, horizon
    )
