"""Order properties every solver must keep, over item 4's parameter box.

For D^alpha k = p k^mu - q k with k0 > 0, k(t) stays between k0 and the
equilibrium k* it approaches (Feng, Li, Liu & Xu, DCDS-B 23(8), 2018), and by
the comparison principle (Lakshmikantham & Vatsala, Nonlinear Anal. 69(8),
2008) it rises with p and k0 and falls with q, at every alpha.  These checks
need no reference solution.  Each holds to ORDER_TOL relative: 5% more p, k0
or q must not move any value the wrong way by more than that.
"""

import math

from hypothesis import given, settings, strategies as st

from solowfrac.model import ModelParams
from solowfrac.oracles import exact_classical_value, solve_abm_fractional

ORDER_TOL = 1e-12
STEPS = 256


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# ROADMAP item 4's box, alpha over [0.05, 1].
BOX = dict(p=log_uniform(0.05, 3.0), q=log_uniform(0.02, 2.0), mu=st.floats(0.05, 0.95),
           k0=log_uniform(0.05, 10.0), t_max=st.sampled_from([2.0, 20.0]))


def check_order(params, solve):
    """The band [min(k0, k*), max(k0, k*)] and the order in p, k0 and q of
    `solve(params)`, the list of k on one fixed time grid."""
    base = solve(params)
    lo, hi = sorted((params.k0, params.k_star))
    assert all(lo * (1.0 - ORDER_TOL) <= k <= hi * (1.0 + ORDER_TOL) for k in base)
    for name, sign in (("p", 1.0), ("k0", 1.0), ("q", -1.0)):
        moved = solve(params.with_(**{name: getattr(params, name) * 1.05}))
        worst = max(sign * (b - m) / b for b, m in zip(base, moved))
        assert worst <= ORDER_TOL, name


class TestABMOrder:
    # Measured before setting ORDER_TOL: on 400 draws (seed 21) the solved
    # corrector broke none of these; the one-pass predictor-corrector broke
    # the order in p on 3 draws and in q on 4.
    @settings(max_examples=300, deadline=None)
    @given(**BOX, alpha=st.floats(0.05, 1.0))
    def test_band_and_order(self, p, q, mu, k0, t_max, alpha):
        params = ModelParams(p=p, q=q, mu=mu, alpha=alpha, k0=k0)
        check_order(params, lambda prm: solve_abm_fractional(prm, t_end=t_max, steps=STEPS))

    def test_known_defect_first_step_overshoots_at_small_alpha(self):
        # KNOWN DEFECT: k(t) is monotone in t, but below alpha ~ 0.1 the ABM's
        # first step can overshoot.  Here k falls from k0 = 0.589 toward
        # k* = 0.0035 and the first step lands 0.79% below the second; later
        # steps fall again.  On 400 draws from the box, 4 overshot by 0.19-1.2%,
        # all at alpha < 0.1.  This test fails once the overshoot is mended.
        params = ModelParams(p=0.0507, q=1.955, mu=0.354, alpha=0.0896, k0=0.589)
        values = solve_abm_fractional(params, t_end=2.0, steps=STEPS)
        rises = [i for i in range(STEPS) if values[i + 1] > values[i]]
        assert rises == [1]
        assert 7.8e-3 <= (values[2] - values[1]) / values[1] <= 8.0e-3


class TestExactOrder:
    @settings(max_examples=300, deadline=None)
    @given(**BOX)
    def test_band_and_order(self, p, q, mu, k0, t_max):
        times = [i * t_max / 40 for i in range(41)]
        check_order(ModelParams(p=p, q=q, mu=mu, alpha=1.0, k0=k0),
                    lambda prm: [exact_classical_value(prm, t) for t in times])
