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
from solowfrac.series import build_series, eval_series

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


# Scaling pairs: with u = k/k0 and s = q^(1/alpha) t the model reads
# D^alpha u = r u^mu - u, r = (p/q) k0^(mu-1), so k(t)/k0 depends on p, q and
# k0 only through r and q t^alpha.  `scaled` multiplies q by a and k0 by b
# and keeps r; its times are the first set's times `stretch`.  Each solver
# forms k as k0 plus an update, so its rounding is relative to max(k0, k):
# the gaps in u are measured against max(1, u).  Tolerances, set before
# measuring: 1e-13 for the exact solution, 1e-12 for the 280-step ABM, whose
# steps solve the same scaled corrector (c q is the same on both grids), and
# 1e-13 for the order-5 series, which failed: near k*, p k0^mu - q k0 cancels
# and the series multiplies its rounding by up to (q t^alpha)^5 / 5!.  Worst
# found by a targeted search of 3,000 draws each: 1.2e-14 exact, 9.4e-15 ABM
# (relative to u itself 2.4e-11, where k fell to 2e-5 k0) and 2.8e-12 series,
# now gated at 1e-10.  No order-5 trust flag differed.
SCALE = st.floats(-3.0, 3.0).map(math.exp)
ALPHA = st.one_of(st.just(1.0), st.floats(0.05, 1.0))


def scaled(params, a, b):
    """The set with q times a, k0 times b and the same r, mu and alpha, and
    the factor (q / (a q))^(1/alpha) that takes `params`' times to its own."""
    other = params.with_(p=params.p * a * b ** (1.0 - params.mu), q=params.q * a, k0=params.k0 * b)
    return other, (params.q / other.q) ** (1.0 / params.alpha)


def assert_scaled_close(first, second, params, other, tol):
    for k1, k2 in zip(first, second, strict=True):
        u1, u2 = k1 / params.k0, k2 / other.k0
        assert abs(u1 - u2) <= tol * max(1.0, abs(u1)), (u1, u2)


class TestScalingPairs:
    @settings(max_examples=200, deadline=None)
    @given(**BOX, a=SCALE, b=SCALE)
    def test_exact(self, p, q, mu, k0, t_max, a, b):
        params = ModelParams(p=p, q=q, mu=mu, alpha=1.0, k0=k0)
        other, stretch = scaled(params, a, b)
        times = [i * t_max / 40 for i in range(41)]
        assert_scaled_close([exact_classical_value(params, t) for t in times],
                            [exact_classical_value(other, t * stretch) for t in times],
                            params, other, 1e-13)

    @settings(max_examples=200, deadline=None)
    @given(**BOX, alpha=ALPHA, a=SCALE, b=SCALE)
    def test_abm(self, p, q, mu, k0, t_max, alpha, a, b):
        params = ModelParams(p=p, q=q, mu=mu, alpha=alpha, k0=k0)
        other, stretch = scaled(params, a, b)
        assert_scaled_close(solve_abm_fractional(params, t_end=t_max, steps=280),
                            solve_abm_fractional(other, t_end=t_max * stretch, steps=280),
                            params, other, 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(**BOX, alpha=ALPHA, a=SCALE, b=SCALE)
    def test_series_trusted_values_and_flags(self, p, q, mu, k0, t_max, alpha, a, b):
        params = ModelParams(p=p, q=q, mu=mu, alpha=alpha, k0=k0)
        other, stretch = scaled(params, a, b)
        first, second = build_series(params, 5), build_series(other, 5)
        for t in (i * t_max / 8 for i in range(9)):
            (k1, trusted), (k2, trusted_too) = (eval_series(first, alpha, t),
                                                eval_series(second, alpha, t * stretch))
            assert trusted == trusted_too, t
            if trusted:
                assert_scaled_close([k1], [k2], params, other, 1e-10)

    def test_known_defect_high_order_coefficients_are_rounding_noise(self):
        # KNOWN DEFECT: at orders 16 and 32 the float recurrence can lose every
        # digit of the late coefficients (c_32 here is -1.8e8 times its
        # 60-digit value, and every c_n from n = 20 has the wrong sign), and the trust rule, which reads only the last term, passes
        # the noise.  Scaled pairs then differ on trusted points by up to
        # 7.3e-3 at order 32 and 6.4e-7 at order 16, and 2 trust flags differ
        # at order 32 (4,000 seeded draws; a stated 1e-9 at order 32 failed),
        # so the pairs are gated at order 5 only.  Here order 32 is trusted
        # yet 1.0e-3 off the exact solution, where order 16 is 2.5e-7 off.
        # This test fails once the defect is mended.
        params = ModelParams(p=2.3, q=0.05, mu=0.93, alpha=1.0, k0=6.2)
        exact = exact_classical_value(params, 10.0)
        gaps = {}
        for order in (16, 32):
            value, trusted = eval_series(build_series(params, order), 1.0, 10.0)
            assert trusted
            gaps[order] = abs(value - exact) / exact
        assert gaps[16] < 1e-6 < 5e-4 < gaps[32]
