"""Oracle solver tests: exact classical closed form and fractional ABM."""

import math
import random

import mpmath as mp
import pytest

from solowfrac.model import ModelParams, REFERENCE_PARAMS
from solowfrac.oracles import (
    EXACT_STEPS,
    WINDOW,
    _history_modes,
    _jacgauss,
    exact_classical_value,
    solve_abm_fractional,
)
from solowfrac.special import ln_gamma
from solowfrac.sweep import time_grid


def _abm_reference(params, t_end, steps):
    """ABM values from the memory sums written as plain double loops.

    Every weight is the exact formula, and every memory term is added one at
    a time, oldest first.  The solver must reproduce these values bit for bit
    on runs of at most EXACT_STEPS steps, stay within 1e-10 relative on longer
    runs, and fail where and how this does.
    """
    alpha = params.alpha
    h = t_end / steps
    h_alpha = h ** alpha
    inv_gamma_a = math.exp(-ln_gamma(alpha))
    inv_gamma_a2 = math.exp(-ln_gamma(alpha + 2.0))

    k = [params.k0]
    f = [params.rhs(params.k0)]
    pow_a = [j ** alpha for j in range(steps + 2)]
    pow_a1 = [j ** (alpha + 1.0) for j in range(steps + 2)]
    b = [pow_a[m + 1] - pow_a[m] for m in range(steps + 1)]
    c = [0.0] + [pow_a1[m + 1] + pow_a1[m - 1] - 2.0 * pow_a1[m] for m in range(1, steps + 1)]

    for n in range(steps):
        acc = 0.0
        for j in range(n + 1):
            acc += b[n - j] * f[j]
        k_pred = params.k0 + inv_gamma_a * (h_alpha / alpha) * acc
        if k_pred <= 0:
            raise ArithmeticError(
                f"ABM predictor produced nonpositive capital {k_pred} at "
                f"t={h * (n + 1):.6g}; the model is only meaningful for k > 0"
            )
        acc = (pow_a1[n] - (n - alpha) * pow_a[n + 1]) * f[0]
        for j in range(1, n + 1):
            acc += c[n + 1 - j] * f[j]
        k_next = params.k0 + inv_gamma_a2 * h_alpha * (params.rhs(k_pred) + acc)
        if k_next <= 0:
            raise ArithmeticError(
                f"ABM corrector produced nonpositive capital {k_next} at "
                f"t={h * (n + 1):.6g}; the model is only meaningful for k > 0"
            )
        k.append(k_next)
        f.append(params.rhs(k_next))
    return tuple(k)


EDGE_ALPHAS = (0.05, 1.0, 1e-4, 1.0 - 1e-9)


def _draws(seed, count):
    """(params, t_end) over the benchmark's parameter box, alpha over (0, 1]
    starting with both ends of the range and then the extremes 1e-4 and
    1 - 1e-9."""
    rng = random.Random(seed)
    for i in range(count):
        alpha = EDGE_ALPHAS[i] if i < len(EDGE_ALPHAS) else 1.0 - rng.random()
        params = ModelParams(p=rng.uniform(0.3, 0.8), q=rng.uniform(0.1, 0.3),
                             mu=rng.uniform(0.2, 0.5), alpha=alpha, k0=rng.uniform(0.5, 2.0))
        yield params, rng.uniform(0.3, 2.0)


class TestExactClassical:
    def test_initial_value(self):
        value = exact_classical_value(REFERENCE_PARAMS, 0.0)
        assert value == pytest.approx(REFERENCE_PARAMS.k0, rel=1e-14)

    def test_long_time_limit(self):
        k_star = REFERENCE_PARAMS.k_star
        assert exact_classical_value(REFERENCE_PARAMS, 1e6) == pytest.approx(k_star, rel=1e-12)

    def test_point_value(self):
        params = ModelParams(p=2.0, q=1.0, mu=0.5, alpha=1.0, k0=1.0)
        expected = (2.0 - math.exp(-0.5)) ** 2
        assert exact_classical_value(params, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_formula_against_adaptive_integrator(self):
        # independent verification of the closed form before anything trusts it
        scipy_integrate = pytest.importorskip("scipy.integrate")
        params = REFERENCE_PARAMS
        sol = scipy_integrate.solve_ivp(
            lambda t, k: params.rhs(k[0]),
            (0.0, 2.0),
            [params.k0],
            rtol=1e-11,
            atol=1e-12,
            dense_output=True,
        )
        for t in (0.25, 0.5, 1.0, 1.7, 2.0):
            assert exact_classical_value(params, t) == pytest.approx(
                sol.sol(t)[0], rel=1e-8
            )

    @pytest.mark.parametrize("p, q, mu, k0, t, bound", [
        (1.0, 1e-4, 0.3, 1.0, 0.01, 2.4e-16),  # e^(-lambda t) form: 1.6e-12 off
        (1.0, 1e-8, 0.3, 1.0, 1.0, 2.4e-16),  # 2.1e-9 off
        (1.0, 1e-12, 0.5, 1.0, 1.0, 2.4e-16),  # 8.3e-13 off
        (1.0, 1e-300, 0.3, 1.0, 1.0, 2.4e-16),  # 0.0
        # 0.0 before; ln k0 = 18 carries the rounding of 1 - mu and 1/(1 - mu)
        (0.5, 1e-300, 0.01, 1e8, 2.0, 2e-15),
    ])
    def test_small_rate_does_not_cancel(self, p, q, mu, k0, t, bound):
        got = exact_classical_value(ModelParams(p=p, q=q, mu=mu, alpha=1.0, k0=k0), t)
        # the textbook form at 400 digits keeps 50 after p/q + (a - p/q) cancels
        with mp.workdps(400):
            p, q, mu, k0, t = map(mp.mpf, (p, q, mu, k0, t))
            v = p / q + (k0 ** (1 - mu) - p / q) * mp.exp(-q * (1 - mu) * t)
            want = v ** (1 / (1 - mu))
            assert abs(got - want) / want <= bound

    def test_rejects_fractional_order(self):
        with pytest.raises(ValueError, match="exact classical solver requires alpha = 1, got 0.8"):
            exact_classical_value(REFERENCE_PARAMS.with_(alpha=0.8), 1.0)

    def test_rejects_bad_grid(self):
        # `time_grid` builds every grid the oracles see: no decreasing or empty one
        with pytest.raises(ValueError):
            time_grid(-1.0, 2)
        with pytest.raises(ValueError):
            time_grid(1.0, 0)


class TestABM:
    def test_equilibrium_start_constant(self):
        for alpha in (0.5, 0.8, 1.0):
            params = REFERENCE_PARAMS.with_(alpha=alpha)
            params = params.with_(k0=params.k_star)
            values = solve_abm_fractional(params, t_end=1.0, steps=64)
            for v in values:
                assert v == pytest.approx(params.k0, rel=1e-12)

    def test_equilibrium_start_constant_through_the_history(self):
        # 2048 steps run most of their memory through the exponential modes
        for alpha in (1e-4, 0.05, 0.5, 0.8, 1.0 - 1e-9, 1.0):
            params = REFERENCE_PARAMS.with_(alpha=alpha)
            params = params.with_(k0=params.k_star)
            values = solve_abm_fractional(params, t_end=1.0, steps=2048)
            for v in values:
                assert v == pytest.approx(params.k0, rel=1e-12)

    def test_classical_limit_matches_exact(self):
        values = solve_abm_fractional(REFERENCE_PARAMS, t_end=2.0, steps=1024)
        worst = 0.0
        for i, k in enumerate(values[1:], start=1):
            exact = exact_classical_value(REFERENCE_PARAMS, i * (2.0 / 1024))
            worst = max(worst, abs(k - exact) / exact)
        assert worst <= 1e-4

    def test_self_convergence_fractional(self):
        params = REFERENCE_PARAMS.with_(alpha=0.8)
        coarse = solve_abm_fractional(params, t_end=2.0, steps=512)
        fine = solve_abm_fractional(params, t_end=2.0, steps=1024)
        rel = abs(coarse[-1] - fine[-1]) / fine[-1]
        assert rel <= 1e-3

    def test_convergence_order(self):
        # halving h must cut the t_end error at least in half (order > 1)
        params = REFERENCE_PARAMS.with_(alpha=0.8)
        reference = solve_abm_fractional(params, t_end=1.0, steps=4096)[-1]
        errors = []
        for steps in (128, 256, 512):
            v = solve_abm_fractional(params, t_end=1.0, steps=steps)[-1]
            errors.append(abs(v - reference))
        assert errors[1] <= errors[0] / 2.0
        assert errors[2] <= errors[1] / 2.0

    @pytest.mark.parametrize("alpha", [0.6, 0.8, 1.0])
    def test_monotone_approach_from_below(self, alpha):
        params = REFERENCE_PARAMS.with_(alpha=alpha)
        values = solve_abm_fractional(params, t_end=5.0, steps=512)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert max(values) <= params.k_star * (1.0 + 1e-9)

    @pytest.mark.parametrize("alpha", [0.6, 1.0])
    def test_monotone_approach_from_above(self, alpha):
        params = REFERENCE_PARAMS.with_(alpha=alpha, k0=3.0 * REFERENCE_PARAMS.k_star)
        values = solve_abm_fractional(params, t_end=5.0, steps=512)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert min(values) >= params.k_star * (1.0 - 1e-9)

    def test_alpha_ordering_small_time(self):
        # smaller order reacts faster at early times (t^alpha > t for t < 1)
        responses = {}
        for alpha in (0.5, 0.8, 1.0):
            params = REFERENCE_PARAMS.with_(alpha=alpha)
            values = solve_abm_fractional(params, t_end=0.1, steps=128)
            responses[alpha] = values[-1] - params.k0
        assert responses[0.5] > responses[0.8] > responses[1.0] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_abm_fractional(REFERENCE_PARAMS, t_end=1.0, steps=8)
        with pytest.raises(ValueError):
            solve_abm_fractional(REFERENCE_PARAMS, t_end=0.0, steps=64)


class TestABMReference:
    # Runs of at most EXACT_STEPS steps keep the whole history exact.
    @pytest.mark.parametrize("steps, count", [
        (16, 12), (17, 12), (WINDOW, 4), (WINDOW + 1, 4), (128, 4), (129, 4), (280, 6),
        (EXACT_STEPS, 2),
    ])
    def test_bit_identical_to_double_loop(self, steps, count):
        for params, t_end in _draws(steps, count):
            values = solve_abm_fractional(params, t_end=t_end, steps=steps)
            assert tuple(values) == _abm_reference(params, t_end, steps)

    # Longer runs send terms older than WINDOW steps through the modes: the
    # first WINDOW + 1 steps stay exact, and no value may move by more than
    # 1e-10 relative (measured: <= 8.2e-12).
    @pytest.mark.parametrize("steps, count", [(EXACT_STEPS + 1, 6), (2048, 4), (4096, 4)])
    def test_history_within_1e10_of_double_loop(self, steps, count):
        for params, t_end in _draws(steps, count):
            got = tuple(solve_abm_fractional(params, t_end=t_end, steps=steps))
            want = _abm_reference(params, t_end, steps)
            assert got[:WINDOW + 2] == want[:WINDOW + 2]
            assert max(abs(g - w) / w for g, w in zip(got, want)) <= 1e-10

    @pytest.mark.parametrize("params, t_end, stage", [
        (REFERENCE_PARAMS.with_(alpha=0.8, q=1e300), 2.0, "predictor"),
        (REFERENCE_PARAMS.with_(alpha=0.8), 1e306, "corrector"),
    ])
    def test_failure_matches_double_loop(self, params, t_end, stage):
        with pytest.raises(ArithmeticError) as expected:
            _abm_reference(params, t_end, 256)
        with pytest.raises(ArithmeticError) as got:
            solve_abm_fractional(params, t_end=t_end, steps=256)
        assert str(expected.value).startswith(f"ABM {stage} produced nonpositive capital")
        assert str(got.value) == str(expected.value)

    def test_failure_in_a_long_run_matches_double_loop(self):
        # Subnormal capital keeps every memory sum exact, so at alpha = 1 the
        # history's one mode and the double loop add the same numbers: the
        # predictor overshoots at step 406, with the modes in use since WINDOW + 1.
        params = ModelParams(p=1e-300, q=1.0, mu=0.5, alpha=1.0, k0=1e-310)
        with pytest.raises(ArithmeticError) as expected:
            _abm_reference(params, 7.5, 600)
        with pytest.raises(ArithmeticError) as got:
            solve_abm_fractional(params, t_end=7.5, steps=600)
        assert str(expected.value).startswith(
            "ABM predictor produced nonpositive capital -7.621649536e-315 at t=5.0875;")
        assert str(got.value) == str(expected.value)

    def test_non_finite_capital_fails(self):
        # The double loop lets the overflow through as NaN values.
        params = REFERENCE_PARAMS.with_(alpha=0.8, p=1e300)
        assert any(math.isnan(v) for v in _abm_reference(params, 2.0, 256))
        with pytest.raises(ArithmeticError) as exc:
            solve_abm_fractional(params, t_end=2.0, steps=256)
        assert str(exc.value) == "ABM corrector produced non-finite capital inf at t=0.0078125"

    def test_non_finite_t_end_rejected(self):
        with pytest.raises(ValueError, match="t_end must be finite, got inf"):
            solve_abm_fractional(REFERENCE_PARAMS, t_end=math.inf, steps=64)


class TestHistoryKernel:
    """The modes against 40-digit weights b_m and c_m, m in [WINDOW, steps]."""

    ALPHAS = [1e-4, 0.05, 0.3, 0.5, 0.8, 0.95, 1.0 - 1e-9, 1.0]

    @pytest.mark.parametrize("steps", [EXACT_STEPS + 1, 2048, 16384])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_modes_reproduce_weights(self, steps, alpha):
        decay, wb, wc = _history_modes(alpha, steps)
        # every age just past the window, then log-spaced ages up to the run's length
        ages = sorted({steps - 1, steps} | set(range(WINDOW, WINDOW + 65))
                      | {round(WINDOW * (steps / WINDOW) ** (i / 24)) for i in range(25)})
        worst = 0.0
        with mp.workdps(40):
            a = mp.mpf(alpha)
            for m in ages:
                b = (m + 1) ** a - m ** a
                c = (m + 1) ** (a + 1) + (m - 1) ** (a + 1) - 2 * m ** (a + 1)
                got_b = math.fsum(w * d ** (m - WINDOW) for w, d in zip(wb, decay))
                got_c = math.fsum(w * d ** (m - WINDOW - 1) for w, d in zip(wc, decay))
                worst = max(worst, abs(got_b - b) / b, abs(got_c - c) / c)
        assert worst <= 1e-12

    # A run pays 2 * WINDOW + 3 * modes products per step; these caps keep
    # that at most 256 at 2,048 steps.
    @pytest.mark.parametrize("steps, most", [(2048, 64), (16384, 88)])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_mode_count(self, steps, most, alpha):
        assert len(_history_modes(alpha, steps)[0]) <= most


class TestGaussJacobi:
    @pytest.mark.parametrize("beta", [-1e-4, -0.05, -0.5, -0.95, -(1.0 - 1e-9)])
    def test_exact_for_degree_below_2n(self, beta):
        # int_-1^1 (1+t)^beta t^k dt = 2^(beta+1) sum_j C(k,j) (-1)^(k-j) 2^j B(beta+j+1, 1),
        # measured against int (1+t)^beta |t|^k dt, which no moment exceeds.
        n = 12
        x, w = _jacgauss(n, beta)
        assert x == sorted(x) and -1.0 < x[0] and x[-1] < 1.0
        with mp.workdps(40):
            bt = mp.mpf(beta)
            for k in range(2 * n):
                exact = 2 ** (bt + 1) * mp.fsum(
                    mp.binomial(k, j) * (-1) ** (k - j) * 2 ** j * mp.beta(bt + j + 1, 1)
                    for j in range(k + 1))
                scale = mp.beta(bt + 1, k + 1) + mp.quad(lambda t: (1 + t) ** bt * t ** k, [0, 1])
                got = math.fsum(wi * xi ** k for xi, wi in zip(x, w))
                assert abs(got - exact) / scale <= 1e-14, k
