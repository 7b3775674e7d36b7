"""Oracle solver tests: exact classical closed form and fractional ABM."""

import math
import random

import mpmath as mp
import pytest

from mu_edge_references import EDGE_CASES, edge_cases
from solowfrac.model import ModelParams, REFERENCE_PARAMS
from solowfrac.oracles import (
    NEWTON_CAP,
    NEWTON_TOL,
    WINDOW,
    _history_modes,
    _jacgauss,
    _window_weights,
    exact_classical_value,
    solve_abm_fractional,
)
from solowfrac.sweep import PRESETS, run_sweep, time_grid


def _corrector_weight(alpha, m):
    """c_m = (m+1)^b + (m-1)^b - 2 m^b, b = alpha + 1, without its cancellation:
    from m = 4 on, 2 m^b sum_(j>=1) C(b, 2j) m^(-2j) with b - 1 taken as
    alpha, and below that e(m+1) + e(m-1) - 2 e(m), e(i) = i expm1(alpha ln i)."""
    if m < 4:
        e = [i * math.expm1(alpha * math.log(max(i, 1))) for i in (m + 1, m - 1, m)]
        return e[0] + e[1] - 2.0 * e[2]
    binom = [alpha * (alpha + 1.0) / 2.0]
    for j in range(2, 15):
        binom.append(binom[-1] * (alpha + 3 - 2 * j) * (alpha + 2 - 2 * j) / ((2 * j - 1) * 2 * j))
    total = 0.0
    for b in reversed(binom):
        total = (total + b) / (m * m)
    return 2.0 * m * m ** alpha * total


def _abm_reference(params, t_end, steps):
    """ABM values from the solved corrector with its memory sum written as a
    plain double loop.

    Every weight is the formula above, every memory term is added one at a
    time, oldest first, and each step's corrector k = k0 + c (f(k) + acc)
    is solved by the same safeguarded Newton iteration as the solver's.  The
    solver must reproduce the first WINDOW + 2 values bit for bit (all of
    them on runs of at most WINDOW + 1 steps), stay within 1e-10 relative
    past them, and fail where and how this does.
    """
    alpha, p, q, mu, k0 = params.alpha, params.p, params.q, params.mu, params.k0
    h = t_end / steps
    c = h ** alpha / math.gamma(alpha + 2.0)
    weights = [0.0] + [_corrector_weight(alpha, m) for m in range(1, steps + 1)]

    k = [k0]
    f = [params.rhs(k0)]
    for n in range(steps):
        acc = (n ** (alpha + 1.0) - (n - alpha) * (n + 1) ** alpha) * f[0]
        for j in range(1, n + 1):
            acc += weights[n + 1 - j] * f[j]
        rest = k0 + c * acc
        x = k[n] + (k[n] - k[n - 1]) if n else k0
        if not 0.0 < x < math.inf:
            x = k[n]
        for _ in range(NEWTON_CAP):
            x_mu = x ** mu
            slope = 1.0 - c * (p * mu * x_mu / x - q)
            if not slope > 0.0:
                try:
                    x *= 2.0 * (1.0 - slope / (1.0 + c * q)) ** (1.0 / (1.0 - mu))
                except OverflowError:
                    x = math.inf
                if not x < math.inf:
                    break
                continue
            step = (x - c * (p * x_mu - q * x) - rest) / slope
            if step >= x:
                x *= 0.5
                continue
            x -= step
            if abs(step) <= NEWTON_TOL * x:
                break
        else:
            if x < math.inf:
                more = f"; {t_end * q / 2:.6g} steps make it 1" if alpha == 1.0 else ""
                raise ArithmeticError(f"ABM corrector found no positive capital within {NEWTON_CAP} "
                                      f"Newton iterations at t={h * (n + 1):.6g}: "
                                      f"stiffness c*q = {c * q:.3g}{more}")
        if not x < math.inf:
            raise ArithmeticError(f"ABM corrector produced non-finite capital {x} at t={h * (n + 1):.6g}")
        k.append(x)
        f.append(params.rhs(x))
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
    # Runs of at most WINDOW + 1 steps never read the modes.
    @pytest.mark.parametrize("steps, count", [(16, 12), (17, 12)])
    def test_bit_identical_to_double_loop(self, steps, count):
        for params, t_end in _draws(steps, count):
            values = solve_abm_fractional(params, t_end=t_end, steps=steps)
            assert tuple(values) == _abm_reference(params, t_end, steps)

    # Longer runs send terms older than WINDOW steps through the modes: the
    # first WINDOW + 1 steps stay exact, and no value may move by more than
    # 1e-10 relative (measured: <= 5.5e-15).
    @pytest.mark.parametrize("steps, count", [
        (32, 4), (33, 4), (128, 4), (129, 4), (280, 6), (512, 2), (513, 6),
        (2048, 4), (4096, 4),
    ])
    def test_history_within_1e10_of_double_loop(self, steps, count):
        for params, t_end in _draws(steps, count):
            got = tuple(solve_abm_fractional(params, t_end=t_end, steps=steps))
            want = _abm_reference(params, t_end, steps)
            assert got[:WINDOW + 2] == want[:WINDOW + 2]
            assert max(abs(g - w) / w for g, w in zip(got, want)) <= 1e-10

    # Where the step is too stiff for q the corrector has no positive root.
    @pytest.mark.parametrize("params, t_end, message", [
        (REFERENCE_PARAMS.with_(alpha=0.8, q=1e300), 2.0,
         "ABM corrector found no positive capital within 64 Newton iterations at t=0.0078125: "
         "stiffness c*q = 1.23e+298"),
        (REFERENCE_PARAMS.with_(q=1000.0), 1.0,
         "ABM corrector found no positive capital within 64 Newton iterations at t=0.00390625: "
         "stiffness c*q = 1.95; 500 steps make it 1"),
    ], ids=["q=1e300-alpha=0.8", "q=1000-alpha=1"])
    def test_failure_matches_double_loop(self, params, t_end, message):
        with pytest.raises(ArithmeticError) as expected:
            _abm_reference(params, t_end, 256)
        with pytest.raises(ArithmeticError) as got:
            solve_abm_fractional(params, t_end=t_end, steps=256)
        assert str(got.value) == str(expected.value) == message

    @pytest.mark.parametrize("q, steps", [(1000.0, 500), (1e5, 50_000)])
    def test_named_step_count_solves_at_alpha_1(self, q, steps):
        # The failure at alpha = 1 names t_end q / 2 steps, where c q = 1: the
        # trapezoid's right side k_n (1 - c q) + c p k_n^mu then stays positive.
        k = solve_abm_fractional(REFERENCE_PARAMS.with_(q=q), t_end=1.0, steps=steps)
        assert all(0.0 < v < math.inf for v in k)

    def test_huge_steps_match_double_loop(self):
        # Steps of ~4e303: k stays positive, swinging about k* before settling,
        # as the trapezoid rule does on stiff steps.
        params = REFERENCE_PARAMS.with_(alpha=0.8)
        got = solve_abm_fractional(params, t_end=1e306, steps=256)
        want = _abm_reference(params, 1e306, 256)
        assert max(abs(g - w) / w for g, w in zip(got, want)) <= 1e-10
        assert abs(got[-1] - params.k_star) / params.k_star <= 1e-6

    def test_failure_in_a_long_run_matches_double_loop(self):
        # The memory sum of a run growing like (p t / 2)^2 overflows at step 49,
        # with the modes in use since WINDOW + 1.
        params = ModelParams(p=1e154, q=0.2, mu=0.5, alpha=0.3, k0=1.0)
        with pytest.raises(ArithmeticError) as expected:
            _abm_reference(params, 7.5, 600)
        with pytest.raises(ArithmeticError) as got:
            solve_abm_fractional(params, t_end=7.5, steps=600)
        assert str(got.value) == str(expected.value) == (
            "ABM corrector produced non-finite capital inf at t=0.6125")

    def test_non_finite_capital_fails(self):
        params = REFERENCE_PARAMS.with_(alpha=0.8, p=1e300)
        with pytest.raises(ArithmeticError) as expected:
            _abm_reference(params, 2.0, 256)
        with pytest.raises(ArithmeticError) as got:
            solve_abm_fractional(params, t_end=2.0, steps=256)
        assert str(got.value) == str(expected.value) == (
            "ABM corrector produced non-finite capital inf at t=0.0078125")

    def test_non_finite_t_end_rejected(self):
        with pytest.raises(ValueError, match="t_end must be finite, got inf"):
            solve_abm_fractional(REFERENCE_PARAMS, t_end=math.inf, steps=64)


class TestMuEdges:
    """The ABM against the exact solutions at mu = 1e-14 and 1 - 1e-14."""

    # Measured worst gaps: 3.9e-5 at 280 steps and 2.9e-6 at 2,048 (alpha = 0.3,
    # mu -> 0); at alpha = 1, 2.3e-7 and 4.3e-9 (mu -> 1).  Below 0.3, 5.2e-5
    # at 280 steps (alpha = 0.2, mu -> 0) and 5.6e-6 at 2,048 (alpha = 0.1,
    # either edge), both at k0 = 0.5.
    @pytest.mark.parametrize("steps, tol", [(280, 1e-4), (2048, 1e-5)])
    @pytest.mark.parametrize("params, reference",
                             EDGE_CASES + edge_cases((0.05, 0.1, 0.2, 1.0)))
    def test_abm_matches_exact_edge(self, params, reference, steps, tol):
        values = solve_abm_fractional(params, t_end=2.0, steps=steps)
        for i in range(steps // 8, steps + 1, steps // 8):  # t = 0.25, 0.5, ..., 2
            want = reference(params, i * (2.0 / steps))
            assert abs(values[i] - want) / want <= tol, i

    # To t = 50 at 2,048 steps (h = 0.0244), measured before setting the gate of
    # 1e-4: worst 1.5e-5 at alpha < 1 (mu -> 1, alpha = 0.3); at alpha = 1,
    # 6.7e-5 (mu -> 1, where a one-pass corrector went below 0 near t = 18.7).
    @pytest.mark.parametrize("params, reference", EDGE_CASES + edge_cases((1.0,)))
    def test_abm_matches_exact_edge_to_t50(self, params, reference):
        values = solve_abm_fractional(params, t_end=50.0, steps=2048)
        for i in range(256, 2049, 256):  # t = 6.25, 12.5, ..., 50
            want = reference(params, i * (50.0 / 2048))
            assert abs(values[i] - want) / want <= 1e-4, i


class TestHistoryKernel:
    """The corrector weights c_m against 40-digit values: the window's exact
    formula for ages 1..WINDOW, the modes for ages WINDOW + 1..steps."""

    ALPHAS = [1e-4, 0.05, 0.3, 0.5, 0.8, 0.95, 1.0 - 1e-9, 1.0 - 1e-14, 1.0 - 2.0 ** -52, 1.0]

    @staticmethod
    def exact_weight(alpha, m):
        a = mp.mpf(alpha)
        return (m + 1) ** (a + 1) + (m - 1) ** (a + 1) - 2 * m ** (a + 1)

    # The plain formula was 1.0e-9 off at alpha = 1e-4, m = 16 (measured: 5.2e-15).
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_window_weights_without_cancellation(self, alpha):
        with mp.workdps(40):
            for m, got in zip(range(WINDOW, 0, -1), _window_weights(alpha)):
                want = self.exact_weight(alpha, m)
                assert abs(got - want) / want <= 1e-14, m

    # 17-128 steps check the ln s rule's floor of MIN_LOG_NODES nodes, 280 a
    # sweep cell, and 1,000 and 4,096 steps its rounded-up node count at
    # lengths between the others.
    @pytest.mark.parametrize("steps", [17, 32, 64, 128, 280, 513, 1000, 2048, 4096, 16384])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_modes_reproduce_weights(self, steps, alpha):
        decay, wc = _history_modes(alpha, steps)
        # every age just past the window, then log-spaced ages up to the run's length
        ages = sorted(m for m in {steps - 1, steps} | set(range(WINDOW, WINDOW + 65))
                      | {round(WINDOW * (steps / WINDOW) ** (i / 24)) for i in range(25)}
                      if WINDOW <= m <= steps)
        worst = 0.0
        with mp.workdps(40):
            for m in ages:
                c = self.exact_weight(alpha, m)
                got = math.fsum(w * d ** (m - WINDOW - 1) for w, d in zip(wc, decay))
                worst = max(worst, abs(got - c) / c)
        assert worst <= 1e-12

    # A run pays WINDOW + 2 * modes products per step; these caps keep that
    # at most 16 + 2 * 33 = 82 on a 280-step sweep cell and 16 + 2 * 44 = 104
    # at 2,048 steps.
    @pytest.mark.parametrize("steps, most", [(280, 33), (2048, 44), (16384, 56)])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_mode_count(self, steps, most, alpha):
        assert len(_history_modes(alpha, steps)[0]) <= most


class TestHistoryModeCache:
    """Runs that share alpha and length share one build of the modes."""

    @pytest.mark.parametrize("preset, misses, hits", [("fig-ktq-frac", 1, 20), ("fig-ktalpha", 21, 0)])
    def test_sweep_builds_modes_once_per_alpha(self, preset, misses, hits):
        _history_modes.cache_clear()
        grid = run_sweep(PRESETS[preset].with_(method="both"))
        assert not grid.failures
        info = _history_modes.cache_info()
        assert (info.misses, info.hits) == (misses, hits)

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_tables_are_tuples(self, alpha):
        assert [type(table) for table in _history_modes(alpha, 280)] == [tuple] * 2


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
